// Fused build->evaluate advection driver: the tile-resident coefficient
// streaming pipeline of the semi-Lagrangian hot path.
//
// The unfused Algorithm 2 round-trips a full-size coefficient View through
// DRAM every step: transpose f, solve the batched collocation system in
// place, transpose back, then re-read every coefficient row to interpolate
// at the feet of the backward characteristics. The span cost models show
// the fused solve already memory-bound, so this driver cuts the traffic
// instead: per batch tile it stages the RHS strip in the per-thread
// WorkspaceArena, runs the fused Schur chain on it while it is L2-resident
// (core::schur_solve_staged_strip -- the same per-column arithmetic as the
// batched solvers, hence bitwise-identical coefficients), then evaluates
// the splines at the displaced feet straight out of the arena-resident
// strip. Only f itself is read and only the advected values are written;
// the coefficient array never exists in main memory.
//
// An AdvectionPlan is built once and reused every step: the knots (basis),
// the Schur factors (shared with the builder), the interpolation points,
// the resolved tile width and the arena slot sizing are all cached, so a
// repeated advect() does zero setup work -- no factorization, no knot or
// tile-model recomputation, and (after the first call sized the grow-only
// arena) no allocation.
//
// Scope: the fused path covers the Direct method's fused builder versions
// (Fused/FusedSpmv run the strip at W = 1, FusedSimd/FusedSpmvSimd at the
// native pack width) at Precision::Double. Baseline (multi-pass GEMM) and
// the reduced-precision pipelines keep the unfused path -- fusable()
// reports false and BatchedAdvection1D falls back transparently.
#pragma once

#include "advection/transpose.hpp"
#include "bsplines/basis.hpp"
#include "core/batched_solve.hpp"
#include "core/spline_builder.hpp"
#include "core/spline_evaluator.hpp"
#include "debug/registry.hpp"
#include "parallel/arena.hpp"
#include "parallel/parallel.hpp"
#include "parallel/profiling.hpp"
#include "parallel/simd.hpp"
#include "parallel/tiling.hpp"
#include "parallel/view.hpp"

#include <cstddef>

namespace pspl::advection {

/// Modeled flop count of one spline evaluation at one point: wrap and
/// cell-local rescale, the Cox-de Boor triangle (one divide, two multiplies
/// and two adds per inner iteration, plus the left/right setup per level),
/// and the (degree+1)-tap coefficient combination.
inline double eval_point_flops(int degree)
{
    const double d = static_cast<double>(degree);
    return 2.5 * d * (d + 1.0) + 2.0 * d + 2.0 * (d + 1.0) + 4.0;
}

/// Modeled flops of SplineEvaluator::evaluate_shifted over one column of
/// npts feet: with the per-column stencil, one basis evaluation plus a
/// (degree+1)-tap combination per point; otherwise eval_point_flops per
/// point.
inline double eval_column_flops(int degree, std::size_t npts, bool stencil)
{
    const double pts = static_cast<double>(npts);
    return stencil ? eval_point_flops(degree)
                             + pts * 2.0 * (static_cast<double>(degree) + 1.0)
                   : pts * eval_point_flops(degree);
}

/// Modeled DRAM bytes of one fused advection step: the value strip read
/// once, the advected values written once. The coefficients never travel.
inline double advect_stream_bytes(std::size_t n, std::size_t npts,
                                  std::size_t nv)
{
    return static_cast<double>(nv)
           * static_cast<double>(n + npts)
           * static_cast<double>(sizeof(double));
}

class AdvectionPlan
{
public:
    AdvectionPlan() = default;

    /// Cache everything `advect()` needs from the builder (the Schur
    /// factors are shared, not copied), the evaluator, the interpolation
    /// points of the basis and the per-row velocities. The batch tile
    /// width is resolved here, once, from the builder's tile policy
    /// through the fused-advection L2 model (strips + factors + points).
    AdvectionPlan(const core::SplineBuilder& builder,
                  core::SplineEvaluator evaluator, View1D<double> points,
                  View1D<double> velocities, double dt);

    /// Whether the fused driver covers this configuration (fused builder
    /// version at Precision::Double).
    bool fusable() const { return m_fusable; }
    /// Resolved batch tile width (a multiple of pack_width()).
    std::size_t tile_cols() const { return m_tile; }
    /// Pack width of the strip solve: 1 for the scalar fused versions,
    /// the library's SIMD width for the Simd versions. A caller must be
    /// compiled for the same ISA (advect_to checks).
    int pack_width() const { return m_width; }
    bool use_spmv() const { return m_use_spmv; }
    const View1D<double>& points() const { return m_points; }
    const View1D<double>& velocities() const { return m_velocities; }
    double dt() const { return m_dt; }

    /// Per-slot staging footprint in bytes: the coefficient strip, plus
    /// the output strip when the destination is transposed.
    std::size_t slot_bytes(bool transposed_out) const
    {
        const std::size_t n = m_builder.basis().nbasis();
        const std::size_t strip = n * m_tile * sizeof(double);
        const std::size_t outs =
                transposed_out ? m_points.extent(0) * m_tile * sizeof(double)
                               : 0;
        return strip + outs;
    }

    /// One fused semi-Lagrangian step in place: f (nv, n) holds values on
    /// entry and the advected values f(j, i) = s_j(points(i) - v_j*dt) on
    /// exit.
    template <class Exec = DefaultExecutionSpace,
              int W = simd_preferred_width<double>>
    void advect(const View2D<double>& f) const
    {
        advect_to<Exec, View2D<double>, W>(f, f);
    }

    /// General form: read values from `f` (nv rows of n contiguous
    /// values), write the advected values to `out(j, i)`. `out` may be f
    /// itself (in place: each tile owns its rows exclusively), or a
    /// zero-copy transposed_view of an (npts, nv) block -- the 2-D Strang
    /// chain passes the next dimension's scratch directly and the
    /// inter-dimension transpose happens inside the tile (blocked
    /// contiguous writes), with no intermediate full-size array.
    ///
    /// The strip solve is instantiated here, in the caller's translation
    /// unit, at W -- the caller's pack width, a template parameter so that
    /// callers compiled for different ISAs instantiate different functions.
    /// It must equal the width the plan resolved inside the library.
    template <class Exec = DefaultExecutionSpace, class OutView,
              int W = simd_preferred_width<double>>
    void advect_to(const View2D<double>& f, const OutView& out) const
    {
        PSPL_EXPECT(m_fusable,
                    "AdvectionPlan::advect: configuration is not fusable "
                    "(Baseline version or reduced precision) -- use the "
                    "unfused step");
        const std::size_t n = m_builder.basis().nbasis();
        const std::size_t nv = m_velocities.extent(0);
        const std::size_t npts = m_points.extent(0);
        PSPL_EXPECT(f.extent(0) == nv && f.extent(1) == n,
                    "AdvectionPlan::advect: f must be (nv, n)");
        PSPL_EXPECT(out.extent(0) == nv && out.extent(1) == npts,
                    "AdvectionPlan::advect: out must be (nv, npts)");
        if (m_width == 1) {
            if (m_use_spmv) {
                advect_impl<1, true, Exec>(f, out);
            } else {
                advect_impl<1, false, Exec>(f, out);
            }
            return;
        }
        PSPL_EXPECT(m_width == W,
                    "AdvectionPlan::advect: the caller's SIMD pack width "
                    "differs from the library's AdvectionPlan::pack_width() "
                    "-- compile the caller for the library's ISA");
        if (m_use_spmv) {
            advect_impl<W, true, Exec>(f, out);
        } else {
            advect_impl<W, false, Exec>(f, out);
        }
    }

private:
    template <int W, bool UseSpmv, class Exec, class OutView>
    void advect_impl(const View2D<double>& f, const OutView& out) const
    {
        using Pack = simd<double, W>;
        const core::SchurDeviceData s = m_builder.solver().device_data();
        const std::size_t n = s.n;
        const std::size_t nv = m_velocities.extent(0);
        const std::size_t npts = m_points.extent(0);
        const auto wide = static_cast<std::size_t>(W);
        const std::size_t tile = m_tile;
        const std::size_t tile_packs = tile / wide;
        // A transposed destination cannot take contiguous per-column
        // writes, so the evaluated tile is staged in an output strip and
        // scattered blockwise (contiguous tile-wide runs) instead.
        const bool out_rowwise = out.stride(1) == 1;
        const std::size_t strip_bytes = n * tile_packs * sizeof(Pack);
        const std::size_t out_bytes =
                out_rowwise ? 0 : tile * npts * sizeof(double);
        WorkspaceArena& arena = host_workspace_arena();
        arena.reserve(static_cast<std::size_t>(Exec::concurrency()),
                      strip_bytes + out_bytes);
        debug::ScratchGuard scratch(arena.data(), arena.size_bytes());
        std::byte* const abase = arena.data();
        const std::size_t astride = arena.slot_stride_bytes();
        const auto evaluator = m_evaluator;
        const auto points = m_points;
        const auto velocities = m_velocities;
        const double dt = m_dt;
        for_each_batch_tile("pspl::advection::advect_fused",
                            RangePolicy<Exec>(nv), tile,
                            [=](const BatchTile& t) {
            std::byte* const slot =
                    abase
                    + astride * static_cast<std::size_t>(Exec::thread_rank());
            Pack* PSPL_RESTRICT buf = reinterpret_cast<Pack*>(slot);
            double* const bufd = reinterpret_cast<double*>(slot);
            const std::size_t cols = t.cols();
            const std::size_t packs = (cols + wide - 1) / wide;
            const std::size_t row_stride = packs * wide;
            // 1. Stage the RHS strip: contiguous row reads of f, tail
            //    lanes zero-filled like the untiled SIMD drivers'.
            gather_strip_from_rows(f, t.begin, cols, n, row_stride, bufd);
            // 2. Fused Schur chain on the L2-resident strip -- bitwise
            //    the coefficients the unfused build would have produced.
            core::schur_solve_staged_strip<W>(s, buf, packs, UseSpmv);
            // 3. Evaluate at the feet straight from the strip; stream
            //    only the advected values out.
            if (out_rowwise) {
                for (std::size_t c = 0; c < cols; ++c) {
                    const std::size_t j = t.begin + c;
                    const core::StripColumn coeffs{bufd + c, n, row_stride};
                    evaluator.evaluate_shifted(points, velocities(j) * dt,
                                               coeffs, &out(j, 0));
                }
            } else {
                double* const obuf =
                        reinterpret_cast<double*>(slot + strip_bytes);
                for (std::size_t c = 0; c < cols; ++c) {
                    const std::size_t j = t.begin + c;
                    const core::StripColumn coeffs{bufd + c, n, row_stride};
                    evaluator.evaluate_shifted(points, velocities(j) * dt,
                                               coeffs, obuf + c * npts);
                }
                // 4. Blocked transpose out of the tile: the 2-D chain's
                //    inter-dimension permutation, fused into the pass.
                scatter_strip_transposed(obuf, t.begin, cols, npts, out);
            }
        });
        if (profiling::enabled()) {
            // Cost attribution: the solve stages decompose onto their
            // counter children exactly as in the standalone batched solve,
            // the evaluation flops and the value/advected streams land on
            // their own children, and the whole-launch total merges with
            // the timed advect_fused span so the report derives achieved
            // bandwidth for the fused pipeline as one unit.
            core::attribute_schur_solve_cost(
                    s, "pspl::advection::advect_fused", nv, UseSpmv);
            const double eflops =
                    static_cast<double>(nv)
                    * eval_column_flops(m_builder.basis().degree(), npts,
                                        m_evaluator.on_grid(m_points));
            const double sbytes = advect_stream_bytes(n, npts, nv);
            profiling::add_counters("advect_eval", 0.0, eflops);
            profiling::add_counters("advect_stream", sbytes, 0.0);
            profiling::add_counters("pspl::advection::advect_fused", sbytes,
                                    eflops);
        }
    }

    core::SplineBuilder m_builder; ///< shares the Schur factors
    core::SplineEvaluator m_evaluator;
    View1D<double> m_points;
    View1D<double> m_velocities;
    double m_dt = 0.0;
    bool m_fusable = false;
    bool m_use_spmv = true;
    int m_width = 1;
    std::size_t m_tile = 0;
};

/// Pure parse of a PSPL_ADVECT_FUSED-style value: "0"/"off"/"false" (any
/// case) disable, anything else (including unset = nullptr) enables. The
/// fused pipeline is the default; the toggle exists for ablation and
/// fallback.
bool fused_advect_enabled(const char* text);

/// Live read of PSPL_ADVECT_FUSED.
bool fused_advect_env();

} // namespace pspl::advection
