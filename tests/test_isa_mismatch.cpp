// A caller compiled for a narrower ISA than the library. The fused
// advection path instantiates its strip solve in the caller's translation
// unit at the caller's pack width, while the plan resolved its width and
// tile inside the library; the plan must refuse the mismatch instead of
// filling strips sized for another width. This TU is compiled with -mno-avx
// (tests/CMakeLists.txt), so against a library built for AVX or wider the
// widths differ; the checks skip when they do not.
#include "advection/advection_plan.hpp"
#include "bsplines/basis.hpp"
#include "core/spline_builder.hpp"
#include "core/spline_evaluator.hpp"
#include "parallel/simd.hpp"

#include <gtest/gtest.h>

namespace {

using namespace pspl;
using advection::AdvectionPlan;
using bsplines::BSplineBasis;
using core::BuilderVersion;

AdvectionPlan make_plan(const BSplineBasis& basis, BuilderVersion version,
                        std::size_t nv)
{
    const core::SplineBuilder builder(basis, version);
    View1D<double> points("points", basis.nbasis());
    const auto pts = basis.interpolation_points();
    for (std::size_t i = 0; i < pts.size(); ++i) {
        points(i) = pts[i];
    }
    View1D<double> vel("vel", nv);
    for (std::size_t j = 0; j < nv; ++j) {
        vel(j) = 0.1 * static_cast<double>(j);
    }
    return AdvectionPlan(builder, core::SplineEvaluator(basis), points, vel,
                         1e-3);
}

TEST(IsaMismatch, NarrowCallerIsRefused)
{
    const auto basis = BSplineBasis::uniform(3, 64, 0.0, 1.0);
    const AdvectionPlan plan =
            make_plan(basis, BuilderVersion::FusedSpmvSimd, 50);
    if (plan.pack_width() == simd_preferred_width<double>) {
        GTEST_SKIP() << "library pack width " << plan.pack_width()
                     << " equals this TU's: no narrower ISA to test";
    }
    View2D<double> f("f", 50, basis.nbasis());
    EXPECT_DEATH(plan.advect<Serial>(f), "pack width");
}

TEST(IsaMismatch, ScalarFusedVersionRunsAtAnyWidth)
{
    const auto basis = BSplineBasis::uniform(3, 64, 0.0, 1.0);
    const AdvectionPlan plan = make_plan(basis, BuilderVersion::FusedSpmv, 50);
    ASSERT_EQ(plan.pack_width(), 1);
    View2D<double> f("f", 50, basis.nbasis());
    for (std::size_t j = 0; j < 50; ++j) {
        for (std::size_t i = 0; i < basis.nbasis(); ++i) {
            f(j, i) = 2.0;
        }
    }
    plan.advect<Serial>(f);
    for (std::size_t j = 0; j < 50; ++j) {
        for (std::size_t i = 0; i < basis.nbasis(); ++i) {
            EXPECT_NEAR(f(j, i), 2.0, 1e-12) << "j=" << j << " i=" << i;
        }
    }
}

} // namespace
