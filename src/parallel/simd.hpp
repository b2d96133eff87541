// Portable fixed-width SIMD pack type for vectorizing *across the batch
// dimension* of the batched solvers.
//
// The paper's "one small matrix x huge batch" mapping gives every batch
// entry identical control flow (same shared factorization, only the RHS
// differs), so W adjacent batch entries can ride in the W lanes of one
// vector register: a kernel written against a generic ValueType executes
// unchanged with ValueType = simd<double, W>, turning its scalar recurrences
// into W independent recurrences advanced by one vector instruction each.
// This is the host-side image of the warp-level SIMT execution the paper
// gets for free on GPUs.
//
// Two implementations sit behind one interface:
//   - a GCC/Clang vector-extension pack (native_pack specializations) that
//     lowers to SSE/AVX/AVX-512 or NEON instructions, and
//   - a scalar std::array fallback for any other compiler, written as
//     fixed-trip-count lane loops that auto-vectorizers handle well.
// Define PSPL_SIMD_FORCE_SCALAR to force the fallback (used by the unit
// tests to cross-check both implementations).
//
// Tail handling (batch % W != 0) uses prefix masks: load_partial zero-fills
// the dead lanes (all kernel operations are lane-wise, so dead lanes can
// never contaminate live ones and 0/d stays finite) and store_partial
// writes only the live lanes back. where()-masked assignment and select()
// cover the general masked-update case.
#pragma once

#include "core/concepts.hpp"
#include "parallel/macros.hpp"

#include <array>
#include <cstddef>
#include <cstring>
#include <type_traits>

#if !defined(PSPL_SIMD_FORCE_SCALAR) && (defined(__GNUC__) || defined(__clang__))
#define PSPL_SIMD_VECTOR_EXT 1
#else
#define PSPL_SIMD_VECTOR_EXT 0
#endif

namespace pspl {

namespace detail {

/// Native pack storage. Explicit specializations rather than a dependent
/// vector_size attribute: the attribute does not accept template-dependent
/// sizes on all supported compilers.
template <class T, int W>
struct native_pack {
    static constexpr bool available = false;
    using type = std::array<T, W>;
};

#if PSPL_SIMD_VECTOR_EXT
// aligned(alignof(T)) drops the pack alignment to the element alignment so
// packs can be loaded from any element-aligned address (the RHS block gives
// no stronger guarantee); may_alias exempts pack accesses from strict
// aliasing against the underlying element arrays.
#define PSPL_DEFINE_NATIVE_PACK(T, W, name)                                   \
    typedef T name __attribute__((vector_size(W * sizeof(T)),                 \
                                  aligned(alignof(T)), may_alias));           \
    template <>                                                               \
    struct native_pack<T, W> {                                                \
        static constexpr bool available = true;                               \
        using type = name;                                                    \
    };

PSPL_DEFINE_NATIVE_PACK(double, 2, pack_storage_d2)
PSPL_DEFINE_NATIVE_PACK(double, 4, pack_storage_d4)
PSPL_DEFINE_NATIVE_PACK(double, 8, pack_storage_d8)
PSPL_DEFINE_NATIVE_PACK(float, 4, pack_storage_f4)
PSPL_DEFINE_NATIVE_PACK(float, 8, pack_storage_f8)
PSPL_DEFINE_NATIVE_PACK(float, 16, pack_storage_f16)
// Same-width integer packs: used only by the broadcast constructor to splat
// a scalar's bit pattern with a single instruction (see simd(T)).
PSPL_DEFINE_NATIVE_PACK(long long, 2, pack_storage_i64x2)
PSPL_DEFINE_NATIVE_PACK(long long, 4, pack_storage_i64x4)
PSPL_DEFINE_NATIVE_PACK(long long, 8, pack_storage_i64x8)
PSPL_DEFINE_NATIVE_PACK(int, 4, pack_storage_i32x4)
PSPL_DEFINE_NATIVE_PACK(int, 8, pack_storage_i32x8)
PSPL_DEFINE_NATIVE_PACK(int, 16, pack_storage_i32x16)
#undef PSPL_DEFINE_NATIVE_PACK
#endif

} // namespace detail

/// Widest vector register the current translation unit is compiled for, in
/// bits. Header-inline, so it is the TU's own ISA; the build compiles the
/// library and every consumer for one ISA (PSPL_NATIVE_ARCH), so the widths
/// agree across TUs.
inline constexpr int simd_native_bits =
#if defined(__AVX512F__)
        512;
#elif defined(__AVX__)
        256;
#elif defined(__SSE2__) || defined(__ARM_NEON) || defined(__VSX__)
        128;
#else
        64;
#endif

/// Preferred pack width (lane count) for element type T on this TU's ISA.
template <class T>
inline constexpr int simd_preferred_width =
        simd_native_bits / 8 / static_cast<int>(sizeof(T)) >= 1
                ? simd_native_bits / 8 / static_cast<int>(sizeof(T))
                : 1;

template <class T, int W>
struct simd {
    static_assert(SimdPackable<T>,
                  "simd requires an arithmetic type (and never bool: masked "
                  "lanes are spelled simd_mask, not a bool pack)");
    static_assert(SimdLaneCount<W>,
                  "simd width must be a power of two (the tail masks and the "
                  "2:1 f32/f64 conversion shapes assume it)");

    using value_type = T;
    static constexpr int width = W;
    static constexpr bool has_native = detail::native_pack<T, W>::available;
    using storage_type = typename detail::native_pack<T, W>::type;

    storage_type v;

    simd() = default;

    /// Broadcast; intentionally implicit so scalar factors mix into pack
    /// expressions the way they do in the ValueType-generic kernels.
    PSPL_FORCEINLINE_FUNCTION simd(T s)
    {
        using bits_t = std::conditional_t<sizeof(T) == 8, long long, int>;
        if constexpr (has_native && std::is_floating_point_v<T>
                      && sizeof(bits_t) == sizeof(T)
                      && detail::native_pack<bits_t, W>::available) {
            // The naive lane loop compiles to W masked single-lane inserts
            // on GCC/AVX-512 instead of one broadcast, which dominates the
            // pack-sweep inner loops. Splatting the *bit pattern* through a
            // same-width integer vector OR is bit-exact (arithmetic splat
            // idioms like `vec{} + s` would turn -0.0 into +0.0) and lowers
            // to one vpbroadcast.
            using ivec = typename detail::native_pack<bits_t, W>::type;
            bits_t b;
            std::memcpy(&b, &s, sizeof(T));
            const ivec t = ivec{} | b;
            std::memcpy(&v, &t, sizeof(v));
        } else {
            for (int l = 0; l < W; ++l) {
                v[l] = s;
            }
        }
    }

    /// Broadcast from a different scalar type. Widening (float scalar into a
    /// double pack) and integer literals (`acc = 0` in ValueType-generic
    /// kernels) stay implicit; a floating-point scalar wider than the lane
    /// type (double into a float pack) is rejected -- that is a silent
    /// round-off injected into every lane, the defect class the
    /// mixed-precision pipeline confines to simd_narrow().
    template <class U>
        requires(std::is_arithmetic_v<U> && !std::is_same_v<U, T>)
    PSPL_FORCEINLINE_FUNCTION simd(U s) : simd(static_cast<T>(s))
    {
        static_assert(!(std::is_floating_point_v<U>
                        && std::is_floating_point_v<T>
                        && sizeof(U) > sizeof(T)),
                      "simd broadcast narrows a floating-point scalar "
                      "(e.g. double -> float lanes): narrowing must be "
                      "explicit -- static_cast the scalar or convert whole "
                      "packs with simd_narrow()");
    }

    PSPL_FORCEINLINE_FUNCTION T operator[](int l) const { return v[l]; }
    PSPL_FORCEINLINE_FUNCTION void set(int l, T s) { v[l] = s; }

    // -- contiguous load/store (unaligned; memcpy lowers to vector moves) --

    PSPL_FORCEINLINE_FUNCTION static simd load(const T* p)
    {
        simd r;
        std::memcpy(&r.v, p, sizeof(storage_type));
        return r;
    }

    PSPL_FORCEINLINE_FUNCTION void store(T* p) const
    {
        std::memcpy(p, &v, sizeof(storage_type));
    }

    // -- strided (gather/scatter) load/store -------------------------------

    PSPL_FORCEINLINE_FUNCTION static simd load(const T* p, std::ptrdiff_t stride)
    {
        simd r;
        for (int l = 0; l < W; ++l) {
            r.v[l] = p[static_cast<std::ptrdiff_t>(l) * stride];
        }
        return r;
    }

    PSPL_FORCEINLINE_FUNCTION void store(T* p, std::ptrdiff_t stride) const
    {
        for (int l = 0; l < W; ++l) {
            p[static_cast<std::ptrdiff_t>(l) * stride] = v[l];
        }
    }

    // -- masked tail load/store: first `lanes` lanes only ------------------

    /// Loads lanes [0, lanes) and zero-fills the rest, so tail packs stay
    /// finite through any sequence of lane-wise solves.
    PSPL_FORCEINLINE_FUNCTION static simd load_partial(const T* p,
                                                       std::ptrdiff_t stride,
                                                       int lanes)
    {
        simd r(T(0));
        for (int l = 0; l < lanes; ++l) {
            r.v[l] = p[static_cast<std::ptrdiff_t>(l) * stride];
        }
        return r;
    }

    PSPL_FORCEINLINE_FUNCTION void store_partial(T* p, std::ptrdiff_t stride,
                                                 int lanes) const
    {
        for (int l = 0; l < lanes; ++l) {
            p[static_cast<std::ptrdiff_t>(l) * stride] = v[l];
        }
    }

    // -- arithmetic --------------------------------------------------------

#define PSPL_SIMD_BINOP(op)                                                   \
    PSPL_FORCEINLINE_FUNCTION friend simd operator op(simd a, const simd& b)  \
    {                                                                         \
        if constexpr (has_native) {                                           \
            a.v = a.v op b.v;                                                 \
        } else {                                                              \
            for (int l = 0; l < W; ++l) {                                     \
                a.v[l] = a.v[l] op b.v[l];                                    \
            }                                                                 \
        }                                                                     \
        return a;                                                             \
    }                                                                         \
    /* Scalar operands deduce U instead of converting to T up front: the   */ \
    /* broadcast constructor then owns the one narrowing diagnostic, so    */ \
    /* `float_pack * 2.0` fails loudly instead of rounding silently.       */ \
    template <class U>                                                        \
        requires(std::is_arithmetic_v<U>)                                     \
    PSPL_FORCEINLINE_FUNCTION friend simd operator op(simd a, U s)            \
    {                                                                         \
        return a op simd(s);                                                  \
    }                                                                         \
    template <class U>                                                        \
        requires(std::is_arithmetic_v<U>)                                     \
    PSPL_FORCEINLINE_FUNCTION friend simd operator op(U s, const simd& b)     \
    {                                                                         \
        return simd(s) op b;                                                  \
    }                                                                         \
    PSPL_FORCEINLINE_FUNCTION simd& operator op##=(const simd& b)             \
    {                                                                         \
        *this = *this op b;                                                   \
        return *this;                                                         \
    }                                                                         \
    template <class U>                                                        \
        requires(std::is_arithmetic_v<U>)                                     \
    PSPL_FORCEINLINE_FUNCTION simd& operator op##=(U s)                       \
    {                                                                         \
        *this = *this op simd(s);                                             \
        return *this;                                                         \
    }

    PSPL_SIMD_BINOP(+)
    PSPL_SIMD_BINOP(-)
    PSPL_SIMD_BINOP(*)
    PSPL_SIMD_BINOP(/)
#undef PSPL_SIMD_BINOP

    PSPL_FORCEINLINE_FUNCTION simd operator-() const
    {
        return simd(T(0)) - *this;
    }
};

// ---------------------------------------------------------------------------
// Masks and where()-style masked assignment (tail handling vocabulary).
// ---------------------------------------------------------------------------

template <class T, int W>
struct simd_mask {
    std::array<bool, W> m{};

    /// Prefix mask: lanes [0, n) active -- the shape of every batch tail.
    PSPL_FORCEINLINE_FUNCTION static simd_mask first(int n)
    {
        simd_mask k;
        for (int l = 0; l < W && l < n; ++l) {
            k.m[l] = true;
        }
        return k;
    }

    PSPL_FORCEINLINE_FUNCTION static simd_mask all() { return first(W); }

    PSPL_FORCEINLINE_FUNCTION bool operator[](int l) const { return m[l]; }

    PSPL_FORCEINLINE_FUNCTION int count() const
    {
        int c = 0;
        for (int l = 0; l < W; ++l) {
            c += m[l] ? 1 : 0;
        }
        return c;
    }
};

/// Lane-wise k ? a : b.
template <class T, int W>
PSPL_FORCEINLINE_FUNCTION simd<T, W> select(const simd_mask<T, W>& k,
                                            const simd<T, W>& a,
                                            const simd<T, W>& b)
{
    simd<T, W> r;
    for (int l = 0; l < W; ++l) {
        r.set(l, k[l] ? a[l] : b[l]);
    }
    return r;
}

namespace detail {

template <class T, int W>
struct where_expr {
    simd_mask<T, W> k;
    simd<T, W>& x;

    PSPL_FORCEINLINE_FUNCTION void operator=(const simd<T, W>& rhs) const
    {
        x = select(k, rhs, x);
    }
    PSPL_FORCEINLINE_FUNCTION void operator+=(const simd<T, W>& rhs) const
    {
        x = select(k, x + rhs, x);
    }
    PSPL_FORCEINLINE_FUNCTION void operator-=(const simd<T, W>& rhs) const
    {
        x = select(k, x - rhs, x);
    }
    PSPL_FORCEINLINE_FUNCTION void operator*=(const simd<T, W>& rhs) const
    {
        x = select(k, x * rhs, x);
    }
};

} // namespace detail

/// Kokkos::Experimental::where-style masked view of a pack:
/// `where(mask, x) = y` assigns y only in the active lanes.
template <class T, int W>
PSPL_FORCEINLINE_FUNCTION detail::where_expr<T, W> where(const simd_mask<T, W>& k,
                                                         simd<T, W>& x)
{
    return {k, x};
}

// ---------------------------------------------------------------------------
// f32 <-> f64 pack conversion -- the sanctioned precision-change helpers of
// the mixed-precision pipeline. A float pack covers twice the lanes of a
// double pack at equal register width, so the natural conversion shapes are
// 2:1: two double packs narrow into one float pack, and one float pack
// widens into its low / high double-pack halves. Lane order is preserved
// (lane l of `lo` -> lane l, lane l of `hi` -> lane W + l), which is what
// keeps the row-major tile layouts of the two precisions interchangeable.
// ---------------------------------------------------------------------------

/// Narrow two W-wide double packs into one 2W-wide float pack
/// (round-to-nearest, the hardware cvtpd2ps semantics).
template <int W>
PSPL_FORCEINLINE_FUNCTION simd<float, 2 * W> simd_narrow(const simd<double, W>& lo,
                                                         const simd<double, W>& hi)
{
    simd<float, 2 * W> r;
#if PSPL_SIMD_VECTOR_EXT
    if constexpr (simd<double, W>::has_native
                  && detail::native_pack<float, W>::available) {
        using half_t = typename detail::native_pack<float, W>::type;
        const half_t a = __builtin_convertvector(lo.v, half_t);
        const half_t b = __builtin_convertvector(hi.v, half_t);
        std::memcpy(reinterpret_cast<char*>(&r.v), &a, sizeof(half_t));
        std::memcpy(reinterpret_cast<char*>(&r.v) + sizeof(half_t), &b,
                    sizeof(half_t));
        return r;
    }
#endif
    for (int l = 0; l < W; ++l) {
        r.set(l, static_cast<float>(lo[l]));
        r.set(W + l, static_cast<float>(hi[l]));
    }
    return r;
}

/// Widen the low W lanes of a 2W-wide float pack into a double pack
/// (exact: every float is representable as a double).
template <int W>
PSPL_FORCEINLINE_FUNCTION simd<double, W / 2> simd_widen_lo(const simd<float, W>& x)
{
    static_assert(W >= 2, "simd_widen_lo needs at least two float lanes");
    constexpr int H = W / 2;
    simd<double, H> r;
#if PSPL_SIMD_VECTOR_EXT
    if constexpr (simd<double, H>::has_native
                  && detail::native_pack<float, H>::available) {
        using half_t = typename detail::native_pack<float, H>::type;
        half_t a;
        std::memcpy(&a, reinterpret_cast<const char*>(&x.v), sizeof(half_t));
        r.v = __builtin_convertvector(
                a, typename detail::native_pack<double, H>::type);
        return r;
    }
#endif
    for (int l = 0; l < H; ++l) {
        r.set(l, static_cast<double>(x[l]));
    }
    return r;
}

/// Widen the high W lanes of a 2W-wide float pack into a double pack.
template <int W>
PSPL_FORCEINLINE_FUNCTION simd<double, W / 2> simd_widen_hi(const simd<float, W>& x)
{
    static_assert(W >= 2, "simd_widen_hi needs at least two float lanes");
    constexpr int H = W / 2;
    simd<double, H> r;
#if PSPL_SIMD_VECTOR_EXT
    if constexpr (simd<double, H>::has_native
                  && detail::native_pack<float, H>::available) {
        using half_t = typename detail::native_pack<float, H>::type;
        half_t a;
        std::memcpy(&a, reinterpret_cast<const char*>(&x.v) + sizeof(half_t),
                    sizeof(half_t));
        r.v = __builtin_convertvector(
                a, typename detail::native_pack<double, H>::type);
        return r;
    }
#endif
    for (int l = 0; l < H; ++l) {
        r.set(l, static_cast<double>(x[H + l]));
    }
    return r;
}

// ---------------------------------------------------------------------------
// Traits, so generic code can ask "is this a pack, and how wide?"
// ---------------------------------------------------------------------------

template <class X>
struct is_simd : std::false_type {
};
template <class T, int W>
struct is_simd<simd<T, W>> : std::true_type {
};
template <class X>
inline constexpr bool is_simd_v = is_simd<X>::value;

template <class X>
struct simd_width : std::integral_constant<int, 1> {
};
template <class T, int W>
struct simd_width<simd<T, W>> : std::integral_constant<int, W> {
};
template <class X>
inline constexpr int simd_width_v = simd_width<X>::value;

} // namespace pspl
