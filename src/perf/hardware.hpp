// Hardware descriptors (paper Table II) and the host platform description.
//
// The paper's portability study spans Intel Icelake, NVIDIA A100 and AMD
// MI250X; this build runs on a host CPU, so the paper's specs are carried as
// data. They feed the roofline (Eq. 10) and Pennycook metric (Eq. 8)
// machinery, both for re-deriving the paper's Table V values and for
// computing measured efficiencies on the host backends.
#pragma once

#include "parallel/simd.hpp"

#include <string>
#include <vector>

namespace pspl::perf {

/// Name of the widest vector ISA *this translation unit* was compiled for.
/// Header-inline on purpose: the hot kernels are header templates,
/// instantiated -- and vectorized -- in the reporting TU itself. The build
/// compiles the library for the same ISA (PSPL_NATIVE_ARCH).
inline const char* compiled_isa_name()
{
#if defined(__AVX512F__)
    return "AVX-512";
#elif defined(__AVX2__)
    return "AVX2";
#elif defined(__AVX__)
    return "AVX";
#elif defined(__SSE2__)
    return "SSE2";
#elif defined(__ARM_NEON)
    return "NEON";
#elif defined(__VSX__)
    return "VSX";
#else
    return "scalar";
#endif
}

/// One-line ISA summary for bench headers, e.g.
/// "AVX-512 (512-bit, 8 fp64 lanes)".
inline std::string compiled_isa_summary()
{
    return std::string(compiled_isa_name()) + " ("
           + std::to_string(simd_native_bits) + "-bit, "
           + std::to_string(simd_preferred_width<double>) + " fp64 lanes)";
}

struct HardwareSpec {
    std::string name;
    double peak_gflops = 0.0; ///< FP64 peak [GFlops]
    double peak_bw_gbs = 0.0; ///< peak memory bandwidth [GB/s]

    double bf_ratio() const { return peak_bw_gbs / peak_gflops; }
};

/// Intel Xeon Gold 6346 (Table II).
HardwareSpec icelake_spec();
/// NVIDIA A100 (Table II).
HardwareSpec a100_spec();
/// AMD MI250X (Table II).
HardwareSpec mi250x_spec();
/// The paper's full platform set H = {Icelake, A100, MI250X}.
std::vector<HardwareSpec> paper_platforms();

/// Description of the machine this build runs on. Peak numbers are read
/// from PSPL_PEAK_GFLOPS / PSPL_PEAK_BW_GBS if set, otherwise conservative
/// laptop-class defaults are used (they only scale efficiency percentages,
/// not the measured times).
HardwareSpec host_spec();

/// Number of NUMA nodes on the host (sysfs), 1 when undetectable. Recorded
/// in perf reports: first-touch placement only matters when this is > 1.
int numa_node_count();

} // namespace pspl::perf
