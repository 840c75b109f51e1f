// AVX2 instantiation of the SIMD kernels. CMake compiles this TU with
// -mavx2 on x86 hosts; elsewhere the traits silently degrade to the
// strongest backend the compiler offers (ultimately scalar), which keeps
// the table defined and correct on every platform. The table's
// `compiled` field reports what the TU was actually compiled for, so the
// dispatcher never advertises a vector ISA it does not run.
#define MGPUSW_SIMD_NS simd_avx2

#include "sw/batch_simd_impl.hpp"
#include "sw/block_simd.hpp"
#include "sw/block_simd_lp_impl.hpp"

namespace mgpusw::sw::simd_avx2 {

const SimdBackend kBackend = {
    SimdIsa::kAvx2,
    "avx2",
    kSimdBackendName,
    {&lp::run_ladder<LpI32>, &lp::run_ladder<LpI16>, &lp::run_ladder<LpI8>},
    &lp::batch_group_lp<LpI16>,
    &lp::batch_group_lp<LpI8>,
    LpI16::kLanes,
    LpI8::kLanes};

}  // namespace mgpusw::sw::simd_avx2
