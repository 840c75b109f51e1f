// SSE4.2 instantiation of the SIMD kernels. CMake compiles this TU with
// -msse4.2 on x86 hosts; elsewhere it degrades to scalar. See
// block_simd_avx2.cpp for the dispatch contract.
#define MGPUSW_SIMD_NS simd_sse42

#include "sw/batch_simd_impl.hpp"
#include "sw/block_simd.hpp"
#include "sw/block_simd_lp_impl.hpp"

namespace mgpusw::sw::simd_sse42 {

const SimdBackend kBackend = {
    SimdIsa::kSse42,
    "sse42",
    kSimdBackendName,
    {&lp::run_ladder<LpI32>, &lp::run_ladder<LpI16>, &lp::run_ladder<LpI8>},
    &lp::batch_group_lp<LpI16>,
    &lp::batch_group_lp<LpI8>,
    LpI16::kLanes,
    LpI8::kLanes};

}  // namespace mgpusw::sw::simd_sse42
