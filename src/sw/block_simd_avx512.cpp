// AVX-512 instantiation of the SIMD kernels. CMake compiles this TU with
// -mavx512bw -mavx512dq -mavx512vl -mavx512vbmi on x86 hosts; elsewhere
// it degrades like block_simd_avx2.cpp (see there for the dispatch
// contract).
#define MGPUSW_SIMD_NS simd_avx512

#include "sw/batch_simd_impl.hpp"
#include "sw/block_simd.hpp"
#include "sw/block_simd_lp_impl.hpp"

namespace mgpusw::sw::simd_avx512 {

const SimdBackend kBackend = {
    SimdIsa::kAvx512,
    "avx512",
    kSimdBackendName,
    {&lp::run_ladder<LpI32>, &lp::run_ladder<LpI16>, &lp::run_ladder<LpI8>},
    &lp::batch_group_lp<LpI16>,
    &lp::batch_group_lp<LpI8>,
    LpI16::kLanes,
    LpI8::kLanes};

}  // namespace mgpusw::sw::simd_avx512
