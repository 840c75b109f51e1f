// Scalar instantiation of the SIMD kernels: the guaranteed fallback the
// dispatcher can always run, on any CPU. MGPUSW_SIMD_FORCE_SCALAR pins
// the scalar traits even if this TU's compile flags would allow a vector
// backend, so the fallback path is genuinely exercised (and
// parity-tested) on vector-capable build hosts too.
#define MGPUSW_SIMD_FORCE_SCALAR 1
#define MGPUSW_SIMD_NS simd_scalar

#include "sw/batch_simd_impl.hpp"
#include "sw/block_simd.hpp"
#include "sw/block_simd_lp_impl.hpp"

namespace mgpusw::sw::simd_scalar {

const SimdBackend kBackend = {
    SimdIsa::kScalar,
    "scalar",
    kSimdBackendName,
    {&lp::run_ladder<LpI32>, &lp::run_ladder<LpI16>, &lp::run_ladder<LpI8>},
    &lp::batch_group_lp<LpI16>,
    &lp::batch_group_lp<LpI8>,
    LpI16::kLanes,
    LpI8::kLanes};

}  // namespace mgpusw::sw::simd_scalar
