// Runtime dispatcher + precision ladder for the low-precision kernels.
//
// Mirrors block_simd.cpp: pick the strongest backend whose compiled code
// the CPU can run (honouring the MGPUSW_SIMD cap via detected_simd_isa),
// then walk the precision ladder — run narrow, and when the narrow pass
// reports a possible saturation re-run the untouched block at the next
// wider precision, counting each escalation in
// BlockResult::overflow_reruns. `auto` enters the ladder at the first
// rung that can succeed, and on a scalar-only host skips it entirely.
#include "sw/block_simd_lp.hpp"

#include <algorithm>
#include <cstring>

#include "sw/block.hpp"

namespace mgpusw::sw {

namespace {

using LpFn = BlockResult (*)(const ScoreScheme&, const BlockArgs&, bool*);

struct LpDispatch {
  LpFn i16;
  LpFn i8;
  /// False when the dispatched backend is the scalar shim, whose
  /// emulated lanes run slower than the row kernel.
  bool vector;
};

LpDispatch resolve() {
  const SimdIsa isa = detected_simd_isa();
  const bool vector = std::strcmp(active_simd_backend(), "scalar") != 0;
  if (isa >= SimdIsa::kAvx2 && simd_backend_runnable(SimdIsa::kAvx2)) {
    return {&simd_avx2::compute_block_i16_impl,
            &simd_avx2::compute_block_i8_impl, vector};
  }
  if (isa >= SimdIsa::kSse42 && simd_backend_runnable(SimdIsa::kSse42)) {
    return {&simd_sse42::compute_block_i16_impl,
            &simd_sse42::compute_block_i8_impl, vector};
  }
  return {&simd_scalar::compute_block_i16_impl,
          &simd_scalar::compute_block_i8_impl, vector};
}

const LpDispatch& lp_dispatch() {
  static const LpDispatch d = resolve();
  return d;
}

}  // namespace

BlockResult compute_block_i16(const ScoreScheme& scheme,
                              const BlockArgs& args) {
  bool overflow = false;
  BlockResult result = lp_dispatch().i16(scheme, args, &overflow);
  if (!overflow) return result;
  result = compute_block_simd(scheme, args);
  result.overflow_reruns = 1;
  return result;
}

BlockResult compute_block_i8(const ScoreScheme& scheme,
                             const BlockArgs& args) {
  bool overflow = false;
  BlockResult result = lp_dispatch().i8(scheme, args, &overflow);
  if (!overflow) return result;
  overflow = false;
  result = lp_dispatch().i16(scheme, args, &overflow);
  if (!overflow) {
    result.overflow_reruns = 1;
    return result;
  }
  result = compute_block_simd(scheme, args);
  result.overflow_reruns = 2;
  return result;
}

BlockResult compute_block_auto(const ScoreScheme& scheme,
                               const BlockArgs& args) {
  if (!lp_dispatch().vector) return compute_block(scheme, args);
  // The int8 pass's border pre-check refuses a block whose incoming H
  // values are not all int8-representable. Probing three of them — the
  // corner, the first left-border row and the last top-border column —
  // is O(1) and finds 99% of the refused blocks on a megabase homolog
  // run (the high-scoring band along the alignment), so the ladder
  // starts those at int16 instead of paying for a refused int8 pass.
  constexpr Score kInt8Max = 127;
  if (args.rows > 0 && args.cols > 0 &&
      std::max({args.corner_h, args.left_h[0],
                args.top_h[args.cols - 1]}) > kInt8Max) {
    return compute_block_i16(scheme, args);
  }
  return compute_block_i8(scheme, args);
}

}  // namespace mgpusw::sw
