// Low-precision saturating SIMD block kernels with overflow rerun.
//
// The 8x32-bit `simd` kernel wastes most of each vector register:
// megabase Smith-Waterman H values almost never need 32 bits *inside a
// block*. These kernels run the same skewed-wavefront traversal on
// narrower lanes — 16x int16 or 32x int8 per AVX2 register — with
// *saturating* arithmetic, and escalate to the next wider precision when
// a block's values might not have been exact (the standard trick of fast
// SW libraries: compute narrow, detect, rerun wide).
//
// The precision ladder (per block):
//
//   simd8  : int8 (32 lanes) -> int16 (16 lanes) -> int32 (8 lanes)
//   simd16 : int16 (16 lanes) -> int32 (8 lanes)
//   auto   : the full ladder entered at the first rung that can
//            succeed — int16 when the block's incoming H borders are
//            not int8-representable — and the scalar row kernel when the
//            dispatched backend is scalar. The registry default.
//
// Exactness argument (all results stay bit-identical to compute_block):
//  * Up-saturation can only happen to H (gains come only from `match`
//    on a diagonal step). Any saturated H equals the narrow type's max,
//    which is >= the watermark (max - match); conversely if every
//    observed H stays *below* the watermark, no addition ever
//    saturated, so every H/E/F value in the block is exact. The kernel
//    checks the per-strip running maxima against the watermark and
//    reports overflow — the wrapper then re-runs the untouched block at
//    the next precision (inputs are only converted, never overwritten,
//    until the narrow pass is known exact).
//  * Down-saturation only happens to neg-inf gap sentinels (border E/F
//    values below the narrow range are clamped on conversion). A clamped
//    chain can never win a max: the competing H-derived branch is
//    >= -gap_first (H >= 0 everywhere), while clamped values stay below
//    -(gap_first + gap_extend) by the scheme pre-check. Winners and
//    their values are therefore identical to the int32 computation.
//  * Blocks whose border H values or scoring parameters cannot be
//    represented narrowly fail a cheap O(rows+cols) pre-check and
//    escalate before any work is done.
//
// Best-cell tie-breaking is preserved exactly: strict '>' keeps the
// smallest column per lane (column offsets are tracked per segment so a
// narrow lane type can index megabase-wide blocks), segments and strips
// merge in traversal order, and the cross-row reduction walks lanes
// ascending — the same order compute_block resolves ties in.
#pragma once

#include "sw/block.hpp"
#include "sw/block_simd.hpp"

namespace mgpusw::sw {

/// int16 kernel: 16 lanes, escalates to the 8x32 simd kernel on
/// overflow. Drop-in alternative to compute_block (registry: "simd16").
BlockResult compute_block_i16(const ScoreScheme& scheme,
                              const BlockArgs& args);

/// int8 kernel: 32 lanes, escalates int8 -> int16 -> int32 (registry:
/// "simd8").
BlockResult compute_block_i8(const ScoreScheme& scheme,
                             const BlockArgs& args);

/// Narrowest-safe-precision ladder (registry: "auto", the default):
/// compute_block_i8, except that a block whose incoming H values are not
/// int8-representable (probed at the corner and two border ends) starts
/// at int16, and that a host whose dispatched backend is scalar runs
/// compute_block. Device specs name it to ask for "the narrowest
/// precision that is safe for this block" without naming a width.
BlockResult compute_block_auto(const ScoreScheme& scheme,
                               const BlockArgs& args);

// Pinned per-backend raw entry points (no cross-backend dispatch). Each
// computes the block at its width or sets *overflow and leaves every
// output array untouched. Used by the ladder wrappers and the pinned
// registry entries; callable only when the backend runs on this CPU.
namespace simd_avx2 {
BlockResult compute_block_i16_impl(const ScoreScheme&, const BlockArgs&,
                                   bool* overflow);
BlockResult compute_block_i8_impl(const ScoreScheme&, const BlockArgs&,
                                  bool* overflow);
}  // namespace simd_avx2
namespace simd_sse42 {
BlockResult compute_block_i16_impl(const ScoreScheme&, const BlockArgs&,
                                   bool* overflow);
BlockResult compute_block_i8_impl(const ScoreScheme&, const BlockArgs&,
                                  bool* overflow);
}  // namespace simd_sse42
namespace simd_scalar {
BlockResult compute_block_i16_impl(const ScoreScheme&, const BlockArgs&,
                                   bool* overflow);
BlockResult compute_block_i8_impl(const ScoreScheme&, const BlockArgs&,
                                  bool* overflow);
}  // namespace simd_scalar

// Pinned ladder entries for the kernel registry ("simd16-avx2", ...):
// the narrow pass and every escalation stay on the named backend, so
// ablation runs compare ISAs and not dispatch policies.
namespace simd_avx2 {
BlockResult compute_block_i16_pinned(const ScoreScheme&, const BlockArgs&);
BlockResult compute_block_i8_pinned(const ScoreScheme&, const BlockArgs&);
}  // namespace simd_avx2
namespace simd_sse42 {
BlockResult compute_block_i16_pinned(const ScoreScheme&, const BlockArgs&);
BlockResult compute_block_i8_pinned(const ScoreScheme&, const BlockArgs&);
}  // namespace simd_sse42
namespace simd_scalar {
BlockResult compute_block_i16_pinned(const ScoreScheme&, const BlockArgs&);
BlockResult compute_block_i8_pinned(const ScoreScheme&, const BlockArgs&);
}  // namespace simd_scalar

}  // namespace mgpusw::sw
