// SIMD anti-diagonal block kernel with runtime ISA dispatch and the
// precision ladder.
//
// Every entry here is bit-identical to sw::compute_block (same border
// contract, same best cell and tie-breaking, same border_max) but updates
// one intra-block anti-diagonal of a strip per vector step. The kernel
// source (block_simd_lp_impl.hpp) is one template over a lane width —
// int32, int16 or int8 — compiled four times against the sw/simd_lp.hpp
// traits: AVX-512, AVX2, SSE4.2 and scalar translation units, each with
// its own -m flags. A cpuid check picks the strongest backend the running CPU
// supports, so one portable binary never executes an instruction the
// host lacks.
//
// The narrow widths run with *saturating* arithmetic and escalate to the
// next wider precision when a block's values might not have been exact
// (the standard trick of fast SW libraries: compute narrow, detect, rerun
// wide). The precision ladder, per block:
//
//   simd   : int32 (the exact rung)
//   simd16 : int16 -> int32
//   simd8  : int8 -> int16 -> int32
//   auto   : per column run, the int8 ladder or — where the run's
//            incoming H borders are not int8-representable — the int16
//            ladder; the scalar row kernel when the dispatched backend
//            is scalar. The registry default.
//
// Exactness argument (all results stay bit-identical to compute_block):
//  * Up-saturation can only happen to H (gains come only from `match`
//    on a diagonal step). Any saturated H equals the narrow type's max,
//    which is >= the watermark (max - match); conversely if every
//    observed H stays *below* the watermark, no addition ever
//    saturated, so every H/E/F value in the block is exact. The kernel
//    checks the per-strip running maxima against the watermark and
//    reports overflow — the ladder then re-runs the untouched block at
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
//
// The MGPUSW_SIMD environment variable ("avx512", "avx2", "sse4.2",
// "scalar") caps the dispatch at the named level or the detected one,
// whichever is weaker — useful for ablation runs and for exercising the
// fallback paths on capable hardware.
#pragma once

#include <cstdint>
#include <vector>

#include "sw/block.hpp"

namespace mgpusw::sw {

struct PairView;

/// ISA levels the dispatcher distinguishes, weakest first.
enum class SimdIsa { kScalar = 0, kSse42 = 1, kAvx2 = 2, kAvx512 = 3 };

/// The lane widths a ladder can be entered at (the registry's "simd",
/// "simd16" and "simd8").
enum class SimdWidth { kI32 = 0, kI16 = 1, kI8 = 2 };
inline constexpr int kSimdWidths = 3;

/// The precision ladder entered at `kWidth` on the dispatched backend.
/// Drop-in alternatives to compute_block; dispatch on first use.
template <SimdWidth kWidth>
BlockResult compute_block_simd(const ScoreScheme& scheme,
                               const BlockArgs& args);

/// compute_block_auto runs a tile of up to this many columns (four of
/// its 128-column granules) as one call. On the block rows of read
/// pairs split over three slices, splitting cost 2-5% at slice widths
/// of 200-384 columns, broke even at 448-640 and gained 1-6% from 768
/// on (EXPERIMENTS R-E3).
inline constexpr std::int64_t kAutoSplitCols = 512;

/// Narrowest-safe-precision ladder (registry: "auto", the default).
/// Each column run takes the int8 ladder unless one of its incoming H
/// values (top border, left border, corner) is above int8, which sends
/// it to int16. A tile wider than kAutoSplitCols marks each 128-column
/// granule high when its top border holds such a value, and runs the
/// maximal same-class runs left to right, each run's right border
/// feeding the next. A low run whose incoming left border is still
/// high peels granules off at int16 first, so the int8 pre-check
/// refuses no run for a border H value and mainly H rising past int8
/// inside a run costs a re-run. A host whose dispatched backend is scalar runs
/// compute_block. Device specs name it to ask for "the narrowest
/// precision that is safe for this block" without naming a width.
BlockResult compute_block_auto(const ScoreScheme& scheme,
                               const BlockArgs& args);

/// Highest ISA level the running CPU supports (cpuid-based; honours the
/// MGPUSW_SIMD cap). kScalar on non-x86 hosts.
[[nodiscard]] SimdIsa detected_simd_isa();

/// "avx512", "avx2", "sse4.2" or "scalar".
[[nodiscard]] const char* simd_isa_name(SimdIsa isa);

/// One backend translation unit's entry points. Pinned: the narrow
/// passes and every escalation stay on this backend, so ablation runs
/// compare ISAs and not dispatch policies.
struct SimdBackend {
  /// Level the TU targets; its code is safe to run at this level.
  SimdIsa isa;
  /// Suffix of the pinned registry names ("simd-avx2", ...).
  const char* tag;
  /// What the TU was actually compiled to: "avx512", "avx2", "sse4.2",
  /// or "scalar" (a vector TU built on a non-x86 host degrades to
  /// scalar).
  const char* compiled;
  /// The ladder entered at each width, indexed by SimdWidth.
  BlockKernelFn ladder[kSimdWidths];
  /// Inter-sequence group kernels (batch_simd_impl.hpp): `n` pairs, at
  /// most the width's lane count, in one vector sweep.
  using BatchGroupFn = void (*)(const ScoreScheme&, const PairView* pairs,
                                int n, ScoreResult* out, bool* overflow);
  BatchGroupFn batch_i16;
  BatchGroupFn batch_i8;
  int batch_i16_lanes;
  int batch_i8_lanes;
};

/// The backends this CPU can run, strongest first; the last is always
/// the scalar one, and the first is the one every dispatched entry uses.
[[nodiscard]] const std::vector<const SimdBackend*>& runnable_simd_backends();

/// The backend the dispatched entries run: runnable_simd_backends()[0].
[[nodiscard]] const SimdBackend& dispatched_simd_backend();

/// Name of what the dispatched backend was compiled to ("avx512",
/// "avx2", "sse4.2" or "scalar").
[[nodiscard]] const char* active_simd_backend();

// The per-backend tables, one per TU
// (block_simd_{avx512,avx2,sse42,scalar}.cpp).
namespace simd_avx512 {
extern const SimdBackend kBackend;
}  // namespace simd_avx512
namespace simd_avx2 {
extern const SimdBackend kBackend;
}  // namespace simd_avx2
namespace simd_sse42 {
extern const SimdBackend kBackend;
}  // namespace simd_sse42
namespace simd_scalar {
extern const SimdBackend kBackend;
}  // namespace simd_scalar

}  // namespace mgpusw::sw
