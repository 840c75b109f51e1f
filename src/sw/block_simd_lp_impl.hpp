// SIMD block kernel — templated over a lane-width trait from
// sw/simd_lp.hpp (LpI32: int32, the exact rung; LpI16: int16; LpI8:
// int8) and instantiated once per backend TU
// (block_simd_{avx512,avx2,sse42,scalar}.cpp), which define
// MGPUSW_SIMD_NS; the TU's compile flags decide which backend the code
// runs on.
//
// Traversal: horizontal strips of kL = W::kLanes query rows, skewed so
// that at step t lane r holds cell (i0 + r, t - r) — all kL cells sit on
// one intra-block anti-diagonal, the only dependence-free direction of
// the Gotoh recurrences. Lane r's inputs are then:
//
//   left  (H, E)  = lane r   at step t-1  (same lane, previous step)
//   up    (H, F)  = lane r-1 at step t-1  (one-lane shift-in)
//   diag  (H)     = lane r-1 at step t-2  (one-lane shift-in)
//
// with lane 0 fed from the strip-above rolling row (row_h/row_f). Every
// step of the strip — the triangular fill (t < kL), the rectangular
// steady state and the triangular drain (t >= cols-1) — runs kL cells
// per iteration. Lane r is active while 0 <= t-r < cols; the fill and
// drain steps carry that as a W::Mask (lane 0 is active while t < cols,
// lane r follows lane r-1 one step later). A lane that has not
// started yet holds its left-border (H, E), so at t == r it reads
// exactly its j == 0 inputs, and lane r+1's j == 0 diagonal is lane r's
// held H; a retired lane holds its j == cols-1 values, so the strip's
// right border is the lane state after the last step. The subject
// character for lane r is subject[t - r] — a reversed window, padded by
// kL sentinels on each side so the edge steps' inactive lanes load in
// bounds — so the per-cell `match or mismatch` branch becomes cmpeq +
// blend against the per-strip query vector (the 2-bit query profile
// reduces to this exact lane-select for a 4-letter alphabet, no gather
// needed).
//
// The exact rung (W::kExact) works in place on the caller's borders,
// like compute_block. The narrow rungs differ in three ways, each
// compiled in by `if constexpr` on the trait:
//
//  * All arithmetic saturates. H can only saturate upwards (gains come
//    only from `match`), so "max observed H < watermark" proves every
//    value exact; the check runs per strip and aborts the narrow pass
//    before anything is committed (int32 outputs are written only after
//    every strip passed).
//  * Borders are converted to narrow private copies on entry (H must be
//    representable — pre-checked; E/F below the narrow range clamp to
//    the narrow neg-inf, which can never win a max). Outputs convert
//    back on success.
//  * Best-cell columns are tracked as per-segment offsets (kSegSteps
//    steps per segment) and folded into full-width per-lane accumulators
//    in traversal order, so the narrow lane type can index blocks far
//    wider than its own range without changing tie-breaking. (The
//    exact rung's one segment spans any block it accepts.)
//
// Best-cell tracking and border_max fold into the loops: per-lane
// running row maxima use strict '>' (keeping the smallest column), the
// cross-row reduction walks lanes in ascending row order (keeping the
// smallest row), and the bottom-row maximum of the last strip is the
// last lane's row maximum — bit-identical to sw::compute_block,
// including ties.
//
// Rows too few for one strip — a short block, or the rows below a
// block's last strip — run one rung wider (int8 -> int16 -> int32), and
// the exact rung's own remainder goes to compute_block, the parity
// oracle, so every geometry stays exact. On AVX-512 they run the AVX2
// ladder at the same width instead (kShortRowsOnAvx2): its strips are
// half as tall, so a read's last block row stays on int8 down to 32
// rows, where one rung wider would leave it to compute_block below 16.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "base/error.hpp"
#include "sw/block.hpp"
#include "sw/block_simd.hpp"
#include "sw/simd_lp.hpp"

namespace mgpusw::sw::MGPUSW_SIMD_NS {

namespace lp {

/// The next rung up the precision ladder.
template <class W>
using Wider = std::conditional_t<std::is_same_v<W, LpI8>, LpI16, LpI32>;

/// Sentinel padding on each side of the reversed subject: the edge steps'
/// inactive lanes load up to kL-1 codes past either end of the window.
/// No base code equals the sentinel.
constexpr int kRevSubjectPad = -1;

/// Per-thread buffers, one set per width: the reversed subject, and on
/// the narrow rungs the converted borders.
template <class W>
struct Scratch {
  std::vector<typename W::Elem> row_h, row_f;          // rolling rows
  std::vector<typename W::Elem> left_h, left_e;        // strip rows
  std::vector<typename W::Elem> right_h, right_e;      // strip rows
  std::vector<typename W::Elem> rev_subject;  // cols reversed, kL pads
};

template <class W>
Scratch<W>& scratch() {
  thread_local Scratch<W> s;
  return s;
}

/// The border arrays one block's strips read and write: the caller's on
/// the exact rung, the narrow copies in Scratch otherwise.
template <class W>
struct Borders {
  using Elem = typename W::Elem;
  Elem* row_h;
  Elem* row_f;
  const Elem* left_h;
  const Elem* left_e;
  Elem* right_h;
  Elem* right_e;
};

/// The scheme must leave headroom for one gap chain below the neg-inf
/// sentinel and one match above the watermark; kMax/4 per parameter
/// guarantees both with room to spare.
template <class W>
bool scheme_fits(const ScoreScheme& scheme) {
  const int cap = W::kMax / 4;
  return scheme.match <= cap && -scheme.mismatch <= cap &&
         scheme.gap_first() <= cap && scheme.gap_extend <= cap;
}

/// One full strip of W::kLanes rows, every step on the vector path.
/// Returns false when a narrow strip's maximum H reached the saturation
/// watermark (results may be inexact — escalate); the exact rung always
/// returns true.
template <class W>
bool process_strip(const ScoreScheme& scheme, const BlockArgs& args,
                   const Borders<W>& io, const typename W::Elem* rev_subject,
                   std::int64_t i0, typename W::Elem strip_diag0,
                   bool last_strip, ScoreResult& best, Score& border_max) {
  using Elem = typename W::Elem;
  using Vec = typename W::Vec;
  constexpr int kL = W::kLanes;

  const std::int64_t cols = args.cols;

  // Raw pointers: reading them through `io` inside the loop forces a
  // reload every iteration (the row stores below could alias it).
  Elem* const row_h = io.row_h;
  Elem* const row_f = io.row_f;

  // Left border and query codes captured before the strip's right border
  // overwrites the (possibly aliased) left/right arrays.
  alignas(64) Elem lanes[kL];
  for (int r = 0; r < kL; ++r) {
    lanes[r] = static_cast<Elem>(args.query[i0 + r]);
  }
  const Vec vq = W::load(lanes);
  const Vec v_left_h = W::load(io.left_h + i0);
  const Vec v_left_e = W::load(io.left_e + i0);

  const Vec v_gap_ext = W::broadcast(static_cast<Elem>(scheme.gap_extend));
  const Vec v_gap_first =
      W::broadcast(static_cast<Elem>(scheme.gap_first()));
  const Vec v_match = W::broadcast(static_cast<Elem>(scheme.match));
  const Vec v_mismatch = W::broadcast(static_cast<Elem>(scheme.mismatch));
  const Vec v_zero = W::broadcast(0);
  const Vec v_one = W::broadcast(1);
  const Vec v_below = W::broadcast(static_cast<Elem>(-1));

  // Lane state after the previous step; not-yet-started lanes hold their
  // left border, F is only ever read from an active lane, and the
  // diagonal is carried from the previous step's up-H.
  Vec vh_prev = v_left_h;
  Vec ve_prev = v_left_e;
  Vec vf_prev = v_zero;
  alignas(4) const Elem corner[4] = {strip_diag0, 0, 0, 0};
  Vec vdiag_carry = W::shift_in(v_left_h, corner);
  typename W::Mask vactive{};

  // Full-width per-lane best accumulators; segments fold into these in
  // traversal order, so strict '>' keeps the smallest column per lane.
  int best_h[kL];
  std::int64_t best_j[kL];
  for (int r = 0; r < kL; ++r) {
    best_h[r] = -1;  // strictly below any reachable H (H >= 0)
    best_j[r] = -1;
  }

  // Segmented best tracking: toff = t - seg_base fits the lane type.
  Vec vseg_h = v_below;
  Vec vseg_t = v_zero;
  Vec vtoff = v_zero;
  std::int64_t seg_base = 0;

  const auto fold_segment = [&](std::int64_t next_base) {
    alignas(64) Elem seg_h[kL];
    alignas(64) Elem seg_t[kL];
    W::store(seg_h, vseg_h);
    W::store(seg_t, vseg_t);
    for (int r = 0; r < kL; ++r) {
      if (static_cast<int>(seg_h[r]) > best_h[r]) {
        best_h[r] = seg_h[r];
        best_j[r] = seg_base + seg_t[r] - r;
      }
    }
    vseg_h = v_below;
    vseg_t = v_zero;
    vtoff = v_zero;
    seg_base = next_base;
  };

  // One skewed step. The edge form (fill and drain) masks the lanes
  // outside the block: they keep their held state and never reach the
  // best tracking. The steady form (kL <= t <= cols-2) has every lane
  // active and skips the mask.
  const auto step = [&](auto edge, std::int64_t t) {
    constexpr bool kEdge = decltype(edge)::value;
    // Strip-above row values at column t; the last lane's writes below
    // trail the lane-0 reads by kL-1 columns, so these are still the
    // previous strip's values. Past the right edge lane 0 has retired
    // and its inputs are never used, so the edge steps feed it a zero
    // instead of loading past the row.
    const bool lane0_in_row = !kEdge || t < cols;
    const Elem* const zero = lp_detail::kLaneOff<Elem>;
    const Vec vup_h = W::shift_in(vh_prev, lane0_in_row ? row_h + t : zero);
    const Vec vup_f = W::shift_in(vf_prev, lane0_in_row ? row_f + t : zero);
    Vec ve = W::max(W::subs(ve_prev, v_gap_ext),
                    W::subs(vh_prev, v_gap_first));
    const Vec vf =
        W::max(W::subs(vup_f, v_gap_ext), W::subs(vup_h, v_gap_first));
    const Vec vs = W::load(rev_subject + (cols - 1 - t));
    const Vec vsub = W::blend(v_mismatch, v_match, W::cmpeq(vq, vs));
    // Balanced max tree: the vf/zero max folds into the slack before vf
    // arrives off shift_in, keeping the H critical path one max shorter
    // than a linear chain.
    Vec vh = W::max(W::adds(vdiag_carry, vsub), ve);
    vh = W::max(vh, W::max(vf, v_zero));

    Vec vh_seen = vh;
    if constexpr (kEdge) {
      vactive = W::shift_in_mask(vactive, lane0_in_row);
      vh_seen = W::blend(v_below, vh, vactive);
      vh = W::blend(vh_prev, vh, vactive);
      ve = W::blend(ve_prev, ve, vactive);
    }
    // The last lane writes its cell back to the rolling row once it has
    // started (it never retires before the strip's last step).
    if (!kEdge || t >= kL - 1) {
      W::store_last(row_h + (t - (kL - 1)), vh);
      W::store_last(row_f + (t - (kL - 1)), vf);
    }

    // The compare must read the pre-update vseg_h, so it runs first; the
    // running max itself is a plain max — one uop against a blend's
    // two, and no mask operand for the compiler to renormalize.
    const typename W::Mask vgt = W::cmpgt(vh_seen, vseg_h);
    vseg_h = W::max(vseg_h, vh_seen);
    vseg_t = W::blend(vseg_t, vtoff, vgt);
    vtoff = W::adds(vtoff, v_one);

    vh_prev = vh;
    ve_prev = ve;
    vf_prev = vf;
    vdiag_carry = vup_h;
  };

  // Two-level loop per phase: the segment fold fires every kSegSteps
  // steps at most, so the boundary check lives outside the hot loop
  // instead of costing a compare per step.
  std::int64_t t = 0;
  const auto run = [&](auto edge, std::int64_t t_end) {
    while (t < t_end) {
      const std::int64_t t_stop =
          std::min<std::int64_t>(t_end, seg_base + W::kSegSteps);
      for (; t < t_stop; ++t) step(edge, t);
      if (t == seg_base + W::kSegSteps) fold_segment(t);
    }
  };
  run(std::true_type{}, kL);              // fill
  run(std::false_type{}, cols - 1);       // steady state
  run(std::true_type{}, cols + kL - 1);   // drain
  fold_segment(0);

  if constexpr (!W::kExact) {
    // Saturation watermark: per-lane bests cover every H the strip
    // computed, so staying below the watermark proves no addition
    // saturated.
    int strip_max = -1;
    for (int r = 0; r < kL; ++r) strip_max = std::max(strip_max, best_h[r]);
    if (strip_max >= W::kMax - scheme.match) return false;
  }

  // Every lane has retired holding its j == cols-1 values: the strip's
  // right border, and its share of the block's border maximum.
  Elem* const right_h = io.right_h + i0;
  W::store(right_h, vh_prev);
  W::store(io.right_e + i0, ve_prev);
  for (int r = 0; r < kL; ++r) {
    border_max = std::max(border_max, static_cast<Score>(right_h[r]));
  }

  // Cross-row reduction in ascending row order: strictly larger row
  // maxima only, so earlier rows win ties exactly as in compute_block.
  for (int r = 0; r < kL; ++r) {
    if (best_h[r] > best.score) {
      best.score = best_h[r];
      best.end = CellPos{args.global_row + i0 + r,
                         args.global_col + best_j[r]};
    }
  }
  if (last_strip) {
    // The block's bottom row is this strip's last lane; its running row
    // maximum is the bottom-row border maximum (H >= 0).
    border_max =
        std::max(border_max, static_cast<Score>(best_h[kL - 1]));
  }
  return true;
}

/// Converts and pre-checks a narrow rung's borders into `s`. H values
/// must be representable (H >= 0 by the border contract); E/F below the
/// narrow range clamp to the narrow neg-inf sentinel, which can never
/// win a max. Returns false when the block cannot run at W's width.
template <class W>
bool convert_borders(const BlockArgs& args, std::int64_t strip_rows,
                     Scratch<W>& s) {
  using Elem = typename W::Elem;
  // +4 elements: shift_in may load a full 32 bits at the incoming
  // element's address (see the trait contract in simd_lp.hpp).
  s.row_h.resize(static_cast<std::size_t>(args.cols + 4));
  s.row_f.resize(static_cast<std::size_t>(args.cols + 4));
  s.left_h.resize(static_cast<std::size_t>(strip_rows));
  s.left_e.resize(static_cast<std::size_t>(strip_rows));
  s.right_h.resize(static_cast<std::size_t>(strip_rows));
  s.right_e.resize(static_cast<std::size_t>(strip_rows));

  // The range check is a separate branch-free min/max pass so both it
  // and the conversion autovectorize — with an early-exit in the loop
  // the compiler emits a scalar element-by-element walk, which at wide
  // tiles costs the narrow rungs a few percent that the exact rung (no
  // conversion) never pays.
  if (args.corner_h < 0 || args.corner_h > W::kMax) return false;
  Score h_min = 0;
  Score h_max = 0;
  Score f_max = W::kNegInf;
  for (std::int64_t j = 0; j < args.cols; ++j) {
    h_min = std::min(h_min, args.top_h[j]);
    h_max = std::max(h_max, args.top_h[j]);
    f_max = std::max(f_max, args.top_f[j]);
  }
  if (h_min < 0 || h_max > W::kMax || f_max > W::kMax) return false;
  for (std::int64_t j = 0; j < args.cols; ++j) {
    s.row_h[static_cast<std::size_t>(j)] =
        static_cast<Elem>(args.top_h[j]);
    const Score f = args.top_f[j];
    s.row_f[static_cast<std::size_t>(j)] =
        f < W::kNegInf ? W::kNegInf : static_cast<Elem>(f);
  }
  for (std::int64_t i = 0; i < strip_rows; ++i) {
    const Score h = args.left_h[i];
    const Score e = args.left_e[i];
    if (h < 0 || h > W::kMax || e > W::kMax) return false;
    s.left_h[static_cast<std::size_t>(i)] = static_cast<Elem>(h);
    s.left_e[static_cast<std::size_t>(i)] =
        e < W::kNegInf ? W::kNegInf : static_cast<Elem>(e);
  }
  return true;
}

template <class W>
BlockResult run_ladder(const ScoreScheme& scheme, const BlockArgs& args);

/// W's index in SimdBackend::ladder.
template <class W>
inline constexpr int kWidthIndex = static_cast<int>(
    W::kExact                       ? SimdWidth::kI32
    : std::is_same_v<W, LpI16>      ? SimdWidth::kI16
                                    : SimdWidth::kI8);

/// Rows too few for one strip of W's lanes: the AVX2 ladder at W's width
/// on AVX-512; elsewhere one rung wider, and below the exact rung the
/// scalar row kernel.
template <class W>
BlockResult compute_short(const ScoreScheme& scheme, const BlockArgs& args) {
  if constexpr (kShortRowsOnAvx2) {
    return simd_avx2::kBackend.ladder[kWidthIndex<W>](scheme, args);
  } else if constexpr (W::kExact) {
    return compute_block(scheme, args);
  } else {
    return run_ladder<Wider<W>>(scheme, args);
  }
}

/// Computes the block at W's width, or — on a narrow rung — sets
/// *overflow and leaves every output array untouched.
template <class W>
BlockResult compute_block_lp(const ScoreScheme& scheme,
                             const BlockArgs& args, bool* overflow) {
  using Elem = typename W::Elem;
  constexpr int kL = W::kLanes;
  *overflow = false;

  MGPUSW_CHECK(args.rows > 0 && args.cols > 0);
  MGPUSW_CHECK(args.query != nullptr && args.subject != nullptr);
  MGPUSW_CHECK(args.top_h != nullptr && args.top_f != nullptr);
  MGPUSW_CHECK(args.left_h != nullptr && args.left_e != nullptr);
  MGPUSW_CHECK(args.bottom_h != nullptr && args.bottom_f != nullptr);
  MGPUSW_CHECK(args.right_h != nullptr && args.right_e != nullptr);

  // Blocks past 2^30, where a column index would not fit the int32 lane
  // type, go to the scalar row kernel — exact at full precision, so no
  // overflow either way.
  if (args.cols > (std::int64_t{1} << 30) ||
      args.rows > (std::int64_t{1} << 30)) {
    return compute_block(scheme, args);
  }
  if (args.rows < kL) return compute_short<W>(scheme, args);

  const std::int64_t strip_rows = args.rows - args.rows % kL;
  Scratch<W>& s = scratch<W>();
  Borders<W> io{};
  if constexpr (W::kExact) {
    // Seed the rolling row state from the top border (alias-safe: the
    // outputs may be the same arrays) and work in place.
    if (args.bottom_h != args.top_h) {
      std::copy(args.top_h, args.top_h + args.cols, args.bottom_h);
    }
    if (args.bottom_f != args.top_f) {
      std::copy(args.top_f, args.top_f + args.cols, args.bottom_f);
    }
    io = {args.bottom_h, args.bottom_f, args.left_h,
          args.left_e,   args.right_h,  args.right_e};
  } else {
    if (!scheme_fits<W>(scheme) || !convert_borders<W>(args, strip_rows, s)) {
      *overflow = true;
      return {};
    }
    io = {s.row_h.data(),  s.row_f.data(),   s.left_h.data(),
          s.left_e.data(), s.right_h.data(), s.right_e.data()};
  }

  // Subject codes reversed once per block (shared by every strip): turns
  // the per-step window rotation into one vector load. kL sentinels on
  // each side keep the edge steps' loads in bounds.
  s.rev_subject.assign(static_cast<std::size_t>(args.cols + 2 * kL),
                       static_cast<Elem>(kRevSubjectPad));
  for (std::int64_t j = 0; j < args.cols; ++j) {
    s.rev_subject[static_cast<std::size_t>(kL + args.cols - 1 - j)] =
        static_cast<Elem>(args.subject[j]);
  }

  ScoreResult best;
  Score border_max = 0;

  // H(strip_first_row - 1, block left border): the corner for the first
  // strip, the saved left-border value afterwards (captured before the
  // strip's drain overwrites the possibly aliased left/right arrays).
  Elem strip_diag0 = static_cast<Elem>(args.corner_h);

  std::int64_t i0 = 0;
  for (; i0 + kL <= args.rows; i0 += kL) {
    const Elem next_strip_diag0 = io.left_h[i0 + kL - 1];
    if (!process_strip<W>(scheme, args, io, s.rev_subject.data() + kL, i0,
                          strip_diag0, /*last_strip=*/i0 + kL == args.rows,
                          best, border_max)) {
      *overflow = true;  // int32 outputs untouched: caller re-runs wide
      return {};
    }
    strip_diag0 = next_strip_diag0;
  }

  if constexpr (!W::kExact) {
    // Every strip was exact — commit the narrow state to the int32
    // borders (only now may the aliased output arrays be overwritten).
    for (std::int64_t j = 0; j < args.cols; ++j) {
      args.bottom_h[j] = s.row_h[static_cast<std::size_t>(j)];
      args.bottom_f[j] = s.row_f[static_cast<std::size_t>(j)];
    }
    for (std::int64_t i = 0; i < strip_rows; ++i) {
      args.right_h[i] = s.right_h[static_cast<std::size_t>(i)];
      args.right_e[i] = s.right_e[static_cast<std::size_t>(i)];
    }
  }

  // Remainder rows (< kL): a sub-block whose top border is the rolling
  // row, on compute_short's ladder.
  int reruns = 0;
  if (i0 < args.rows) {
    BlockArgs sub = args;
    sub.query = args.query + i0;
    sub.rows = args.rows - i0;
    sub.global_row = args.global_row + i0;
    sub.top_h = args.bottom_h;
    sub.top_f = args.bottom_f;
    sub.left_h = args.left_h + i0;
    sub.left_e = args.left_e + i0;
    sub.right_h = args.right_h + i0;
    sub.right_e = args.right_e + i0;
    sub.corner_h = strip_diag0;
    const BlockResult tail = compute_short<W>(scheme, sub);
    // Later rows never displace an equal earlier best (row-major ties).
    if (improves(tail.best, best)) best = tail.best;
    // tail.border_max covers the block's bottom row plus the remainder
    // rows' right-column values.
    border_max = std::max(border_max, tail.border_max);
    reruns = tail.overflow_reruns;
  }

  BlockResult result;
  result.best = best;
  result.border_max = border_max;
  result.overflow_reruns = reruns;
  return result;
}

/// The precision ladder entered at W: the block at W's width, re-run one
/// rung wider on each overflow (counted in overflow_reruns) until the
/// exact rung.
template <class W>
BlockResult run_ladder(const ScoreScheme& scheme, const BlockArgs& args) {
  bool overflow = false;
  BlockResult result = compute_block_lp<W>(scheme, args, &overflow);
  if constexpr (!W::kExact) {
    if (overflow) {
      result = run_ladder<Wider<W>>(scheme, args);
      ++result.overflow_reruns;
    }
  }
  return result;
}

}  // namespace lp

}  // namespace mgpusw::sw::MGPUSW_SIMD_NS
