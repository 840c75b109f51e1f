// SIMD block kernel — the implementation, instantiated once per backend.
//
// Included exactly once by each backend translation unit
// (block_simd_{avx2,sse42,scalar}.cpp) after defining MGPUSW_SIMD_NS; the
// TU's compile flags decide which sw/simd.hpp backend the code runs on.
//
// Traversal: horizontal strips of kSimdLanes (8) query rows, skewed so
// that at step t lane r holds cell (i0 + r, t - r) — all eight cells sit
// on one intra-block anti-diagonal, the only dependence-free direction of
// the Gotoh recurrences. Lane r's inputs are then:
//
//   left  (H, E)  = lane r   at step t-1  (same lane, previous step)
//   up    (H, F)  = lane r-1 at step t-1  (one-lane shift-in)
//   diag  (H)     = lane r-1 at step t-2  (one-lane shift-in)
//
// with lane 0 fed from the strip-above rolling row (row_h/row_f). Every
// step of the strip — the triangular fill (t < 8), the rectangular
// steady state and the triangular drain (t >= cols-1) — runs eight cells
// per iteration on the Vec8 shim. Lane r is active while 0 <= t-r < cols;
// the fill and drain steps carry that as a lane mask (lane 0 is active
// while t < cols, lane r follows lane r-1 one step later). A lane that
// has not started yet holds its left-border (H, E), so at t == r it
// reads exactly its j == 0 inputs, and lane r+1's j == 0 diagonal is
// lane r's held H; a retired lane holds its j == cols-1 values, so the
// strip's right border is the lane state after the last step. The
// subject character for lane r is subject[t - r] — a reversed window,
// padded by kL sentinels on each side so the edge steps' inactive lanes
// load in bounds — so the per-cell `match or mismatch` branch becomes
// cmpeq + blend against the per-strip query vector (the 2-bit query
// profile reduces to this exact lane-select for a 4-letter alphabet, no
// gather needed).
//
// Best-cell tracking and border_max fold into the loops: per-lane running
// row maxima use strict '>' (keeping the smallest column), the cross-row
// reduction walks lanes in ascending row order (keeping the smallest
// row), and the bottom-row maximum of the last strip is the last lane's
// row maximum — bit-identical to sw::compute_block, including ties.
//
// Geometry guard: blocks shorter than one strip, and the remainder rows
// (< 8) below the last full strip, delegate to compute_block, which is
// the parity oracle, so every geometry stays exact.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "base/error.hpp"
#include "sw/block.hpp"
#include "sw/simd.hpp"

namespace mgpusw::sw::MGPUSW_SIMD_NS {

namespace {

constexpr int kL = kSimdLanes;

/// Sentinel padding on each side of the reversed subject: the edge steps'
/// inactive lanes load up to kL-1 codes past either end of the window.
/// No base code equals the sentinel.
constexpr Score kRevSubjectPad = -1;

/// One full 8-row strip, every step on the vector path.
/// rev_subject[k] == subject[cols-1-k] for 0 <= k < cols, with kL
/// readable sentinels on each side, so lane r's subject[t-r] is one
/// plain vector load at every step.
void process_strip(const ScoreScheme& scheme, const BlockArgs& args,
                   const Score* rev_subject, std::int64_t i0, Score* row_h,
                   Score* row_f, Score strip_diag0, bool last_strip,
                   ScoreResult& best, Score& border_max) {
  const std::int64_t cols = args.cols;

  // Left border and query codes captured before the strip's right border
  // overwrites the (possibly aliased) left/right arrays.
  const Vec8 v_left_h = v_load(args.left_h + i0);
  const Vec8 v_left_e = v_load(args.left_e + i0);
  alignas(32) Score lanes[kL];
  for (int r = 0; r < kL; ++r) {
    lanes[r] = static_cast<Score>(args.query[i0 + r]);
  }
  const Vec8 vq = v_load(lanes);
  for (int r = 0; r < kL; ++r) lanes[r] = -1 - r;  // j at step -1
  Vec8 vj = v_load(lanes);

  const Vec8 v_gap_ext = v_broadcast(scheme.gap_extend);
  const Vec8 v_gap_first = v_broadcast(scheme.gap_first());
  const Vec8 v_match = v_broadcast(scheme.match);
  const Vec8 v_mismatch = v_broadcast(scheme.mismatch);
  const Vec8 v_zero = v_broadcast(0);
  const Vec8 v_one = v_broadcast(1);
  const Vec8 v_below = v_broadcast(-1);  // strictly below any H (H >= 0)

  // Lane state after the previous step. Not-yet-started lanes hold their
  // left border; F is only ever read from an active lane.
  Vec8 vh_prev = v_left_h;
  Vec8 ve_prev = v_left_e;
  Vec8 vf_prev = v_zero;
  // diag(t) equals up_h(t-1), so the diagonal shift-in is carried from
  // the previous step; lane 0's first diagonal is the strip corner.
  Vec8 vdiag_carry = v_shift_in(v_left_h, strip_diag0);
  Vec8 vactive = v_zero;  // all-ones on lanes with 0 <= t-r < cols
  Vec8 vbest_h = v_below;
  Vec8 vbest_j = v_below;

  // One skewed step. The edge form (fill and drain) masks the lanes
  // outside the block: they keep their held state and never reach the
  // best tracking. The steady form (kL <= t <= cols-2) has every lane
  // active and skips the mask.
  const auto step = [&](auto edge, std::int64_t t) {
    constexpr bool kEdge = decltype(edge)::value;
    // Lane 0 sits at column t; past the right edge it has retired and
    // its inputs are never used, so it must not load past the row.
    const bool lane0_active = !kEdge || t < cols;
    // Strip-above row values at column t; the last lane's writes below
    // trail the lane-0 reads by kL-1 columns, so these are still the
    // previous strip's values.
    const Vec8 vup_h = v_shift_in(vh_prev, lane0_active ? row_h[t] : 0);
    const Vec8 vup_f = v_shift_in(vf_prev, lane0_active ? row_f[t] : 0);
    Vec8 ve = v_max(v_sub(ve_prev, v_gap_ext), v_sub(vh_prev, v_gap_first));
    const Vec8 vf =
        v_max(v_sub(vup_f, v_gap_ext), v_sub(vup_h, v_gap_first));
    const Vec8 vs = v_load(rev_subject + (cols - 1 - t));
    const Vec8 vsub = v_blend(v_mismatch, v_match, v_cmpeq(vq, vs));
    Vec8 vh = v_add(vdiag_carry, vsub);
    vh = v_max(vh, ve);
    vh = v_max(vh, vf);
    vh = v_max(vh, v_zero);
    vj = v_add(vj, v_one);

    Vec8 vh_seen = vh;
    if constexpr (kEdge) {
      vactive = v_shift_in(vactive, lane0_active ? -1 : 0);
      vh_seen = v_blend(v_below, vh, vactive);
      vh = v_blend(vh_prev, vh, vactive);
      ve = v_blend(ve_prev, ve, vactive);
    }
    // The last lane writes its cell back to the rolling row once it has
    // started (it never retires before the strip's last step).
    if (!kEdge || t >= kL - 1) {
      row_h[t - (kL - 1)] = v_extract_last(vh);
      row_f[t - (kL - 1)] = v_extract_last(vf);
    }

    // Best tracking: the compare reads the pre-update running max, then
    // the max itself is a plain max — one uop against a blend's two on
    // the shuffle-starved front end. Only the column needs the blend.
    const Vec8 vgt = v_cmpgt(vh_seen, vbest_h);
    vbest_h = v_max(vbest_h, vh_seen);
    vbest_j = v_blend(vbest_j, vj, vgt);

    vh_prev = vh;
    ve_prev = ve;
    vf_prev = vf;
    vdiag_carry = vup_h;
  };

  std::int64_t t = 0;
  for (; t < kL; ++t) step(std::true_type{}, t);
  for (; t <= cols - 2; ++t) step(std::false_type{}, t);
  for (; t <= cols + kL - 2; ++t) step(std::true_type{}, t);

  // Every lane has retired holding its j == cols-1 values: the strip's
  // right border, and its share of the block's border maximum.
  v_store(args.right_h + i0, vh_prev);
  v_store(args.right_e + i0, ve_prev);
  for (int r = 0; r < kL; ++r) {
    border_max = std::max(border_max, args.right_h[i0 + r]);
  }

  // Cross-row reduction in ascending row order: strictly larger row
  // maxima only, so earlier rows win ties exactly as in compute_block.
  alignas(32) Score best_h[kL];
  alignas(32) Score best_j[kL];
  v_store(best_h, vbest_h);
  v_store(best_j, vbest_j);
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
    border_max = std::max(border_max, best_h[kL - 1]);
  }
}

}  // namespace

BlockResult compute_block_simd_impl(const ScoreScheme& scheme,
                                    const BlockArgs& args) {
  MGPUSW_CHECK(args.rows > 0 && args.cols > 0);
  MGPUSW_CHECK(args.query != nullptr && args.subject != nullptr);
  MGPUSW_CHECK(args.top_h != nullptr && args.top_f != nullptr);
  MGPUSW_CHECK(args.left_h != nullptr && args.left_e != nullptr);
  MGPUSW_CHECK(args.bottom_h != nullptr && args.bottom_f != nullptr);
  MGPUSW_CHECK(args.right_h != nullptr && args.right_e != nullptr);

  // Blocks shorter than one strip (and the pathological > 2^30 case
  // where a column index would not fit the int32 lane type) delegate to
  // the scalar row kernel — the parity oracle.
  if (args.rows < kL || args.cols > (std::int64_t{1} << 30) ||
      args.rows > (std::int64_t{1} << 30)) {
    return compute_block(scheme, args);
  }

  // Seed the rolling row state from the top border (alias-safe: the
  // outputs may be the same arrays).
  if (args.bottom_h != args.top_h) {
    std::copy(args.top_h, args.top_h + args.cols, args.bottom_h);
  }
  if (args.bottom_f != args.top_f) {
    std::copy(args.top_f, args.top_f + args.cols, args.bottom_f);
  }
  Score* const row_h = args.bottom_h;
  Score* const row_f = args.bottom_f;

  // Subject codes reversed once per block (shared by every strip): turns
  // the per-step window rotation into one vector load. kL sentinels on
  // each side keep the edge steps' loads in bounds.
  thread_local std::vector<Score> rev_subject;
  rev_subject.assign(static_cast<std::size_t>(args.cols + 2 * kL),
                     kRevSubjectPad);
  for (std::int64_t j = 0; j < args.cols; ++j) {
    rev_subject[static_cast<std::size_t>(kL + args.cols - 1 - j)] =
        static_cast<Score>(args.subject[j]);
  }

  ScoreResult best;
  Score border_max = 0;

  // H(strip_first_row - 1, block left border): the corner for the first
  // strip, the saved original left-border value afterwards (captured
  // before the strip's drain overwrites the aliased left/right arrays).
  Score strip_diag0 = args.corner_h;

  std::int64_t i0 = 0;
  for (; i0 + kL <= args.rows; i0 += kL) {
    const Score next_strip_diag0 = args.left_h[i0 + kL - 1];
    process_strip(scheme, args, rev_subject.data() + kL, i0, row_h, row_f,
                  strip_diag0, /*last_strip=*/i0 + kL == args.rows, best,
                  border_max);
    strip_diag0 = next_strip_diag0;
  }

  // Remainder rows (< kL): delegate the final short strip to the scalar
  // kernel on a sub-block whose top border is the current rolling row.
  if (i0 < args.rows) {
    BlockArgs sub = args;
    sub.query = args.query + i0;
    sub.rows = args.rows - i0;
    sub.global_row = args.global_row + i0;
    sub.top_h = row_h;
    sub.top_f = row_f;
    sub.bottom_h = row_h;
    sub.bottom_f = row_f;
    sub.left_h = args.left_h + i0;
    sub.left_e = args.left_e + i0;
    sub.right_h = args.right_h + i0;
    sub.right_e = args.right_e + i0;
    sub.corner_h = strip_diag0;
    const BlockResult tail = compute_block(scheme, sub);
    // Later rows never displace an equal earlier best (row-major ties).
    if (improves(tail.best, best)) best = tail.best;
    // tail.border_max covers the block's bottom row plus the remainder
    // rows' right-column values.
    border_max = std::max(border_max, tail.border_max);
  }

  BlockResult result;
  result.best = best;
  result.border_max = border_max;
  return result;
}

}  // namespace mgpusw::sw::MGPUSW_SIMD_NS
