// Low-precision SIMD block kernel — templated over a width trait from
// sw/simd_lp.hpp (LpI16: 16x int16, LpI8: 32x int8) and instantiated
// once per backend TU, exactly like block_simd_impl.hpp (which must be
// included first: the escalation entry points call the backend's int32
// kernel).
//
// Traversal is the same skewed anti-diagonal strip walk as the 8x32
// kernel; see block_simd_impl.hpp for the lane geometry. What differs:
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
//    wider than its own range without changing tie-breaking.
#pragma once

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "base/error.hpp"
#include "sw/block.hpp"
#include "sw/block_simd_lp.hpp"
#include "sw/simd_lp.hpp"

namespace mgpusw::sw::MGPUSW_SIMD_NS {

namespace lp {

/// Per-thread conversion buffers, one set per width.
template <class W>
struct Scratch {
  std::vector<typename W::Elem> row_h, row_f;          // rolling rows (cols)
  std::vector<typename W::Elem> left_h, left_e;        // strip rows
  std::vector<typename W::Elem> right_h, right_e;      // strip rows
  std::vector<typename W::Elem> rev_subject;  // cols reversed, kL pads
};

template <class W>
Scratch<W>& scratch() {
  thread_local Scratch<W> s;
  return s;
}

/// The scheme must leave headroom for one gap chain below the neg-inf
/// sentinel and one match above the watermark; kMax/4 per parameter
/// guarantees both with room to spare.
template <class W>
bool scheme_fits(const ScoreScheme& scheme) {
  const int cap = W::kMax / 4;
  return scheme.match <= cap && -scheme.mismatch <= cap &&
         scheme.gap_first() <= cap && scheme.gap_extend <= cap;
}

/// Lane-mask shift-in sources: lane 0 is active (all-ones) or retired.
/// Four elements each, because shift_in may read 4 bytes at its source.
template <class W>
inline constexpr typename W::Elem kLaneOn[4] = {-1, -1, -1, -1};
template <class W>
inline constexpr typename W::Elem kLaneOff[4] = {0, 0, 0, 0};

/// One full strip of W::kLanes rows, every step on the vector path (the
/// lane geometry and edge masking are block_simd_impl.hpp's). Returns
/// false when the strip's maximum H reached the saturation watermark
/// (results may be inexact — escalate). All writes go to the narrow
/// scratch arrays only.
template <class W>
bool process_strip(const ScoreScheme& scheme, const BlockArgs& args,
                   Scratch<W>& s, std::int64_t i0,
                   typename W::Elem strip_diag0, bool last_strip,
                   ScoreResult& best, Score& border_max) {
  using Elem = typename W::Elem;
  using Vec = typename W::Vec;
  constexpr int kL = W::kLanes;

  const std::int64_t cols = args.cols;
  const int watermark = W::kMax - scheme.match;

  // Raw pointers: calling .data() inside the loop forces a reload every
  // iteration (the row stores below could alias the vector's internals).
  Elem* const row_h = s.row_h.data();
  Elem* const row_f = s.row_f.data();
  const Elem* const rev_subject = s.rev_subject.data() + kL;

  alignas(32) Elem lanes[kL];
  for (int r = 0; r < kL; ++r) {
    lanes[r] = static_cast<Elem>(args.query[i0 + r]);
  }
  const Vec vq = W::load(lanes);
  const Vec v_left_h = W::load(s.left_h.data() + i0);
  const Vec v_left_e = W::load(s.left_e.data() + i0);

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
  Vec vactive = v_zero;

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
    alignas(32) Elem seg_h[kL];
    alignas(32) Elem seg_t[kL];
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

  // One skewed step; the edge form masks the lanes outside the block
  // (see block_simd_impl.hpp). The rolling row has kL+4 elements of
  // runway, so a retired lane 0 may load past the row.
  const auto step = [&](auto edge, std::int64_t t) {
    constexpr bool kEdge = decltype(edge)::value;
    const Vec vup_h = W::shift_in(vh_prev, row_h + t);
    const Vec vup_f = W::shift_in(vf_prev, row_f + t);
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
      vactive =
          W::shift_in(vactive, t < cols ? kLaneOn<W> : kLaneOff<W>);
      vh_seen = W::blend(v_below, vh, vactive);
      vh = W::blend(vh_prev, vh, vactive);
      ve = W::blend(ve_prev, ve, vactive);
    }
    if (!kEdge || t >= kL - 1) {
      row_h[t - (kL - 1)] = W::extract_last(vh);
      row_f[t - (kL - 1)] = W::extract_last(vf);
    }

    // The compare must read the pre-update vseg_h, so it runs first; the
    // running max itself is a plain max — one uop against a blend's
    // two, and no mask operand for the compiler to renormalize.
    const Vec vgt = W::cmpgt(vh_seen, vseg_h);
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

  // Saturation watermark: per-lane bests cover every H the strip
  // computed, so staying below the watermark proves no addition
  // saturated.
  int strip_max = -1;
  for (int r = 0; r < kL; ++r) strip_max = std::max(strip_max, best_h[r]);
  if (strip_max >= watermark) return false;

  // Every lane has retired holding its j == cols-1 values: the strip's
  // right border.
  Elem* const right_h = s.right_h.data() + i0;
  W::store(right_h, vh_prev);
  W::store(s.right_e.data() + i0, ve_prev);
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
    border_max =
        std::max(border_max, static_cast<Score>(best_h[kL - 1]));
  }
  return true;
}

template <class W>
BlockResult compute_block_lp(const ScoreScheme& scheme,
                             const BlockArgs& args, bool* overflow);

/// Rows too few for one strip of W's lanes — a short block, or the rows
/// below a block's last strip — go to the next narrower lane count
/// (int8 -> int16 -> int32), whose own remainder ends at compute_block.
/// An int16 overflow here re-runs those rows at int32 and counts as a
/// rerun.
template <class W>
BlockResult compute_short(const ScoreScheme& scheme, const BlockArgs& args) {
  if constexpr (std::is_same_v<W, LpI8>) {
    bool overflow = false;
    BlockResult result = compute_block_lp<LpI16>(scheme, args, &overflow);
    if (!overflow) return result;
    result = compute_block_simd_impl(scheme, args);
    result.overflow_reruns = 1;
    return result;
  } else {
    return compute_block_simd_impl(scheme, args);
  }
}

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

  // Blocks past the int32 kernel's 2^30 limit go to the scalar row
  // kernel — exact at full precision, so no overflow either way.
  if (args.cols > (std::int64_t{1} << 30) ||
      args.rows > (std::int64_t{1} << 30)) {
    return compute_block(scheme, args);
  }
  if (args.rows < kL) return compute_short<W>(scheme, args);

  if (!scheme_fits<W>(scheme)) {
    *overflow = true;
    return {};
  }

  const std::int64_t strip_rows = args.rows - args.rows % kL;
  Scratch<W>& s = scratch<W>();
  // +kL+4 elements: the drain's retired lane 0 keeps loading past the
  // row, and shift_in may load a full 32 bits at the incoming element's
  // address (see the trait contract in simd_lp.hpp).
  s.row_h.resize(static_cast<std::size_t>(args.cols + kL + 4));
  s.row_f.resize(static_cast<std::size_t>(args.cols + kL + 4));
  s.rev_subject.assign(static_cast<std::size_t>(args.cols + 2 * kL),
                       static_cast<Elem>(kRevSubjectPad));
  s.left_h.resize(static_cast<std::size_t>(strip_rows));
  s.left_e.resize(static_cast<std::size_t>(strip_rows));
  s.right_h.resize(static_cast<std::size_t>(strip_rows));
  s.right_e.resize(static_cast<std::size_t>(strip_rows));

  // Convert + pre-check the borders. H values must be representable
  // (H >= 0 by the border contract); E/F below the narrow range clamp
  // to the narrow neg-inf sentinel, which can never win a max. The
  // range check is a separate branch-free min/max pass so both it and
  // the conversion autovectorize — with an early-exit in the loop the
  // compiler emits a scalar element-by-element walk, which at wide
  // tiles costs the narrow kernels a few percent that the int32 kernel
  // (no conversion) never pays.
  if (args.corner_h < 0 || args.corner_h > W::kMax) {
    *overflow = true;
    return {};
  }
  Score h_min = 0;
  Score h_max = 0;
  Score f_max = W::kNegInf;
  for (std::int64_t j = 0; j < args.cols; ++j) {
    h_min = std::min(h_min, args.top_h[j]);
    h_max = std::max(h_max, args.top_h[j]);
    f_max = std::max(f_max, args.top_f[j]);
  }
  if (h_min < 0 || h_max > W::kMax || f_max > W::kMax) {
    *overflow = true;
    return {};
  }
  for (std::int64_t j = 0; j < args.cols; ++j) {
    s.row_h[static_cast<std::size_t>(j)] =
        static_cast<Elem>(args.top_h[j]);
    const Score f = args.top_f[j];
    s.row_f[static_cast<std::size_t>(j)] =
        f < W::kNegInf ? W::kNegInf : static_cast<Elem>(f);
  }
  for (std::int64_t j = 0; j < args.cols; ++j) {
    s.rev_subject[static_cast<std::size_t>(kL + args.cols - 1 - j)] =
        static_cast<Elem>(args.subject[j]);
  }
  for (std::int64_t i = 0; i < strip_rows; ++i) {
    const Score h = args.left_h[i];
    const Score e = args.left_e[i];
    if (h < 0 || h > W::kMax || e > W::kMax) {
      *overflow = true;
      return {};
    }
    s.left_h[static_cast<std::size_t>(i)] = static_cast<Elem>(h);
    s.left_e[static_cast<std::size_t>(i)] =
        e < W::kNegInf ? W::kNegInf : static_cast<Elem>(e);
  }

  ScoreResult best;
  Score border_max = 0;
  Elem strip_diag0 = static_cast<Elem>(args.corner_h);

  std::int64_t i0 = 0;
  for (; i0 + kL <= args.rows; i0 += kL) {
    const Elem next_strip_diag0 =
        s.left_h[static_cast<std::size_t>(i0) + kL - 1];
    if (!process_strip<W>(scheme, args, s, i0, strip_diag0,
                          /*last_strip=*/i0 + kL == args.rows, best,
                          border_max)) {
      *overflow = true;  // int32 outputs untouched: caller re-runs wide
      return {};
    }
    strip_diag0 = next_strip_diag0;
  }

  // Every strip was exact — commit the narrow state to the int32
  // borders (only now may the aliased output arrays be overwritten).
  // The remainder sub-block's corner is left_h[i0-1], which right_h may
  // alias (the border contract allows outputs to alias inputs), so it
  // must be read before the commit clobbers it.
  const Score tail_corner =
      i0 < args.rows ? args.left_h[strip_rows - 1] : 0;
  for (std::int64_t j = 0; j < args.cols; ++j) {
    args.bottom_h[j] = s.row_h[static_cast<std::size_t>(j)];
    args.bottom_f[j] = s.row_f[static_cast<std::size_t>(j)];
  }
  for (std::int64_t i = 0; i < strip_rows; ++i) {
    args.right_h[i] = s.right_h[static_cast<std::size_t>(i)];
    args.right_e[i] = s.right_e[static_cast<std::size_t>(i)];
  }

  // Remainder rows (< kL): a sub-block whose top border is the
  // committed rolling row, on the next narrower lane count.
  int reruns = 0;
  if (i0 < args.rows) {
    BlockArgs sub = args;
    sub.query = args.query + i0;
    sub.rows = args.rows - i0;
    sub.global_row = args.global_row + i0;
    sub.top_h = args.bottom_h;
    sub.top_f = args.bottom_f;
    sub.bottom_h = args.bottom_h;
    sub.bottom_f = args.bottom_f;
    sub.left_h = args.left_h + i0;
    sub.left_e = args.left_e + i0;
    sub.right_h = args.right_h + i0;
    sub.right_e = args.right_e + i0;
    sub.corner_h = tail_corner;
    const BlockResult tail = compute_short<W>(scheme, sub);
    if (improves(tail.best, best)) best = tail.best;
    border_max = std::max(border_max, tail.border_max);
    reruns = tail.overflow_reruns;
  }

  BlockResult result;
  result.best = best;
  result.border_max = border_max;
  result.overflow_reruns = reruns;
  return result;
}

}  // namespace lp

BlockResult compute_block_i16_impl(const ScoreScheme& scheme,
                                   const BlockArgs& args, bool* overflow) {
  return lp::compute_block_lp<LpI16>(scheme, args, overflow);
}

BlockResult compute_block_i8_impl(const ScoreScheme& scheme,
                                  const BlockArgs& args, bool* overflow) {
  return lp::compute_block_lp<LpI8>(scheme, args, overflow);
}

// Pinned ladders: every escalation stays on this TU's backend, so the
// pinned registry entries ablate ISAs without mixing in dispatch policy.
BlockResult compute_block_i16_pinned(const ScoreScheme& scheme,
                                     const BlockArgs& args) {
  bool overflow = false;
  BlockResult result = compute_block_i16_impl(scheme, args, &overflow);
  if (!overflow) return result;
  result = compute_block_simd_impl(scheme, args);
  result.overflow_reruns = 1;
  return result;
}

BlockResult compute_block_i8_pinned(const ScoreScheme& scheme,
                                    const BlockArgs& args) {
  bool overflow = false;
  BlockResult result = compute_block_i8_impl(scheme, args, &overflow);
  if (!overflow) return result;
  overflow = false;
  result = compute_block_i16_impl(scheme, args, &overflow);
  if (!overflow) {
    result.overflow_reruns = 1;
    return result;
  }
  result = compute_block_simd_impl(scheme, args);
  result.overflow_reruns = 2;
  return result;
}

}  // namespace mgpusw::sw::MGPUSW_SIMD_NS
