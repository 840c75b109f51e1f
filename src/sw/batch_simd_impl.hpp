// Inter-sequence batch kernel — implementation, instantiated per backend
// TU on the sw/simd_lp.hpp width traits the block kernel uses.
//
// One pair per lane, swept row-by-row: the lanes are independent DPs, so
// every step is a full-width vector operation with no skew and no
// shift-in. Sequence codes are stored transposed (code[i * kLanes + l]
// is lane l's i-th base) so each step's query/subject characters are one
// contiguous vector load. Lanes shorter than the group maximum are
// padded with non-matching sentinel codes — see sw/batch_simd.hpp for
// why padded cells can never win the strict '>' best reduction.
//
// Saturation follows the block-kernel watermark argument: H only
// saturates upwards, any saturated lane's maximum lands at/above
// kMax - match, and per-lane maxima are tracked anyway for the result —
// so overflow detection is one compare per lane at the end.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sw/batch_simd.hpp"
#include "sw/simd_lp.hpp"

namespace mgpusw::sw::MGPUSW_SIMD_NS {

namespace lp {

/// Query lanes pad with 4, subject lanes with 5: distinct from every
/// real 2-bit code and from each other, so padded cells never match.
constexpr int kQueryPad = 4;
constexpr int kSubjectPad = 5;

template <class W>
struct BatchScratch {
  std::vector<typename W::Elem> qcodes, scodes, h_row, f_row;
};

template <class W>
BatchScratch<W>& batch_scratch() {
  thread_local BatchScratch<W> s;
  return s;
}

template <class W>
void batch_group_lp(const ScoreScheme& scheme, const PairView* pairs,
                    int n, ScoreResult* out, bool* overflow) {
  using Elem = typename W::Elem;
  using Vec = typename W::Vec;
  constexpr int kL = W::kLanes;

  std::int64_t max_q = 0;
  std::int64_t max_s = 0;
  for (int k = 0; k < n; ++k) {
    out[k] = ScoreResult{};
    overflow[k] = false;
    max_q = std::max(max_q, pairs[k].query_len);
    max_s = std::max(max_s, pairs[k].subject_len);
  }
  if (max_q == 0 || max_s == 0) return;  // every alignment is empty

  BatchScratch<W>& s = batch_scratch<W>();
  s.qcodes.resize(static_cast<std::size_t>(max_q) * kL);
  s.scodes.resize(static_cast<std::size_t>(max_s) * kL);
  s.h_row.resize(static_cast<std::size_t>(max_s) * kL);
  s.f_row.resize(static_cast<std::size_t>(max_s) * kL);

  for (std::int64_t i = 0; i < max_q; ++i) {
    for (int l = 0; l < kL; ++l) {
      s.qcodes[static_cast<std::size_t>(i) * kL + l] =
          l < n && i < pairs[l].query_len
              ? static_cast<Elem>(pairs[l].query[i])
              : static_cast<Elem>(kQueryPad);
    }
  }
  for (std::int64_t j = 0; j < max_s; ++j) {
    for (int l = 0; l < kL; ++l) {
      s.scodes[static_cast<std::size_t>(j) * kL + l] =
          l < n && j < pairs[l].subject_len
              ? static_cast<Elem>(pairs[l].subject[j])
              : static_cast<Elem>(kSubjectPad);
    }
    // Matrix-top borders: H(-1, j) = 0, F(-1, j) = no-gap sentinel.
    for (int l = 0; l < kL; ++l) {
      s.h_row[static_cast<std::size_t>(j) * kL + l] = 0;
      s.f_row[static_cast<std::size_t>(j) * kL + l] = W::kNegInf;
    }
  }

  const Vec v_gap_ext = W::broadcast(static_cast<Elem>(scheme.gap_extend));
  const Vec v_gap_first =
      W::broadcast(static_cast<Elem>(scheme.gap_first()));
  const Vec v_match = W::broadcast(static_cast<Elem>(scheme.match));
  const Vec v_mismatch = W::broadcast(static_cast<Elem>(scheme.mismatch));
  const Vec v_zero = W::broadcast(0);
  const Vec v_one = W::broadcast(1);
  const Vec v_neg_inf = W::broadcast(W::kNegInf);

  // Raw pointers: .data() calls inside the sweep would be reloaded every
  // iteration (the h_row/f_row stores could alias the vector internals).
  const Elem* const qcodes = s.qcodes.data();
  const Elem* const scodes = s.scodes.data();
  Elem* const h_row = s.h_row.data();
  Elem* const f_row = s.f_row.data();

  // Per-lane best, full width; row-major traversal + strict '>' keeps
  // the smallest-row-then-column end cell, like compute_block.
  int best_h[kL] = {};
  std::int64_t best_i[kL];
  std::int64_t best_j[kL];
  for (int l = 0; l < kL; ++l) best_i[l] = best_j[l] = -1;

  for (std::int64_t i = 0; i < max_q; ++i) {
    const Vec vq = W::load(qcodes + i * kL);
    Vec vh_left = v_zero;   // H(i, j-1)
    Vec ve_left = v_neg_inf;  // E(i, j-1); E(i,-1) can't extend a gap
    Vec vdiag = v_zero;     // H(i-1, j-1)

    // Column offsets within the current segment fit the lane type;
    // segments fold into the full-width per-lane best in column order.
    Vec vseg_h = v_zero;
    Vec vseg_j = v_zero;
    Vec vjoff = v_zero;
    std::int64_t seg_base = 0;

    const auto fold_segment = [&](std::int64_t next_base) {
      alignas(64) Elem seg_h[kL];
      alignas(64) Elem seg_j[kL];
      W::store(seg_h, vseg_h);
      W::store(seg_j, vseg_j);
      for (int l = 0; l < kL; ++l) {
        if (static_cast<int>(seg_h[l]) > best_h[l]) {
          best_h[l] = seg_h[l];
          best_i[l] = i;
          best_j[l] = seg_base + seg_j[l];
        }
      }
      vseg_h = v_zero;
      vseg_j = v_zero;
      vjoff = v_zero;
      seg_base = next_base;
    };

    for (std::int64_t j = 0; j < max_s; ++j) {
      if (j - seg_base == W::kSegSteps) fold_segment(j);
      const Vec vup_h = W::load(h_row + j * kL);
      const Vec vup_f = W::load(f_row + j * kL);
      const Vec ve = W::max(W::subs(ve_left, v_gap_ext),
                            W::subs(vh_left, v_gap_first));
      const Vec vf =
          W::max(W::subs(vup_f, v_gap_ext), W::subs(vup_h, v_gap_first));
      const Vec vs = W::load(scodes + j * kL);
      const Vec vsub = W::blend(v_mismatch, v_match, W::cmpeq(vq, vs));
      Vec vh = W::adds(vdiag, vsub);
      vh = W::max(vh, ve);
      vh = W::max(vh, vf);
      vh = W::max(vh, v_zero);

      vdiag = vup_h;  // H(i-1, j) is next column's diagonal
      W::store(h_row + j * kL, vh);
      W::store(f_row + j * kL, vf);

      const typename W::Mask vgt = W::cmpgt(vh, vseg_h);
      vseg_h = W::blend(vseg_h, vh, vgt);
      vseg_j = W::blend(vseg_j, vjoff, vgt);
      vjoff = W::adds(vjoff, v_one);

      vh_left = vh;
      ve_left = ve;
    }
    fold_segment(0);
  }

  const int watermark = W::kMax - scheme.match;
  for (int k = 0; k < n; ++k) {
    if (best_h[k] >= watermark) {
      overflow[k] = true;  // possibly saturated: recompute wider
      continue;
    }
    out[k].score = best_h[k];
    if (best_h[k] > 0) out[k].end = CellPos{best_i[k], best_j[k]};
  }
}

}  // namespace lp

}  // namespace mgpusw::sw::MGPUSW_SIMD_NS
