// Batch alignment driver: grouping and the precision ladder, on the
// dispatched backend's group kernels.
//
// Pairs are sorted by dominant length (descending) so each vector group
// packs similarly-sized alignments and pads little, then swept through
// the narrow inter-sequence kernels. Lanes that hit the saturation
// watermark are collected and re-run at the next wider precision —
// int8 -> int16 -> exact full-precision per-pair fallback — and results
// are scattered back to input order at the end.
#include "sw/batch_simd.hpp"

#include <algorithm>
#include <cstddef>
#include <numeric>

#include "base/error.hpp"
#include "sw/block.hpp"
#include "sw/block_simd.hpp"

namespace mgpusw::sw {

namespace {

/// Largest lane count any backend runs (AVX-512 int8); sizes group
/// scratch, and run_tier refuses a table that exceeds it.
constexpr int kMaxLanes = 64;
constexpr int kI16Max = 32767;
constexpr int kI8Max = 127;

/// Same headroom pre-check as the narrow block kernels: every scoring
/// parameter at most a quarter of the lane maximum.
bool scheme_fits(const ScoreScheme& scheme, int lane_max) {
  const int cap = lane_max / 4;
  return scheme.match <= cap && -scheme.mismatch <= cap &&
         scheme.gap_first() <= cap && scheme.gap_extend <= cap;
}

/// Exact per-pair score: one full-width block with matrix-edge borders —
/// the same computation linear_score performs.
ScoreResult exact_pair_score(const ScoreScheme& scheme, const PairView& p) {
  if (p.query_len == 0 || p.subject_len == 0) return {};
  std::vector<Score> row_h(static_cast<std::size_t>(p.subject_len), 0);
  std::vector<Score> row_f(static_cast<std::size_t>(p.subject_len), kNegInf);
  std::vector<Score> col_h(static_cast<std::size_t>(p.query_len), 0);
  std::vector<Score> col_e(static_cast<std::size_t>(p.query_len), kNegInf);
  BlockArgs args;
  args.query = p.query;
  args.subject = p.subject;
  args.rows = p.query_len;
  args.cols = p.subject_len;
  args.top_h = row_h.data();
  args.top_f = row_f.data();
  args.left_h = col_h.data();
  args.left_e = col_e.data();
  args.bottom_h = row_h.data();
  args.bottom_f = row_f.data();
  args.right_h = col_h.data();
  args.right_e = col_e.data();
  return compute_block_simd<SimdWidth::kI32>(scheme, args).best;
}

/// Runs one precision tier over the pending pair indices; overflowing
/// indices (in the same relative order) become the next tier's input.
void run_tier(SimdBackend::BatchGroupFn fn, int lanes,
              const ScoreScheme& scheme,
              const std::vector<PairView>& pairs,
              const std::vector<std::size_t>& pending,
              std::vector<ScoreResult>& results,
              std::vector<std::size_t>& next, BatchStats& stats) {
  MGPUSW_CHECK(lanes > 0 && lanes <= kMaxLanes);
  PairView group[kMaxLanes];
  ScoreResult out[kMaxLanes];
  bool overflow[kMaxLanes];
  for (std::size_t g = 0; g < pending.size();
       g += static_cast<std::size_t>(lanes)) {
    const int n = static_cast<int>(
        std::min<std::size_t>(lanes, pending.size() - g));
    for (int k = 0; k < n; ++k) group[k] = pairs[pending[g + k]];
    fn(scheme, group, n, out, overflow);
    ++stats.groups;
    for (int k = 0; k < n; ++k) {
      if (overflow[k]) {
        next.push_back(pending[g + k]);
      } else {
        results[pending[g + k]] = out[k];
      }
    }
  }
}

}  // namespace

const std::vector<std::string>& batch_kernel_names() {
  static const std::vector<std::string> names = {"interseq", "interseq16",
                                                 "scalar"};
  return names;
}

std::vector<ScoreResult> batch_align_scores(const ScoreScheme& scheme,
                                            const std::vector<PairView>& pairs,
                                            const std::string& kernel,
                                            BatchStats* stats) {
  scheme.validate();
  bool try_i8 = false;
  bool try_i16 = false;
  if (kernel == "interseq") {
    try_i8 = true;
    try_i16 = true;
  } else if (kernel == "interseq16") {
    try_i16 = true;
  } else if (kernel != "scalar") {
    throw InvalidArgument("unknown batch kernel '" + kernel +
                          "' (registered: interseq, interseq16, scalar)");
  }

  BatchStats local;
  BatchStats& st = stats != nullptr ? *stats : local;
  st = BatchStats{};
  std::vector<ScoreResult> results(pairs.size());

  if (!try_i8 && !try_i16) {  // "scalar": the per-pair oracle
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      results[i] = exact_pair_score(scheme, pairs[i]);
    }
    return results;
  }

  // Group similarly-sized pairs together: sort by dominant length
  // (descending, input order breaking ties) so lane padding stays small.
  std::vector<std::size_t> pending(pairs.size());
  std::iota(pending.begin(), pending.end(), std::size_t{0});
  std::sort(pending.begin(), pending.end(),
            [&pairs](std::size_t a, std::size_t b) {
              const std::int64_t la =
                  std::max(pairs[a].query_len, pairs[a].subject_len);
              const std::int64_t lb =
                  std::max(pairs[b].query_len, pairs[b].subject_len);
              if (la != lb) return la > lb;
              return a < b;
            });

  const SimdBackend& d = dispatched_simd_backend();
  std::vector<std::size_t> next;
  bool narrower_attempted = false;

  if (try_i8 && scheme_fits(scheme, kI8Max)) {
    run_tier(d.batch_i8, d.batch_i8_lanes, scheme, pairs, pending, results,
             next, st);
    narrower_attempted = true;
    pending.swap(next);
    next.clear();
  }
  if (!pending.empty() && try_i16 && scheme_fits(scheme, kI16Max)) {
    if (narrower_attempted) {
      st.overflow_reruns += static_cast<std::int64_t>(pending.size());
    }
    run_tier(d.batch_i16, d.batch_i16_lanes, scheme, pairs, pending,
             results, next, st);
    narrower_attempted = true;
    pending.swap(next);
    next.clear();
  }
  if (!pending.empty()) {
    if (narrower_attempted) {
      st.overflow_reruns += static_cast<std::int64_t>(pending.size());
    }
    for (const std::size_t i : pending) {
      results[i] = exact_pair_score(scheme, pairs[i]);
    }
  }
  return results;
}

}  // namespace mgpusw::sw
