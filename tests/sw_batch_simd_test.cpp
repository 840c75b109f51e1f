// The inter-sequence batch kernels (one pair per vector lane) must be
// bit-identical to the linear-memory reference on every pair — same
// score AND same end cell (both tie-breaking rules) — across mixed-length
// batches spanning multiple lane groups, empty sequences, and the full
// precision ladder (int8 -> int16 -> exact fallback on overflow).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/error.hpp"
#include "base/rng.hpp"
#include "sw/batch_simd.hpp"
#include "sw/block_simd.hpp"
#include "sw/linear.hpp"
#include "tests/test_util.hpp"

namespace mgpusw {
namespace {

using seq::Nt;
using sw::PairView;
using sw::ScoreResult;
using sw::ScoreScheme;

/// Owns the unpacked code arrays the PairViews point into.
struct PairSet {
  std::vector<std::vector<Nt>> codes;  // 2 per pair: query, subject
  std::vector<PairView> views;

  void add(std::vector<Nt> query, std::vector<Nt> subject) {
    codes.push_back(std::move(query));
    codes.push_back(std::move(subject));
  }

  // Views are built after all pushes so vector growth cannot move data
  // out from under them.
  const std::vector<PairView>& finish() {
    views.resize(codes.size() / 2);
    for (std::size_t k = 0; k < views.size(); ++k) {
      views[k].query = codes[2 * k].data();
      views[k].query_len = static_cast<std::int64_t>(codes[2 * k].size());
      views[k].subject = codes[2 * k + 1].data();
      views[k].subject_len =
          static_cast<std::int64_t>(codes[2 * k + 1].size());
    }
    return views;
  }
};

std::vector<Nt> random_codes(std::int64_t length, std::uint64_t seed) {
  base::Rng rng(seed);
  std::vector<Nt> codes(static_cast<std::size_t>(length));
  for (auto& code : codes) code = static_cast<Nt>(rng.next_below(4));
  return codes;
}

void expect_matches_reference(const ScoreScheme& scheme,
                              const PairSet& set,
                              const std::vector<ScoreResult>& got,
                              const std::string& label) {
  ASSERT_EQ(got.size(), set.views.size()) << label;
  for (std::size_t k = 0; k < set.views.size(); ++k) {
    const ScoreResult want = sw::linear_score_unpacked(
        scheme, set.codes[2 * k], set.codes[2 * k + 1]);
    EXPECT_EQ(got[k].score, want.score) << label << " pair " << k;
    EXPECT_EQ(got[k].end.row, want.end.row) << label << " pair " << k;
    EXPECT_EQ(got[k].end.col, want.end.col) << label << " pair " << k;
  }
}

// Mixed lengths crossing every interesting boundary: empty, sub-lane,
// around the int8 segment fold (96) and well past the int16 one in cell
// count. All pairings -> far more pairs than one 32-lane group, so the
// sort + grouping and the in-order result scatter are exercised too.
PairSet mixed_length_pairs() {
  const std::vector<std::int64_t> lengths = {0,  1,  3,  8,   15, 16,
                                             17, 31, 33, 64, 100, 257};
  PairSet set;
  std::uint64_t seed = 1;
  for (const std::int64_t qlen : lengths) {
    for (const std::int64_t slen : lengths) {
      std::vector<seq::Nt> q = random_codes(qlen, seed);
      std::vector<seq::Nt> s = random_codes(slen, seed + 1);
      seed += 2;
      set.add(std::move(q), std::move(s));
    }
  }
  set.finish();
  return set;
}

TEST(BatchSimdParity, EveryKernelMatchesLinearReferenceOnMixedBatch) {
  PairSet set = mixed_length_pairs();
  for (const std::string& kernel : sw::batch_kernel_names()) {
    for (const ScoreScheme& scheme : testutil::test_schemes()) {
      sw::BatchStats stats;
      const std::vector<ScoreResult> got =
          sw::batch_align_scores(scheme, set.views, kernel, &stats);
      expect_matches_reference(scheme, set, got,
                               kernel + " scheme " +
                                   std::to_string(scheme.match));
      if (kernel != "scalar") {
        EXPECT_GT(stats.groups, 0) << kernel;
      }
    }
  }
}

TEST(BatchSimdParity, RelatedPairsWithLongMatchRuns) {
  // High-identity pairs push H far higher than random pairs do, forcing
  // the int8 tier to actually rerun on the ladder kernels.
  PairSet set;
  for (std::uint64_t k = 0; k < 40; ++k) {
    auto [a, b] = testutil::related_pair(200, 1000 + k);
    std::vector<Nt> qa(static_cast<std::size_t>(a.size()));
    std::vector<Nt> qb(static_cast<std::size_t>(b.size()));
    a.extract(0, a.size(), qa.data());
    b.extract(0, b.size(), qb.data());
    set.add(std::move(qa), std::move(qb));
  }
  set.finish();
  for (const std::string& kernel : sw::batch_kernel_names()) {
    const std::vector<ScoreResult> got = sw::batch_align_scores(
        ScoreScheme{2, -1, 1, 1}, set.views, kernel, nullptr);
    expect_matches_reference(ScoreScheme{2, -1, 1, 1}, set, got, kernel);
  }
}

TEST(BatchSimdParity, EveryRunnableBackendsGroupKernelsMatchReference) {
  // batch_align_scores runs the dispatched backend's group kernels only;
  // this calls every runnable backend's int8 and int16 kernels directly
  // (64/32 lanes on AVX-512, 32/16 on AVX2), on a full group and on a
  // partial one whose idle lanes are all padding.
  PairSet set;
  base::Rng rng(64);
  for (int k = 0; k < 64; ++k) {
    set.add(random_codes(rng.next_range(0, 90), rng.next_u64()),
            random_codes(rng.next_range(0, 90), rng.next_u64()));
  }
  set.finish();
  const ScoreScheme scheme{};
  for (const sw::SimdBackend* backend : sw::runnable_simd_backends()) {
    const std::pair<sw::SimdBackend::BatchGroupFn, int> kernels[] = {
        {backend->batch_i8, backend->batch_i8_lanes},
        {backend->batch_i16, backend->batch_i16_lanes}};
    for (const auto& [fn, lanes] : kernels) {
      ASSERT_LE(lanes, static_cast<int>(set.views.size())) << backend->tag;
      for (const int n : {lanes, lanes / 2 + 1}) {
        std::vector<ScoreResult> out(static_cast<std::size_t>(n));
        const auto overflow = std::make_unique<bool[]>(out.size());
        fn(scheme, set.views.data(), n, out.data(), overflow.get());
        for (int k = 0; k < n; ++k) {
          const std::string label = std::string(backend->tag) + " lanes " +
                                    std::to_string(lanes) + " n " +
                                    std::to_string(n) + " pair " +
                                    std::to_string(k);
          const auto idx = static_cast<std::size_t>(k);
          EXPECT_FALSE(overflow[idx]) << label;
          EXPECT_EQ(out[idx], sw::linear_score_unpacked(
                                  scheme, set.codes[2 * idx],
                                  set.codes[2 * idx + 1]))
              << label;
        }
      }
    }
  }
}

TEST(BatchSimdOverflow, Int8OverflowRerunsAtInt16) {
  // Identical 100-base pairs score 200 with match=2: past int8's
  // watermark, comfortably inside int16. Every pair must be rerun once.
  PairSet set;
  for (std::uint64_t k = 0; k < 40; ++k) {
    std::vector<Nt> codes = random_codes(100, 7 * k + 3);
    set.add(codes, codes);
  }
  set.finish();
  const ScoreScheme scheme{2, -1, 1, 1};
  sw::BatchStats stats;
  const std::vector<ScoreResult> got =
      sw::batch_align_scores(scheme, set.views, "interseq", &stats);
  expect_matches_reference(scheme, set, got, "interseq");
  EXPECT_EQ(stats.overflow_reruns, 40);
  for (const ScoreResult& result : got) EXPECT_EQ(result.score, 200);
}

TEST(BatchSimdOverflow, Int16OverflowFallsBackToExact) {
  // match=8000 skips int8 entirely (scheme pre-check) and overflows
  // int16 on identical 10-base pairs (score 80000): the exact scalar
  // fallback must kick in and count one rerun per pair.
  PairSet set;
  for (std::uint64_t k = 0; k < 10; ++k) {
    std::vector<Nt> codes = random_codes(10, 11 * k + 5);
    set.add(codes, codes);
  }
  set.finish();
  const ScoreScheme scheme{8000, -3, 3, 2};
  sw::BatchStats stats;
  const std::vector<ScoreResult> got =
      sw::batch_align_scores(scheme, set.views, "interseq", &stats);
  ASSERT_EQ(got.size(), 10u);
  for (const ScoreResult& result : got) EXPECT_EQ(result.score, 80000);
  EXPECT_EQ(stats.overflow_reruns, 10);
}

TEST(BatchSimdOverflow, NoRerunsOnSmallScores) {
  PairSet set = mixed_length_pairs();
  sw::BatchStats stats;
  (void)sw::batch_align_scores(ScoreScheme{}, set.views, "interseq",
                               &stats);
  EXPECT_EQ(stats.overflow_reruns, 0);
  EXPECT_GT(stats.groups, 0);
}

TEST(BatchSimd, UnknownKernelNameThrows) {
  PairSet set;
  set.add(random_codes(8, 1), random_codes(8, 2));
  set.finish();
  EXPECT_THROW(
      (void)sw::batch_align_scores(ScoreScheme{}, set.views, "warp"),
      InvalidArgument);
}

TEST(BatchSimd, EmptyBatchIsFine) {
  sw::BatchStats stats;
  const std::vector<ScoreResult> got = sw::batch_align_scores(
      ScoreScheme{}, std::vector<PairView>{}, "interseq", &stats);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(stats.groups, 0);
}

}  // namespace
}  // namespace mgpusw
