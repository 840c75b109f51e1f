// Every kernel in the registry must be bit-identical to the row-scan
// reference: same block best (including both tie-breaking rules), same
// borders out, same border_max — across geometries that exercise the SIMD
// kernels' delegated short blocks, their masked fill/drain triangles,
// full strips and the non-lane-multiple remainder path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "sw/block.hpp"
#include "sw/block_simd.hpp"
#include "sw/kernel.hpp"
#include "tests/test_util.hpp"

namespace mgpusw {
namespace {

using seq::Nt;
using sw::BlockArgs;
using sw::Score;
using sw::ScoreScheme;

/// One block's inputs: bases, all four borders and the corner.
struct BlockInput {
  std::vector<Nt> query, subject;
  std::vector<Score> top_h, top_f, left_h, left_e;
  Score corner = 0;
};

/// Non-trivial borders: pseudo-random non-negative H, mixed E/F.
/// border_base shifts the H borders upward — chosen by the overflow
/// tests to push them past a narrow type's representable range.
BlockInput patterned_input(const std::vector<Nt>& query,
                           const std::vector<Nt>& subject, Score corner,
                           Score border_base = 0) {
  BlockInput in;
  in.query = query;
  in.subject = subject;
  in.corner = corner;
  for (std::size_t j = 0; j < subject.size(); ++j) {
    in.top_h.push_back(border_base + static_cast<Score>((j * 7) % 13));
    in.top_f.push_back(j % 3 == 0 ? sw::kNegInf
                                  : static_cast<Score>((j * 5) % 11) - 8);
  }
  for (std::size_t i = 0; i < query.size(); ++i) {
    in.left_h.push_back(border_base + static_cast<Score>((i * 3) % 17));
    in.left_e.push_back(i % 4 == 0 ? sw::kNegInf
                                   : static_cast<Score>((i * 9) % 7) - 6);
  }
  return in;
}

struct KernelIo {
  std::vector<Score> row_h, row_f, col_h, col_e;
  sw::BlockResult result;
  /// False when a non-aliased run wrote to its input borders.
  bool inputs_intact = true;
};

/// Runs one kernel on `in`. Aliased runs write the outgoing borders over
/// the incoming ones (bottom over top, right over left), as the engine
/// does; non-aliased runs write into separate, poisoned arrays and check
/// that the inputs stay untouched. Every border array is allocated at
/// exactly `cols` or `rows` entries, like the engine's, so ASan catches
/// a kernel that reads or writes past a row or column.
KernelIo run_kernel(sw::BlockKernelFn fn, const ScoreScheme& scheme,
                    const BlockInput& in, bool aliased = true) {
  KernelIo io;
  std::vector<Score> top_h = in.top_h;
  std::vector<Score> top_f = in.top_f;
  std::vector<Score> left_h = in.left_h;
  std::vector<Score> left_e = in.left_e;
  if (!aliased) {
    constexpr Score kPoison = -777;
    io.row_h.assign(in.top_h.size(), kPoison);
    io.row_f.assign(in.top_f.size(), kPoison);
    io.col_h.assign(in.left_h.size(), kPoison);
    io.col_e.assign(in.left_e.size(), kPoison);
  }

  BlockArgs args;
  args.query = in.query.data();
  args.subject = in.subject.data();
  args.rows = static_cast<std::int64_t>(in.query.size());
  args.cols = static_cast<std::int64_t>(in.subject.size());
  args.global_row = 1000;
  args.global_col = 2000;
  args.corner_h = in.corner;
  args.top_h = top_h.data();
  args.top_f = top_f.data();
  args.left_h = left_h.data();
  args.left_e = left_e.data();
  args.bottom_h = aliased ? top_h.data() : io.row_h.data();
  args.bottom_f = aliased ? top_f.data() : io.row_f.data();
  args.right_h = aliased ? left_h.data() : io.col_h.data();
  args.right_e = aliased ? left_e.data() : io.col_e.data();
  io.result = fn(scheme, args);
  if (aliased) {
    io.row_h = top_h;
    io.row_f = top_f;
    io.col_h = left_h;
    io.col_e = left_e;
  } else {
    io.inputs_intact = top_h == in.top_h && top_f == in.top_f &&
                       left_h == in.left_h && left_e == in.left_e;
  }
  return io;
}

/// Checks every output of `other` against the row-scan result `scan`.
void expect_same(const KernelIo& other, const KernelIo& scan,
                 const std::string& label) {
  EXPECT_EQ(other.result.best, scan.result.best) << label;
  EXPECT_EQ(other.result.border_max, scan.result.border_max) << label;
  EXPECT_EQ(other.row_h, scan.row_h) << label;
  EXPECT_EQ(other.row_f, scan.row_f) << label;
  EXPECT_EQ(other.col_h, scan.col_h) << label;
  EXPECT_EQ(other.col_e, scan.col_e) << label;
  EXPECT_TRUE(other.inputs_intact) << label;
}

/// The sweep body: a random rows x cols block under scheme `seed`, every
/// registered kernel against the row scan.
void expect_registry_matches_row_scan(int rows, int cols, int seed) {
  const ScoreScheme scheme = testutil::test_schemes()[
      static_cast<std::size_t>(seed) % testutil::test_schemes().size()];
  std::vector<Nt> query(static_cast<std::size_t>(rows));
  std::vector<Nt> subject(static_cast<std::size_t>(cols));
  base::Rng rng(static_cast<std::uint64_t>(seed) * 31 + 7);
  for (auto& nt : query) nt = static_cast<Nt>(rng.next_below(4));
  for (auto& nt : subject) nt = static_cast<Nt>(rng.next_below(4));

  // Aliased (outputs over inputs, as the engine calls kernels) and into
  // separate arrays.
  const BlockInput in = patterned_input(query, subject, 3);
  for (const bool aliased : {true, false}) {
    const KernelIo scan = run_kernel(&sw::compute_block, scheme, in, aliased);
    for (const sw::KernelInfo& info : sw::kernel_registry()) {
      expect_same(run_kernel(info.fn, scheme, in, aliased), scan,
                  info.name + (aliased ? " (aliased)" : " (separate)"));
    }
  }
}

class KernelParity
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(KernelParity, AllRegisteredKernelsMatchRowScan) {
  const auto [rows, cols, seed] = GetParam();
  expect_registry_matches_row_scan(rows, cols, seed);
}

// Every strip of a SIMD kernel runs a kLanes-step fill and drain with
// masked lanes; the lane counts in use are 8, 16 and 32. Rows hit:
// degenerate (1, 2), below the 8-lane strip (7), one full strip (8),
// strips plus a remainder for every lane count (9, 19, 33, 37, 95), a
// pipelined strip pair plus an odd trailing strip for every lane count
// (49 covers the 16-lane kernels, 96 the 32-lane int8 kernel), several
// strips (64). Cols hit: widths where the fill and drain overlap (1, 13),
// 2*kL-1, 2*kL and 2*kL+1 for every lane count (15-17, 31-33, 63-65),
// the engine's 128 and one past it, and a non-power width past every
// kernel's 4*kLanes pair-pipelining threshold (200).
INSTANTIATE_TEST_SUITE_P(
    Geometries, KernelParity,
    ::testing::Combine(
        ::testing::Values(1, 2, 7, 8, 9, 19, 33, 37, 49, 64, 95, 96),
        ::testing::Values(1, 13, 15, 16, 17, 31, 32, 33, 63, 64, 65, 128,
                          129, 200),
        ::testing::Range(0, 5)));

// The same sweep on the small, odd shapes every SIMD entry — each an
// anti-diagonal traversal — must also match the row scan on: blocks one
// to three rows or columns wide, where the fill and drain overlap or the
// whole block is shorter than one strip (rows 3, 5; cols 2, 3, 7), and a
// strip plus one remainder row (17).
class AntidiagEquivalence : public KernelParity {};

TEST_P(AntidiagEquivalence, IdenticalToRowScan) {
  const auto [rows, cols, seed] = GetParam();
  expect_registry_matches_row_scan(rows, cols, seed);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AntidiagEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 17, 64),
                       ::testing::Values(1, 2, 3, 7, 33, 64),
                       ::testing::Range(0, 4)));

// --- fill/drain triangle peaks ----------------------------------------

/// A block of mismatches (query all A, subject all C) under zero/neg-inf
/// borders: every H it scores comes from the peaks the tests plant.
BlockInput quiet_input(int rows, int cols) {
  BlockInput in;
  in.query.assign(static_cast<std::size_t>(rows), Nt::A);
  in.subject.assign(static_cast<std::size_t>(cols), Nt::C);
  in.top_h.assign(in.subject.size(), 0);
  in.top_f.assign(in.subject.size(), sw::kNegInf);
  in.left_h.assign(in.query.size(), 0);
  in.left_e.assign(in.query.size(), sw::kNegInf);
  return in;
}

/// Plants H = peak + match at cell (1, 0), the second step of the first
/// strip's fill triangle for every lane count: its diagonal is left_h[0].
void plant_fill_peak(BlockInput& in, Score peak) {
  in.left_h[0] = peak;
  in.query[1] = in.subject[0];
}

/// Plants H = peak + match at cell (0, cols-1), the first drain step of
/// the first strip: its diagonal is top_h[cols-2].
void plant_drain_peak(BlockInput& in, Score peak) {
  const std::size_t cols = in.subject.size();
  in.top_h[cols - 2] = peak;
  in.subject[cols - 1] = in.query[0];
}

/// Runs every registry kernel against compute_block on `in`; returns the
/// ladder kernels' (simd16, simd8) rerun counts.
std::pair<int, int> check_parity(const ScoreScheme& scheme,
                                 const BlockInput& in) {
  const KernelIo scan = run_kernel(&sw::compute_block, scheme, in);
  int reruns16 = -1;
  int reruns8 = -1;
  for (const sw::KernelInfo& info : sw::kernel_registry()) {
    const KernelIo other = run_kernel(info.fn, scheme, in);
    expect_same(other, scan, info.name);
    if (info.name == "simd16") reruns16 = other.result.overflow_reruns;
    if (info.name == "simd8") reruns8 = other.result.overflow_reruns;
  }
  EXPECT_GE(reruns16, 0) << "simd16 not registered";
  EXPECT_GE(reruns8, 0) << "simd8 not registered";
  return {reruns16, reruns8};
}

TEST(KernelTriangleTest, WatermarkInsideFillTriangle) {
  // A left-border H at a narrow type's maximum makes cell (1, 0) the only
  // cell at or above that type's watermark; the masked fill steps must
  // still see it and escalate, or the saturated cell would go through.
  const ScoreScheme scheme;
  for (const int cols : {63, 64, 65, 128, 129}) {
    for (const int rows : {37, 64}) {
      BlockInput in = quiet_input(rows, cols);
      plant_fill_peak(in, 127);  // int8 max
      EXPECT_EQ(check_parity(scheme, in), std::make_pair(0, 1))
          << "int8 rows=" << rows << " cols=" << cols;
      plant_fill_peak(in, 32767);  // int16 max
      EXPECT_EQ(check_parity(scheme, in), std::make_pair(1, 2))
          << "int16 rows=" << rows << " cols=" << cols;
    }
  }
}

TEST(KernelTriangleTest, WatermarkInsideDrainTriangle) {
  // The same with the peak at cell (0, cols-1), the first drain step.
  const ScoreScheme scheme;
  for (const int cols : {63, 64, 65, 128, 129}) {
    for (const int rows : {37, 64}) {
      BlockInput in = quiet_input(rows, cols);
      plant_drain_peak(in, 127);
      EXPECT_EQ(check_parity(scheme, in), std::make_pair(0, 1))
          << "int8 rows=" << rows << " cols=" << cols;
      plant_drain_peak(in, 32767);
      EXPECT_EQ(check_parity(scheme, in), std::make_pair(1, 2))
          << "int16 rows=" << rows << " cols=" << cols;
    }
  }
}

TEST(KernelTriangleTest, BestTiesInsideTriangles) {
  // Equal block maxima planted only in triangle cells: (0, 0) and (1, 0)
  // in the first fill, (0, cols-1) in the first drain. Row-major
  // tie-breaking keeps (0, 0); without it, (0, cols-1) beats (1, 0) on
  // row; without the drain peak, (1, 0) is left.
  const ScoreScheme scheme;
  for (const int cols : {15, 17, 31, 33, 63, 65, 128, 129}) {
    for (const int rows : {19, 37, 64}) {
      BlockInput in = quiet_input(rows, cols);
      in.query[0] = Nt::G;  // (0, 0) matches on its corner diagonal
      in.query[1] = Nt::G;  // (1, 0) matches on its left-border diagonal
      in.subject[0] = Nt::G;
      in.subject[static_cast<std::size_t>(cols) - 1] = Nt::G;  // (0, cols-1)
      in.corner = 60;
      in.left_h[0] = 60;
      in.top_h[static_cast<std::size_t>(cols) - 2] = 60;

      const std::vector<std::pair<sw::CellPos, const char*>> expected = {
          {sw::CellPos{1000, 2000}, "three-way tie"},
          {sw::CellPos{1000, 2000 + cols - 1}, "fill/drain tie"},
          {sw::CellPos{1001, 2000}, "fill peak only"}};
      for (const auto& [end, label] : expected) {
        const KernelIo scan = run_kernel(&sw::compute_block, scheme, in);
        EXPECT_EQ(scan.result.best.score, 61) << label;
        EXPECT_EQ(scan.result.best.end, end)
            << label << " rows=" << rows << " cols=" << cols;
        EXPECT_EQ(check_parity(scheme, in), std::make_pair(0, 0))
            << label << " rows=" << rows << " cols=" << cols;
        if (in.corner != 0) {
          in.corner = 0;
        } else {
          in.top_h[static_cast<std::size_t>(cols) - 2] = 0;
        }
      }
    }
  }
}

TEST(AntidiagTest, GlobalCoordsReported) {
  // Identical sequences under zero borders: every kernel's best cell is
  // the block's bottom-right corner, reported in global coordinates.
  const ScoreScheme scheme;
  BlockInput in = quiet_input(16, 16);
  std::fill(in.query.begin(), in.query.end(), Nt::G);
  std::fill(in.subject.begin(), in.subject.end(), Nt::G);
  for (const sw::KernelInfo& info : sw::kernel_registry()) {
    const KernelIo io = run_kernel(info.fn, scheme, in);
    EXPECT_EQ(io.result.best.score, 16 * scheme.match) << info.name;
    EXPECT_EQ(io.result.best.end, (sw::CellPos{1015, 2015})) << info.name;
  }
}

TEST(AntidiagTest, TieBreakMatchesRowScanOrder) {
  // ACAC against ACGGAC has two equal optima, (1, 1) and (3, 5): every
  // kernel must report the row-major first one, on a block shorter than
  // any strip and on the same pair tiled into a block that fills whole
  // strips of every lane count.
  const ScoreScheme scheme;
  const std::vector<Nt> query = {Nt::A, Nt::C, Nt::A, Nt::C};
  const std::vector<Nt> subject = {Nt::A, Nt::C, Nt::G, Nt::G, Nt::A, Nt::C};
  BlockInput in = quiet_input(4, 6);
  in.query = query;
  in.subject = subject;
  EXPECT_EQ(check_parity(scheme, in), std::make_pair(0, 0));
  for (const sw::KernelInfo& info : sw::kernel_registry()) {
    EXPECT_EQ(run_kernel(info.fn, scheme, in).result.best.end,
              (sw::CellPos{1001, 2001}))
        << info.name;
  }
  // 64 x 66: the pair at rows 0-3 / cols 0-5 and again far below and to
  // the right, on a background (query T, subject G) that matches neither
  // copy, so all eight optima tie.
  BlockInput tiled = quiet_input(64, 66);
  std::fill(tiled.query.begin(), tiled.query.end(), Nt::T);
  std::fill(tiled.subject.begin(), tiled.subject.end(), Nt::G);
  std::copy(query.begin(), query.end(), tiled.query.begin());
  std::copy(query.begin(), query.end(), tiled.query.begin() + 50);
  std::copy(subject.begin(), subject.end(), tiled.subject.begin());
  std::copy(subject.begin(), subject.end(), tiled.subject.begin() + 60);
  EXPECT_EQ(check_parity(scheme, tiled), std::make_pair(0, 0));
  for (const sw::KernelInfo& info : sw::kernel_registry()) {
    EXPECT_EQ(run_kernel(info.fn, scheme, tiled).result.best.end,
              (sw::CellPos{1001, 2001}))
        << info.name;
  }
}

// --- precision-ladder escalation ------------------------------------
//
// Each case forces a specific rung of the int8 -> int16 -> int32 ladder
// to fail — by saturation at runtime (large match on a perfect-match
// input) or by the border pre-check (H borders beyond the lane range) —
// and checks (a) every registered kernel still matches the row scan
// bit-for-bit, borders and tie-breaking included, and (b) the ladder
// kernels report the expected overflow_reruns count.

/// A pair with a long perfect-match run: H climbs by `match` per
/// diagonal step, the overflow rig for runtime saturation.
std::pair<std::vector<Nt>, std::vector<Nt>> perfect_match_pair(int rows,
                                                               int cols) {
  std::vector<Nt> query(static_cast<std::size_t>(rows));
  std::vector<Nt> subject(static_cast<std::size_t>(cols));
  for (std::size_t i = 0; i < query.size(); ++i) {
    query[i] = static_cast<Nt>(i % 4);
  }
  for (std::size_t j = 0; j < subject.size(); ++j) {
    subject[j] = static_cast<Nt>(j % 4);
  }
  return {query, subject};
}

TEST(KernelOverflowTest, Int8SaturationEscalatesToInt16) {
  // match = 25 passes the int8 pre-check (cap 31) but a 64x128
  // perfect-match block drives H far past the int8 watermark (102), so
  // the int8 pass must detect saturation and re-run; int16 absorbs it.
  const ScoreScheme scheme{25, -2, 2, 1};
  const auto [query, subject] = perfect_match_pair(64, 128);
  const auto [reruns16, reruns8] =
      check_parity(scheme, patterned_input(query, subject, 3, 0));
  EXPECT_EQ(reruns16, 0);
  EXPECT_EQ(reruns8, 1);
}

TEST(KernelOverflowTest, Int16SaturationEscalatesToInt32) {
  // match = 8000 fails the int8 pre-check outright (cap 31) and drives
  // H past the int16 watermark at runtime: simd8 escalates twice,
  // simd16 once, and everything stays bit-identical in int32.
  const ScoreScheme scheme{8000, -3, 3, 2};
  const auto [query, subject] = perfect_match_pair(64, 128);
  const auto [reruns16, reruns8] =
      check_parity(scheme, patterned_input(query, subject, 3, 0));
  EXPECT_EQ(reruns16, 1);
  EXPECT_EQ(reruns8, 2);
}

TEST(KernelOverflowTest, Int8BorderPrecheckEscalates) {
  // Border H values around 200 are not int8-representable: the int8
  // pass must escalate before computing anything; int16 handles it.
  const ScoreScheme scheme{2, -1, 1, 1};
  const auto [query, subject] = perfect_match_pair(33, 65);
  const auto [reruns16, reruns8] =
      check_parity(scheme, patterned_input(query, subject, 203, 200));
  EXPECT_EQ(reruns16, 0);
  EXPECT_EQ(reruns8, 1);
}

TEST(KernelOverflowTest, Int16BorderPrecheckEscalates) {
  // Border H values around 50000 exceed int16: both narrow rungs bail
  // in their pre-checks and the int32 kernel computes the block.
  const ScoreScheme scheme{2, -1, 1, 1};
  const auto [query, subject] = perfect_match_pair(33, 65);
  const auto [reruns16, reruns8] =
      check_parity(scheme, patterned_input(query, subject, 50003, 50000));
  EXPECT_EQ(reruns16, 1);
  EXPECT_EQ(reruns8, 2);
}

TEST(KernelOverflowTest, RemainderRowsEscalateOnTheirOwn) {
  // Left-border H beyond int16 only on rows 32..51 of a 52-row block:
  // with 32 int8 lanes those rows are the remainder below the last
  // strip, which runs on the narrower lane counts and must escalate to
  // int32 by itself; with 16 int8 lanes they fail the whole block's
  // pre-check instead. Every kernel stays bit-identical either way.
  const ScoreScheme scheme;
  std::vector<Nt> query(52);
  std::vector<Nt> subject(64);
  base::Rng rng(23);
  for (auto& nt : query) nt = static_cast<Nt>(rng.next_below(4));
  for (auto& nt : subject) nt = static_cast<Nt>(rng.next_below(4));
  BlockInput in = patterned_input(query, subject, 3);
  for (std::size_t i = 32; i < in.left_h.size(); ++i) {
    in.left_h[i] = 50000 + static_cast<Score>(i);
  }
  const auto [reruns16, reruns8] = check_parity(scheme, in);
  EXPECT_GE(reruns16, 1);
  EXPECT_GE(reruns8, 1);
}

TEST(KernelOverflowTest, NoEscalationOnSmallScores) {
  // The control: a default-scheme random block stays narrow end to end.
  const ScoreScheme scheme{1, -3, 3, 2};
  std::vector<Nt> query(64);
  std::vector<Nt> subject(128);
  base::Rng rng(11);
  for (auto& nt : query) nt = static_cast<Nt>(rng.next_below(4));
  for (auto& nt : subject) nt = static_cast<Nt>(rng.next_below(4));
  const auto [reruns16, reruns8] =
      check_parity(scheme, patterned_input(query, subject, 3, 0));
  EXPECT_EQ(reruns16, 0);
  EXPECT_EQ(reruns8, 0);
}

// --- auto's column runs -----------------------------------------------
//
// A tile wider than sw::kAutoSplitCols splits into int8 and int16 column
// runs chained through the right border and a saved corner. Randomized
// tiles plant what a fused block row behind a homolog alignment carries:
// top-border bands above int8 that decay by gap_extend per column (the
// wedge), a left border above int8 feeding a low first run, and a
// perfect-match diagonal that lifts H past int8 inside a low run.

/// A wide random tile with wedge-shaped top-border bands; when
/// `overflow_col` >= 0, the diagonal from (0, overflow_col) matches for
/// 30 rows from a top-border value just below int8.
BlockInput wedge_input(const ScoreScheme& scheme, int rows, int cols,
                       base::Rng& rng, bool high_left, int overflow_col) {
  BlockInput in;
  in.query.resize(static_cast<std::size_t>(rows));
  in.subject.resize(static_cast<std::size_t>(cols));
  for (auto& nt : in.query) nt = static_cast<Nt>(rng.next_below(4));
  for (auto& nt : in.subject) nt = static_cast<Nt>(rng.next_below(4));
  for (int j = 0; j < cols; ++j) {
    in.top_h.push_back(static_cast<Score>(rng.next_below(13)));
  }
  // Bands start in the first quarter and reach at most 127 + cols/4, so
  // they end by the middle of the tile, before the last quarter, where
  // the overflow diagonal goes.
  const auto bands = static_cast<int>(rng.next_range(1, 3));
  for (int band = 0; band < bands; ++band) {
    const auto peak_col = static_cast<int>(rng.next_range(0, cols / 4));
    const Score peak =
        128 + static_cast<Score>(rng.next_range(0, cols / 4));
    for (int j = 0; j < cols; ++j) {
      const Score decay =
          j >= peak_col ? scheme.gap_extend * (j - peak_col)
                        : (scheme.gap_extend + scheme.match) * (peak_col - j);
      in.top_h[static_cast<std::size_t>(j)] =
          std::max(in.top_h[static_cast<std::size_t>(j)], peak - decay);
    }
  }
  for (const Score h : in.top_h) {
    in.top_f.push_back(rng.next_bool(0.3) ? sw::kNegInf
                                          : h - scheme.gap_first());
  }
  for (int i = 0; i < rows; ++i) {
    const bool high = high_left && rng.next_bool(0.5);
    in.left_h.push_back(static_cast<Score>(
        high ? rng.next_range(128, 300) : rng.next_below(13)));
    in.left_e.push_back(rng.next_bool(0.3)
                            ? sw::kNegInf
                            : in.left_h.back() - scheme.gap_first());
  }
  in.corner = static_cast<Score>(high_left ? rng.next_range(128, 300)
                                           : rng.next_below(13));
  if (overflow_col > 0) {
    in.top_h[static_cast<std::size_t>(overflow_col) - 1] = 120;
    for (int i = 0; i < std::min(rows, 30); ++i) {
      in.subject[static_cast<std::size_t>(overflow_col + i)] =
          in.query[static_cast<std::size_t>(i)];
    }
  }
  return in;
}

TEST(AutoColumnRunsTest, WideTilesMatchRowScan) {
  base::Rng rng(20261019);
  const std::vector<int> row_counts = {1, 31, 32, 33, 128, 130};
  const bool vector = std::string(sw::active_simd_backend()) != "scalar";
  for (int trial = 0; trial < 36; ++trial) {
    const ScoreScheme scheme = testutil::test_schemes()[
        rng.next_below(testutil::test_schemes().size())];
    const int rows = row_counts[static_cast<std::size_t>(trial) %
                                row_counts.size()];
    const std::int64_t split = sw::kAutoSplitCols;
    const auto cols = static_cast<int>(
        trial < 6 ? split - 3 + trial : rng.next_range(split + 1, 20000));
    const bool high_left = rng.next_bool(0.5);
    const bool overflow = rng.next_bool(0.5);
    const int overflow_col = overflow ? cols - 100 : -1;
    const BlockInput in =
        wedge_input(scheme, rows, cols, rng, high_left, overflow_col);
    const std::string draw =
        "trial " + std::to_string(trial) + ": " + std::to_string(rows) +
        "x" + std::to_string(cols) + (high_left ? ", high left" : "") +
        (overflow ? ", int8 overflow" : "");
    for (const bool aliased : {true, false}) {
      const KernelIo scan =
          run_kernel(&sw::compute_block, scheme, in, aliased);
      const KernelIo autos =
          run_kernel(&sw::compute_block_auto, scheme, in, aliased);
      expect_same(autos, scan,
                  draw + (aliased ? " (aliased)" : " (separate)"));
      // H passes int8 inside a low run only where whole int8 strips run
      // (from 32 rows on every vector backend: AVX-512 runs fewer than
      // its 64 rows on the 32-lane AVX2 int8 ladder), and the
      // run pays a re-run for it. A tile up to the split width is one
      // run, which its bands send to int16; from twice that width the
      // bands end granules before the diagonal's.
      if (vector && overflow && rows >= 32 && cols >= 2 * split) {
        EXPECT_GE(autos.result.overflow_reruns, 1) << draw;
      }
    }
  }
}

TEST(AutoColumnRunsTest, BestTiesAcrossRunsResolveRowMajor) {
  // Two 250-long matching diagonals (query all A against A-runs in the
  // subject) end on row 249 with equal scores: one inside the low run
  // that starts the tile, one in a high run (its granule holds a top
  // band of 200, to the right of the peak so it cannot lift it). The
  // merged best must be the smaller column. Started from a top-border 1
  // and one base shorter, the right diagonal ties a row earlier and
  // must win.
  const ScoreScheme scheme;
  BlockInput in = quiet_input(256, 4096);
  for (int i = 0; i < 250; ++i) {
    in.subject[static_cast<std::size_t>(256 + i)] = Nt::A;
    in.subject[static_cast<std::size_t>(2100 + i)] = Nt::A;
  }
  for (std::size_t j = 2400; j < 2432; ++j) in.top_h[j] = 200;
  for (const bool aliased : {true, false}) {
    const KernelIo scan = run_kernel(&sw::compute_block, scheme, in, aliased);
    EXPECT_EQ(scan.result.best.score, 250);
    EXPECT_EQ(scan.result.best.end, (sw::CellPos{1249, 2505}));
    expect_same(run_kernel(&sw::compute_block_auto, scheme, in, aliased),
                scan, "equal rows");
  }
  in.top_h[2099] = 1;
  in.subject[2349] = Nt::C;
  for (const bool aliased : {true, false}) {
    const KernelIo scan = run_kernel(&sw::compute_block, scheme, in, aliased);
    EXPECT_EQ(scan.result.best.score, 250);
    EXPECT_EQ(scan.result.best.end, (sw::CellPos{1248, 4348}));
    expect_same(run_kernel(&sw::compute_block_auto, scheme, in, aliased),
                scan, "right peak a row earlier");
  }
}

TEST(AutoColumnRunsTest, BorderMaxSkipsInteriorRunColumns) {
  // border_max covers the tile's bottom row and last column only. A
  // 100-long match diagonal ends on the last column of the first run
  // (the granule after it holds a top band of 200, so a run boundary
  // falls there), and the rows below it mismatch, so neither it nor the
  // band reaches the bottom row. A merge that took each run's own
  // border_max would report the interior column's 100.
  const ScoreScheme scheme;
  BlockInput in = quiet_input(256, 4096);
  for (std::size_t j = 1948; j < 2048; ++j) in.subject[j] = Nt::A;
  for (std::size_t i = 100; i < 256; ++i) in.query[i] = Nt::G;
  for (std::size_t j = 2048; j < 2080; ++j) in.top_h[j] = 200;
  for (const bool aliased : {true, false}) {
    const KernelIo scan = run_kernel(&sw::compute_block, scheme, in, aliased);
    EXPECT_LT(scan.result.border_max, 100);
    expect_same(run_kernel(&sw::compute_block_auto, scheme, in, aliased),
                scan, aliased ? "aliased" : "separate");
  }
}

// --- the AVX-512 backend ----------------------------------------------
//
// The pinned simd-avx512 / simd16-avx512 / simd8-avx512 ladders run 16,
// 32 and 64 lanes per strip. The sweeps above reach them through the
// registry at the engine's shapes; these add the geometries only the
// wider strips have: remainder rows below 64/32/16, which run on the
// AVX2 ladder at the same width, tiles narrower than one strip, the
// escalation from int8 to int32 on strips of 64 rows, and a split auto
// tile. Each test skips on a CPU that cannot run the backend.

/// The AVX-512 table when this CPU can run it (and the MGPUSW_SIMD cap
/// allows it), else null.
const sw::SimdBackend* runnable_avx512() {
  for (const sw::SimdBackend* backend : sw::runnable_simd_backends()) {
    if (backend == &sw::simd_avx512::kBackend) return backend;
  }
  return nullptr;
}

/// Random bases under patterned borders, every ladder of `backend`
/// against the row scan, aliased and into separate arrays.
void expect_backend_matches_row_scan(const sw::SimdBackend& backend,
                                     int rows, int cols, int seed) {
  const ScoreScheme scheme = testutil::test_schemes()[
      static_cast<std::size_t>(seed) % testutil::test_schemes().size()];
  base::Rng rng(static_cast<std::uint64_t>(seed) * 131 + 17);
  std::vector<Nt> query(static_cast<std::size_t>(rows));
  std::vector<Nt> subject(static_cast<std::size_t>(cols));
  for (auto& nt : query) nt = static_cast<Nt>(rng.next_below(4));
  for (auto& nt : subject) nt = static_cast<Nt>(rng.next_below(4));
  const BlockInput in = patterned_input(query, subject, 5);
  for (const bool aliased : {true, false}) {
    const KernelIo scan = run_kernel(&sw::compute_block, scheme, in, aliased);
    for (int w = 0; w < sw::kSimdWidths; ++w) {
      expect_same(run_kernel(backend.ladder[w], scheme, in, aliased), scan,
                  std::string(backend.tag) + " width " + std::to_string(w) +
                      " " + std::to_string(rows) + "x" +
                      std::to_string(cols) +
                      (aliased ? " (aliased)" : " (separate)"));
    }
  }
}

TEST(Avx512BackendTest, RemainderRowsMatchRowScan) {
  // Rows below one strip of each width (16, 32, 64 lanes), on either
  // side of the AVX2 strips those rows fall to (8, 16, 32 lanes), and
  // whole strips followed by every such remainder.
  const sw::SimdBackend* avx512 = runnable_avx512();
  if (avx512 == nullptr) GTEST_SKIP() << "CPU cannot run the avx512 backend";
  int seed = 0;
  for (const int rows : {1, 7, 8, 15, 16, 17, 31, 32, 33, 47, 63, 64, 65,
                         72, 79, 80, 95, 96, 97, 127, 128, 129, 191}) {
    for (const int cols : {1, 17, 64, 129, 300}) {
      expect_backend_matches_row_scan(*avx512, rows, cols, seed++);
    }
  }
}

TEST(Avx512BackendTest, TilesNarrowerThanAStripMatchRowScan) {
  // Fewer columns than lanes: the fill and drain triangles overlap and
  // no step runs every lane; then widths around 2 and 4 strips.
  const sw::SimdBackend* avx512 = runnable_avx512();
  if (avx512 == nullptr) GTEST_SKIP() << "CPU cannot run the avx512 backend";
  int seed = 0;
  for (const int rows : {64, 128, 130}) {
    for (const int cols : {1, 2, 3, 15, 16, 31, 33, 63, 65, 127, 128, 255,
                           256, 257}) {
      expect_backend_matches_row_scan(*avx512, rows, cols, seed++);
    }
  }
}

TEST(Avx512BackendTest, EscalationStaysOnTheAvx512Ladder) {
  // The overflow rigs of KernelOverflowTest on blocks of whole 64-row
  // strips: each rung that fails re-runs one rung wider on AVX-512, so
  // the pinned ladders count the same re-runs as the dispatched ones.
  const sw::SimdBackend* avx512 = runnable_avx512();
  if (avx512 == nullptr) GTEST_SKIP() << "CPU cannot run the avx512 backend";
  const auto i16 = static_cast<int>(sw::SimdWidth::kI16);
  const auto i8 = static_cast<int>(sw::SimdWidth::kI8);
  struct Case {
    ScoreScheme scheme;
    Score border_base;
    int reruns16, reruns8;
  };
  const Case cases[] = {
      {ScoreScheme{25, -2, 2, 1}, 0, 0, 1},      // int8 saturates
      {ScoreScheme{8000, -3, 3, 2}, 0, 1, 2},    // int16 saturates
      {ScoreScheme{2, -1, 1, 1}, 200, 0, 1},     // int8 pre-check
      {ScoreScheme{2, -1, 1, 1}, 50000, 1, 2}};  // int16 pre-check
  for (const Case& c : cases) {
    for (const int cols : {128, 300}) {
      const auto [query, subject] = perfect_match_pair(128, cols);
      const BlockInput in =
          patterned_input(query, subject, c.border_base + 3, c.border_base);
      const KernelIo scan = run_kernel(&sw::compute_block, c.scheme, in);
      const KernelIo r16 = run_kernel(avx512->ladder[i16], c.scheme, in);
      const KernelIo r8 = run_kernel(avx512->ladder[i8], c.scheme, in);
      const std::string label = "match " + std::to_string(c.scheme.match) +
                                " base " + std::to_string(c.border_base) +
                                " cols " + std::to_string(cols);
      expect_same(r16, scan, "simd16-avx512 " + label);
      expect_same(r8, scan, "simd8-avx512 " + label);
      EXPECT_EQ(r16.result.overflow_reruns, c.reruns16) << label;
      EXPECT_EQ(r8.result.overflow_reruns, c.reruns8) << label;
    }
  }
}

TEST(Avx512BackendTest, ShortBlocksRunTheAvx2LadderAtTheSameWidth) {
  // 40 rows are too few for a 64-row int8 strip. On the AVX2 int8 ladder
  // they fill one 32-row strip, which saturates under match = 25 and
  // re-runs at int16 (one re-run); a block sent one rung wider instead
  // would start at int16 and count none.
  const sw::SimdBackend* avx512 = runnable_avx512();
  if (avx512 == nullptr) GTEST_SKIP() << "CPU cannot run the avx512 backend";
  const auto i8 = static_cast<int>(sw::SimdWidth::kI8);
  const ScoreScheme scheme{25, -2, 2, 1};
  const auto [query, subject] = perfect_match_pair(40, 128);
  const BlockInput in = patterned_input(query, subject, 3, 0);
  const KernelIo scan = run_kernel(&sw::compute_block, scheme, in);
  const KernelIo got = run_kernel(avx512->ladder[i8], scheme, in);
  expect_same(got, scan, "simd8-avx512 40x128");
  EXPECT_EQ(got.result.overflow_reruns,
            run_kernel(sw::simd_avx2::kBackend.ladder[i8], scheme, in)
                .result.overflow_reruns);
  EXPECT_EQ(got.result.overflow_reruns, 1);
}

TEST(Avx512BackendTest, SplitAutoTileMatchesRowScan) {
  // compute_block_auto on the AVX-512 ladders: wide wedge tiles split
  // into int8 and int16 runs, with row counts of whole 64-row strips and
  // with remainders, and an int8 overflow inside a low run.
  if (&sw::dispatched_simd_backend() != &sw::simd_avx512::kBackend) {
    GTEST_SKIP() << "auto does not dispatch to the avx512 backend";
  }
  base::Rng rng(512);
  const ScoreScheme scheme;
  int trial = 0;
  for (const int rows : {64, 65, 96, 128, 191}) {
    for (const bool overflow : {false, true}) {
      const auto cols = static_cast<int>(
          rng.next_range(4 * sw::kAutoSplitCols, 8 * sw::kAutoSplitCols));
      const BlockInput in = wedge_input(scheme, rows, cols, rng,
                                        /*high_left=*/trial % 2 == 0,
                                        overflow ? cols - 100 : -1);
      const std::string label = std::to_string(rows) + "x" +
                                std::to_string(cols) +
                                (overflow ? ", int8 overflow" : "");
      for (const bool aliased : {true, false}) {
        const KernelIo scan =
            run_kernel(&sw::compute_block, scheme, in, aliased);
        const KernelIo autos =
            run_kernel(&sw::compute_block_auto, scheme, in, aliased);
        expect_same(autos, scan, label);
        if (overflow) {
          EXPECT_GE(autos.result.overflow_reruns, 1) << label;
        }
      }
      ++trial;
    }
  }
}

TEST(KernelRegistryTest, RowIsFirstAndAutoIsDefault) {
  // The scalar reference leads the table; the default is the precision
  // ladder, the fastest exact kernel at the engine's 128x128 blocks.
  const auto& registry = sw::kernel_registry();
  ASSERT_FALSE(registry.empty());
  EXPECT_EQ(registry.front().name, "row");
  EXPECT_EQ(registry.front().fn, &sw::compute_block);
  EXPECT_EQ(sw::kDefaultKernel, "auto");
  EXPECT_EQ(sw::find_kernel(sw::kDefaultKernel), &sw::compute_block_auto);
}

TEST(KernelRegistryTest, FindKernelResolvesEveryEntry) {
  for (const sw::KernelInfo& info : sw::kernel_registry()) {
    EXPECT_EQ(sw::find_kernel(info.name), info.fn) << info.name;
  }
}

TEST(KernelRegistryTest, FindKernelRejectsUnknownName) {
  EXPECT_THROW((void)sw::find_kernel("warp-shuffle"), InvalidArgument);
}

TEST(KernelRegistryTest, SimdScalarBackendAlwaysRegistered) {
  // The pinned scalar backend is the guaranteed-runnable fallback; it must
  // be present so the fallback path is parity-tested on every host.
  EXPECT_NO_THROW((void)sw::find_kernel("simd-scalar"));
  ASSERT_FALSE(sw::runnable_simd_backends().empty());
  EXPECT_EQ(sw::runnable_simd_backends().back(), &sw::simd_scalar::kBackend);
}

TEST(KernelRegistryTest, EveryRunnableBackendRegistersAllThreeWidths) {
  // The pinned entries come from one loop over (backend x width): each
  // runnable backend registers its int32, int16 and int8 ladders, in
  // that order, and a name resolves to that backend's own ladder.
  const auto& registry = sw::kernel_registry();
  for (const sw::SimdBackend* backend : sw::runnable_simd_backends()) {
    const std::string tag = backend->tag;
    const std::string names[sw::kSimdWidths] = {
        "simd-" + tag, "simd16-" + tag, "simd8-" + tag};
    for (int w = 0; w < sw::kSimdWidths; ++w) {
      EXPECT_EQ(sw::find_kernel(names[w]), backend->ladder[w]) << names[w];
    }
    const auto at = std::find_if(
        registry.begin(), registry.end(),
        [&](const sw::KernelInfo& info) { return info.name == names[0]; });
    ASSERT_LE(at + sw::kSimdWidths, registry.end()) << tag;
    EXPECT_EQ(at[1].name, names[1]);
    EXPECT_EQ(at[2].name, names[2]);
  }
}

TEST(KernelRegistryTest, AutoSelectsNarrowestSafePrecision) {
  // "auto" is how DeviceSpec::kernel / calibration name the full ladder
  // without committing to a width; it must resolve, and the width
  // entries must be the dispatched ladders.
  EXPECT_EQ(sw::find_kernel("auto"), &sw::compute_block_auto);
  EXPECT_EQ(sw::find_kernel("simd"),
            &sw::compute_block_simd<sw::SimdWidth::kI32>);
  EXPECT_EQ(sw::find_kernel("simd16"),
            &sw::compute_block_simd<sw::SimdWidth::kI16>);
  EXPECT_EQ(sw::find_kernel("simd8"),
            &sw::compute_block_simd<sw::SimdWidth::kI8>);
}

TEST(KernelRegistryTest, EveryRegisteredKernelHasParityCoverage) {
  // The parity sweep and the overflow tests above iterate the whole
  // registry, so a kernel is covered the moment it registers — but only
  // if the author re-ran this suite. This list is the acknowledgement:
  // registering a kernel without adding it here (and thus without
  // thinking about its parity/overflow coverage) fails the build.
  const std::vector<std::string> covered = {
      "row",           "simd",         "simd16",       "simd8",
      "auto",          "simd-avx512",  "simd-avx2",    "simd-sse42",
      "simd-scalar",   "simd16-avx512", "simd16-avx2", "simd16-sse42",
      "simd16-scalar", "simd8-avx512", "simd8-avx2",   "simd8-sse42",
      "simd8-scalar"};
  for (const sw::KernelInfo& info : sw::kernel_registry()) {
    EXPECT_NE(std::find(covered.begin(), covered.end(), info.name),
              covered.end())
        << "kernel '" << info.name
        << "' registered without parity coverage — add it to "
           "tests/sw_kernel_parity_test.cpp";
  }
}

TEST(KernelRegistryTest, EnvCapHoldsDispatchAtOrBelowItsLevel) {
  // Under MGPUSW_SIMD=avx2|sse4.2|scalar (CI's capped runs) the detected
  // level, and with it every runnable backend, stays at or below the
  // named one, so an AVX-512 host can still run the AVX2 dispatch.
  const char* cap = std::getenv("MGPUSW_SIMD");
  if (cap == nullptr) GTEST_SKIP() << "MGPUSW_SIMD is not set";
  for (const sw::SimdIsa level : {sw::SimdIsa::kScalar, sw::SimdIsa::kSse42,
                                  sw::SimdIsa::kAvx2, sw::SimdIsa::kAvx512}) {
    if (std::string(cap) != sw::simd_isa_name(level)) continue;
    EXPECT_LE(sw::detected_simd_isa(), level) << cap;
    for (const sw::SimdBackend* backend : sw::runnable_simd_backends()) {
      EXPECT_LE(backend->isa, level) << backend->tag;
    }
  }
}

TEST(KernelRegistryTest, DispatchedBackendMatchesDetectedIsa) {
  // The dispatcher may never pick a backend above the detected ISA level.
  const std::string active = sw::active_simd_backend();
  const sw::SimdIsa detected = sw::detected_simd_isa();
  if (active == "avx512") {
    EXPECT_GE(detected, sw::SimdIsa::kAvx512);
  }
  if (active == "avx2") {
    EXPECT_GE(detected, sw::SimdIsa::kAvx2);
  }
  if (active == "sse4.2") {
    EXPECT_GE(detected, sw::SimdIsa::kSse42);
  }
}

}  // namespace
}  // namespace mgpusw
