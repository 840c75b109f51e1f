#include <gtest/gtest.h>

#include <numeric>

#include "base/error.hpp"
#include "core/partition.hpp"

namespace mgpusw {
namespace {

void expect_tiles(const std::vector<core::ColumnRange>& ranges,
                  std::int64_t total_cols) {
  ASSERT_FALSE(ranges.empty());
  EXPECT_EQ(ranges.front().first_col, 0);
  for (std::size_t d = 0; d + 1 < ranges.size(); ++d) {
    EXPECT_EQ(ranges[d].end_col(), ranges[d + 1].first_col);
  }
  EXPECT_EQ(ranges.back().end_col(), total_cols);
  for (const auto& range : ranges) {
    EXPECT_GT(range.cols, 0);
  }
}

TEST(PartitionTest, SingleDeviceTakesAll) {
  const auto ranges = core::partition_columns(1000, {1.0}, 64);
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (core::ColumnRange{0, 1000}));
}

TEST(PartitionTest, EqualWeightsNearEqualSplit) {
  const auto ranges = core::partition_columns(1200, {1.0, 1.0, 1.0}, 100);
  expect_tiles(ranges, 1200);
  EXPECT_EQ(ranges[0].cols, 400);
  EXPECT_EQ(ranges[1].cols, 400);
  EXPECT_EQ(ranges[2].cols, 400);
}

TEST(PartitionTest, ProportionalToWeights) {
  const auto ranges = core::partition_columns(4000, {1.0, 3.0}, 100);
  expect_tiles(ranges, 4000);
  EXPECT_EQ(ranges[0].cols, 1000);
  EXPECT_EQ(ranges[1].cols, 3000);
}

TEST(PartitionTest, GranularityRespectedExceptLast) {
  const auto ranges = core::partition_columns(1050, {1.0, 1.0}, 100);
  expect_tiles(ranges, 1050);
  EXPECT_EQ(ranges[0].cols % 100, 0);
  // The last device absorbs the remainder (not necessarily a multiple).
}

TEST(PartitionTest, EveryDeviceGetsAtLeastOneUnit) {
  // Extreme weights: the slow device must still receive one block column.
  const auto ranges = core::partition_columns(1000, {0.001, 1000.0}, 100);
  expect_tiles(ranges, 1000);
  EXPECT_GE(ranges[0].cols, 100);
}

TEST(PartitionTest, HeterogeneousPaperRatio) {
  // 33 : 50 : 57.5 (environment 1) over ~64k columns.
  const auto ranges =
      core::partition_columns(65536, {33.0, 50.0, 57.5}, 512);
  expect_tiles(ranges, 65536);
  const double total = 33.0 + 50.0 + 57.5;
  EXPECT_NEAR(static_cast<double>(ranges[0].cols) / 65536.0, 33.0 / total,
              0.02);
  EXPECT_NEAR(static_cast<double>(ranges[1].cols) / 65536.0, 50.0 / total,
              0.02);
  EXPECT_NEAR(static_cast<double>(ranges[2].cols) / 65536.0, 57.5 / total,
              0.02);
}

TEST(PartitionTest, RejectsBadArguments) {
  EXPECT_THROW(core::partition_columns(0, {1.0}, 10), InvalidArgument);
  EXPECT_THROW(core::partition_columns(100, {}, 10), InvalidArgument);
  EXPECT_THROW(core::partition_columns(100, {1.0, -1.0}, 10),
               InvalidArgument);
  EXPECT_THROW(core::partition_columns(100, {1.0}, 0), InvalidArgument);
  // 100 columns at granularity 100 = one unit, but two devices.
  EXPECT_THROW(core::partition_columns(100, {1.0, 1.0}, 100),
               InvalidArgument);
}

// Property sweep: tiling invariants hold for many shapes/weights.
class PartitionProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(PartitionProperty, TilesExactly) {
  const auto [total_scale, devices, granularity] = GetParam();
  const std::int64_t total = 997LL * total_scale + devices * granularity;
  std::vector<double> weights;
  for (int d = 0; d < devices; ++d) {
    weights.push_back(1.0 + 0.7 * d);
  }
  const auto ranges = core::partition_columns(total, weights, granularity);
  ASSERT_EQ(ranges.size(), static_cast<std::size_t>(devices));
  expect_tiles(ranges, total);
  // All but the last are granularity-aligned.
  for (std::size_t d = 0; d + 1 < ranges.size(); ++d) {
    EXPECT_EQ(ranges[d].first_col % granularity, 0);
    EXPECT_EQ(ranges[d].cols % granularity, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PartitionProperty,
    ::testing::Combine(::testing::Values(1, 3, 17),
                       ::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(1, 7, 64, 512)));

TEST(PartitionTest, DeterministicForEqualRemainders) {
  const auto a = core::partition_columns(1000, {1.0, 1.0, 1.0}, 1);
  const auto b = core::partition_columns(1000, {1.0, 1.0, 1.0}, 1);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace mgpusw
