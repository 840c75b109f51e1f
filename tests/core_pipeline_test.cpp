// Tests for the retrieval pipeline, batch runner, progress reporting,
// disk-spilled special rows and the anti-diagonal kernel inside the
// engine.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <mutex>

#include "base/error.hpp"
#include "core/batch.hpp"
#include "core/engine.hpp"
#include "core/fleet.hpp"
#include "core/pipeline.hpp"
#include "core/special_rows.hpp"
#include "sw/linear.hpp"
#include "sw/reference.hpp"
#include "tests/test_util.hpp"
#include "vgpu/device.hpp"
#include "vgpu/spec.hpp"

namespace mgpusw {
namespace {

using core::EngineConfig;

EngineConfig small_config() {
  EngineConfig config;
  config.block_rows = 32;
  config.block_cols = 32;
  return config;
}

// ---------------------------------------------------------------------------
// AlignmentPipeline

TEST(PipelineTest, RetrievesValidatedAlignment) {
  vgpu::Device d0(vgpu::toy_device(10.0));
  vgpu::Device d1(vgpu::toy_device(20.0));
  core::AlignmentPipeline pipeline(small_config(), {&d0, &d1});
  auto [a, b] = testutil::related_pair(400, 3);
  const core::PipelineResult result = pipeline.align(a, b);

  const auto expected = sw::reference_score(sw::ScoreScheme{}, a, b);
  EXPECT_EQ(result.stage1.best, expected);
  ASSERT_GT(result.alignment.score, 0);
  EXPECT_EQ(result.alignment.score, expected.score);
  sw::validate_alignment(sw::ScoreScheme{}, a, b, result.alignment);
  EXPECT_EQ(result.alignment.query_end - 1, expected.end.row);
  EXPECT_EQ(result.start.row, result.alignment.query_begin);
}

TEST(PipelineTest, EmptyAlignmentShortCircuits) {
  vgpu::Device device(vgpu::toy_device(10.0));
  core::AlignmentPipeline pipeline(small_config(), {&device});
  const seq::Sequence a("a", "AAAAAAAA");
  const seq::Sequence b("b", "TTTTTTTT");
  const core::PipelineResult result = pipeline.align(a, b);
  EXPECT_EQ(result.stage1.best.score, 0);
  EXPECT_TRUE(result.alignment.ops.empty());
  EXPECT_EQ(result.start, (sw::CellPos{-1, -1}));
}

TEST(PipelineTest, RegionGuardThrows) {
  vgpu::Device device(vgpu::toy_device(10.0));
  core::AlignmentPipeline pipeline(small_config(), {&device},
                                   /*max_region_cells=*/100);
  auto [a, b] = testutil::related_pair(300, 4);
  EXPECT_THROW((void)pipeline.align(a, b), InvalidArgument);
}

class PipelineProperty : public ::testing::TestWithParam<int> {};

TEST_P(PipelineProperty, ScoreAndOpsConsistent) {
  const int seed = GetParam();
  vgpu::Device d0(vgpu::toy_device(10.0));
  vgpu::Device d1(vgpu::toy_device(15.0));
  vgpu::Device d2(vgpu::toy_device(25.0));
  core::AlignmentPipeline pipeline(small_config(), {&d0, &d1, &d2});
  auto [a, b] = testutil::related_pair(
      250 + seed * 31, static_cast<std::uint64_t>(seed) + 40);
  const core::PipelineResult result = pipeline.align(a, b);
  const auto expected = sw::linear_score(sw::ScoreScheme{}, a, b);
  EXPECT_EQ(result.stage1.best, expected);
  if (expected.score > 0) {
    EXPECT_EQ(result.alignment.score, expected.score);
    sw::validate_alignment(sw::ScoreScheme{}, a, b, result.alignment);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty, ::testing::Range(0, 6));

// ---------------------------------------------------------------------------
// engine with a non-default kernel: the int16 anti-diagonal SIMD ladder
// must reach the runner and stay bit-identical to the row scan

class AntidiagEngine : public ::testing::TestWithParam<int> {};

TEST_P(AntidiagEngine, MatchesRowScanKernel) {
  const int seed = GetParam();
  auto [a, b] = testutil::related_pair(
      300, static_cast<std::uint64_t>(seed) + 60);
  vgpu::Device d0(vgpu::toy_device(10.0));
  vgpu::Device d1(vgpu::toy_device(20.0));

  EngineConfig config = small_config();
  config.kernel = "simd16";
  core::MultiDeviceEngine engine(config, {&d0, &d1});
  EXPECT_EQ(engine.run(a, b).best,
            sw::linear_score(config.scheme, a, b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AntidiagEngine, ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// progress reporting

TEST(ProgressTest, RowMajorEmitsPerBlockRow) {
  vgpu::Device d0(vgpu::toy_device(10.0));
  vgpu::Device d1(vgpu::toy_device(10.0));
  EngineConfig config = small_config();  // 32-row blocks

  std::mutex mu;
  std::vector<core::ProgressEvent> events;
  config.progress = [&](const core::ProgressEvent& event) {
    std::lock_guard lock(mu);
    events.push_back(event);
  };
  core::MultiDeviceEngine engine(config, {&d0, &d1});
  auto [a, b] = testutil::related_pair(320, 9);  // 10 block rows
  (void)engine.run(a, b);

  // Each of the two devices reports 10 block rows.
  ASSERT_EQ(events.size(), 20u);
  std::int64_t final_per_device[2] = {0, 0};
  for (const auto& event : events) {
    ASSERT_GE(event.device_index, 0);
    ASSERT_LT(event.device_index, 2);
    EXPECT_EQ(event.total_units, 10);
    EXPECT_GE(event.completed_units, 1);
    EXPECT_LE(event.completed_units, 10);
    final_per_device[event.device_index] =
        std::max(final_per_device[event.device_index],
                 event.completed_units);
  }
  EXPECT_EQ(final_per_device[0], 10);
  EXPECT_EQ(final_per_device[1], 10);
}

// ---------------------------------------------------------------------------
// disk-spilled special rows

class DiskStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mgpusw_srw_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

TEST_F(DiskStoreTest, SpillAndAssemble) {
  core::SpecialRowStore store(dir_.string());
  EXPECT_TRUE(store.spills_to_disk());
  store.save_segment(5, 3, {30, 40});
  store.save_segment(5, 0, {0, 10, 20});
  EXPECT_EQ(store.assemble_row(5, 5),
            (std::vector<sw::Score>{0, 10, 20, 30, 40}));
  EXPECT_EQ(store.rows(), (std::vector<std::int64_t>{5}));
  EXPECT_EQ(store.bytes(),
            static_cast<std::int64_t>(5 * sizeof(sw::Score)));
}

TEST_F(DiskStoreTest, MatchesMemoryStoreThroughEngine) {
  core::SpecialRowStore disk(dir_.string());
  core::SpecialRowStore memory;
  auto [a, b] = testutil::related_pair(320, 20);

  for (core::SpecialRowStore* store : {&disk, &memory}) {
    vgpu::Device d0(vgpu::toy_device(10.0));
    vgpu::Device d1(vgpu::toy_device(20.0));
    EngineConfig config = small_config();
    config.special_row_interval = 2;
    config.special_rows = store;
    core::MultiDeviceEngine engine(config, {&d0, &d1});
    (void)engine.run(a, b);
  }
  ASSERT_EQ(disk.rows(), memory.rows());
  for (const std::int64_t row : disk.rows()) {
    EXPECT_EQ(disk.assemble_row(row, b.size()),
              memory.assemble_row(row, b.size()))
        << "row " << row;
  }
}

TEST_F(DiskStoreTest, ClearRemovesFiles) {
  core::SpecialRowStore store(dir_.string());
  store.save_segment(1, 0, {1, 2, 3});
  const auto file = dir_ / "row_1.srw";
  EXPECT_TRUE(std::filesystem::exists(file));
  store.clear();
  EXPECT_FALSE(std::filesystem::exists(file));
  EXPECT_TRUE(store.rows().empty());
}

TEST_F(DiskStoreTest, GapDetectedOnDisk) {
  core::SpecialRowStore store(dir_.string());
  store.save_segment(2, 0, {1});
  store.save_segment(2, 5, {6});
  EXPECT_THROW((void)store.assemble_row(2, 6), InternalError);
}

// ---------------------------------------------------------------------------
// batch runner

/// The paper's evaluation mode: every item spans all `devices`, one item
/// at a time.
core::BatchResult run_sequential(const std::vector<vgpu::Device*>& devices,
                                 const std::vector<core::BatchItem>& items) {
  core::DeviceFleet fleet(devices);
  core::BatchConfig config;
  config.engine = small_config();
  config.devices_per_item = 0;
  config.max_in_flight = 1;
  return core::run_batch(config, fleet, items);
}

TEST(BatchTest, RunsAllItemsAndAggregates) {
  vgpu::Device d0(vgpu::toy_device(10.0));
  vgpu::Device d1(vgpu::toy_device(20.0));

  std::vector<core::BatchItem> items;
  for (int seed = 0; seed < 3; ++seed) {
    auto [a, b] = testutil::related_pair(
        200 + 40 * seed, static_cast<std::uint64_t>(seed) + 70);
    items.push_back(core::BatchItem{"pair" + std::to_string(seed),
                                    std::move(a), std::move(b)});
  }
  const core::BatchResult batch = run_sequential({&d0, &d1}, items);

  ASSERT_EQ(batch.items.size(), 3u);
  std::int64_t cells = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(batch.items[k].label, items[k].label);
    EXPECT_EQ(batch.items[k].result.best,
              sw::linear_score(sw::ScoreScheme{}, items[k].query,
                               items[k].subject));
    cells += batch.items[k].result.matrix_cells;
  }
  EXPECT_EQ(batch.total_cells, cells);
  EXPECT_GT(batch.gcups(), 0.0);
}

TEST(BatchTest, EmptyBatchThrows) {
  vgpu::Device device(vgpu::toy_device(10.0));
  EXPECT_THROW((void)run_sequential({&device}, {}),
               InvalidArgument);
}

}  // namespace
}  // namespace mgpusw
