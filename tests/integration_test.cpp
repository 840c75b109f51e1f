// Cross-feature integration tests: combinations of transport, kernel,
// pruning, checkpointing and the retrieval pipeline that the per-feature
// suites exercise only in isolation.
#include <gtest/gtest.h>

#include <memory>

#include "base/error.hpp"
#include "core/batch.hpp"
#include "core/engine.hpp"
#include "core/fleet.hpp"
#include "core/pipeline.hpp"
#include "core/special_rows.hpp"
#include "sw/linear.hpp"
#include "tests/test_util.hpp"
#include "vgpu/device.hpp"
#include "vgpu/spec.hpp"

namespace mgpusw {
namespace {

using core::EngineConfig;
using core::MultiDeviceEngine;

struct Fleet {
  explicit Fleet(int count) {
    for (int d = 0; d < count; ++d) {
      devices.push_back(std::make_unique<vgpu::Device>(
          vgpu::toy_device(8.0 + 4.0 * d)));
      pointers.push_back(devices.back().get());
    }
  }
  std::vector<std::unique_ptr<vgpu::Device>> devices;
  std::vector<vgpu::Device*> pointers;
};

TEST(IntegrationTest, TcpAntidiagPruningCombo) {
  auto [a, b] = testutil::related_pair(400, 200);
  Fleet fleet(3);
  EngineConfig config;
  config.block_rows = 32;
  config.block_cols = 32;
  config.buffer_capacity = 2;
  config.transport = core::Transport::kTcp;
  config.kernel = "simd16";
  config.enable_pruning = true;
  MultiDeviceEngine engine(config, fleet.pointers);
  EXPECT_EQ(engine.run(a, b).best.score,
            sw::linear_score(config.scheme, a, b).score);
}

TEST(IntegrationTest, PruningKeepsSpecialRowsGapFree) {
  // Pruned blocks must still contribute (zeroed) segments so checkpoint
  // rows assemble without gaps.
  const seq::Sequence s = testutil::random_sequence(640, 201);
  Fleet fleet(2);
  core::SpecialRowStore store;
  EngineConfig config;
  config.block_rows = 32;
  config.block_cols = 32;
  config.enable_pruning = true;
  config.special_row_interval = 2;
  config.special_rows = &store;
  config.checkpoint_f = true;
  MultiDeviceEngine engine(config, fleet.pointers);
  const auto full = engine.run(s, s);
  EXPECT_EQ(full.best.score, 640);  // self comparison
  std::int64_t pruned = 0;
  for (const auto& device : full.devices) pruned += device.pruned_blocks;
  ASSERT_GT(pruned, 0) << "test needs pruning to actually fire";

  for (const std::int64_t row : store.rows()) {
    EXPECT_EQ(static_cast<std::int64_t>(
                  store.assemble_row(row, s.size()).size()),
              s.size());
  }

  // Resume from a mid checkpoint under pruning: the exact score must
  // survive (the zeroed borders propagate the same pruned state).
  const auto rows = store.rows();
  const std::int64_t mid = rows[rows.size() / 2];
  if (mid + 1 < s.size()) {
    const auto resumed = engine.resume(s, s, store, mid);
    // Self comparison: the optimum is at the bottom-right corner, inside
    // every resumed region.
    EXPECT_EQ(resumed.best.score, full.best.score);
  }
}

TEST(IntegrationTest, PipelineOverTcpWithAntidiagKernel) {
  Fleet fleet(2);
  EngineConfig config;
  config.block_rows = 32;
  config.block_cols = 32;
  config.transport = core::Transport::kTcp;
  config.kernel = "simd16";
  core::AlignmentPipeline pipeline(config, fleet.pointers);
  auto [a, b] = testutil::related_pair(300, 202);
  const auto result = pipeline.align(a, b);
  const auto expected = sw::linear_score(config.scheme, a, b);
  EXPECT_EQ(result.stage1.best, expected);
  if (expected.score > 0) {
    sw::validate_alignment(config.scheme, a, b, result.alignment);
  }
}

TEST(IntegrationTest, BatchWithProgress) {
  Fleet fleet(2);
  EngineConfig config;
  config.block_rows = 32;
  config.block_cols = 32;
  std::atomic<std::int64_t> events{0};
  config.progress = [&](const core::ProgressEvent&) { events.fetch_add(1); };

  std::vector<core::BatchItem> items;
  for (int k = 0; k < 2; ++k) {
    auto [a, b] = testutil::related_pair(
        220 + k * 30, static_cast<std::uint64_t>(k) + 203);
    items.push_back(
        core::BatchItem{std::string("p") + std::to_string(k), a, b});
  }
  core::DeviceFleet devices(fleet.pointers);
  core::BatchConfig batch_config;
  batch_config.engine = config;
  batch_config.devices_per_item = 0;  // every item spans all devices
  batch_config.max_in_flight = 1;
  const auto batch = core::run_batch(batch_config, devices, items);
  for (std::size_t k = 0; k < items.size(); ++k) {
    EXPECT_EQ(batch.items[k].result.best,
              sw::linear_score(config.scheme, items[k].query,
                               items[k].subject));
  }
  EXPECT_GT(events.load(), 0);
}

TEST(IntegrationTest, TinyBufferDeepFleetStress) {
  // 6 devices, buffer capacity 1, small blocks: maximal back-pressure
  // and pipeline depth on one core. Must neither deadlock nor err.
  auto [a, b] = testutil::related_pair(500, 204);
  Fleet fleet(6);
  EngineConfig config;
  config.block_rows = 16;
  config.block_cols = 16;
  config.buffer_capacity = 1;
  MultiDeviceEngine engine(config, fleet.pointers);
  EXPECT_EQ(engine.run(a, b).best,
            sw::linear_score(config.scheme, a, b));
}

TEST(IntegrationTest, RepeatedRunsOnSharedDevicesAccumulateStats) {
  Fleet fleet(2);
  EngineConfig config;
  config.block_rows = 32;
  config.block_cols = 32;
  MultiDeviceEngine engine(config, fleet.pointers);
  auto [a, b] = testutil::related_pair(256, 205);
  const auto expected = sw::linear_score(config.scheme, a, b);
  const std::int64_t kernels_before =
      fleet.pointers[0]->kernels_launched();
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(engine.run(a, b).best, expected) << "round " << round;
  }
  EXPECT_GT(fleet.pointers[0]->kernels_launched(), kernels_before);
}

}  // namespace
}  // namespace mgpusw
