// Batch scheduler tests: the central property is that running a batch
// concurrently (any devices_per_item / max_in_flight split) produces
// bit-identical per-item results to the sequential whole-fleet path — the
// engine's reduction is a total order, so per-item scores cannot depend
// on how the fleet was shared.
#include <gtest/gtest.h>

#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "core/batch.hpp"
#include "core/fleet.hpp"
#include "obs/metrics.hpp"
#include "sw/linear.hpp"
#include "tests/test_util.hpp"
#include "vgpu/spec.hpp"

namespace mgpusw {
namespace {

using core::BatchConfig;
using core::BatchItem;
using core::BatchResult;
using core::DeviceFleet;
using core::EngineConfig;
using core::Transport;

std::vector<BatchItem> test_items() {
  std::vector<BatchItem> items;
  for (int i = 0; i < 4; ++i) {
    auto [a, b] = testutil::related_pair(260 + 40 * i, 40 + i);
    items.push_back(BatchItem{"pair-" + std::to_string(i), a, b});
  }
  return items;
}

EngineConfig small_config() {
  EngineConfig config;
  config.block_rows = 32;
  config.block_cols = 32;
  config.buffer_capacity = 4;
  return config;
}

void expect_identical(const BatchResult& actual,
                      const BatchResult& expected) {
  ASSERT_EQ(actual.items.size(), expected.items.size());
  for (std::size_t i = 0; i < actual.items.size(); ++i) {
    EXPECT_EQ(actual.items[i].label, expected.items[i].label);
    EXPECT_EQ(actual.items[i].result.best, expected.items[i].result.best)
        << "item " << actual.items[i].label;
    EXPECT_EQ(actual.items[i].result.matrix_cells,
              expected.items[i].result.matrix_cells);
    EXPECT_EQ(actual.items[i].result.computed_cells,
              expected.items[i].result.computed_cells);
  }
  EXPECT_EQ(actual.total_cells, expected.total_cells);
}

TEST(BatchPropertyTest, ConcurrentMatchesSequential) {
  const std::vector<BatchItem> items = test_items();
  for (int device_count = 1; device_count <= 4; ++device_count) {
    std::vector<vgpu::DeviceSpec> specs;
    for (int d = 0; d < device_count; ++d) {
      specs.push_back(vgpu::toy_device(10.0 + 5.0 * d));
    }
    for (const Transport transport :
         {Transport::kInProcess, Transport::kTcp}) {
      EngineConfig engine = small_config();
      engine.transport = transport;

      DeviceFleet sequential_fleet = DeviceFleet::from_specs(specs);
      BatchConfig sequential;
      sequential.engine = engine;
      sequential.devices_per_item = 0;  // whole fleet per item
      sequential.max_in_flight = 1;
      const BatchResult baseline =
          run_batch(sequential, sequential_fleet, items);

      // Concurrent: one device per item, everything in flight at once.
      DeviceFleet concurrent_fleet = DeviceFleet::from_specs(specs);
      BatchConfig concurrent;
      concurrent.engine = engine;
      concurrent.devices_per_item = 1;
      concurrent.max_in_flight = 4;
      const BatchResult narrow =
          run_batch(concurrent, concurrent_fleet, items);
      expect_identical(narrow, baseline);

      if (device_count >= 2) {
        // Concurrent with multi-device leases.
        DeviceFleet wide_fleet = DeviceFleet::from_specs(specs);
        BatchConfig wide;
        wide.engine = engine;
        wide.devices_per_item = 2;
        wide.max_in_flight = 2;
        const BatchResult paired = run_batch(wide, wide_fleet, items);
        expect_identical(paired, baseline);
      }
    }
  }
}

TEST(BatchTest, LegacyOverloadMatchesFleetPath) {
  const std::vector<BatchItem> items = test_items();
  std::vector<std::unique_ptr<vgpu::Device>> owned;
  std::vector<vgpu::Device*> pointers;
  for (int d = 0; d < 2; ++d) {
    owned.push_back(
        std::make_unique<vgpu::Device>(vgpu::toy_device(10.0)));
    pointers.push_back(owned.back().get());
  }
  // The paper's evaluation mode, which the former (EngineConfig,
  // devices) overload wrapped: every item spans all devices, one item at
  // a time.
  DeviceFleet sequential_fleet(pointers);
  BatchConfig sequential;
  sequential.engine = small_config();
  sequential.devices_per_item = 0;
  sequential.max_in_flight = 1;
  const BatchResult legacy = run_batch(sequential, sequential_fleet, items);
  EXPECT_GT(legacy.wall_seconds, 0.0);
  EXPECT_GT(legacy.total_seconds, 0.0);
  EXPECT_GT(legacy.gcups(), 0.0);
  EXPECT_GT(legacy.summed_gcups(), 0.0);

  DeviceFleet fleet(pointers);
  BatchConfig config;
  config.engine = small_config();
  const BatchResult direct = run_batch(config, fleet, items);
  expect_identical(direct, legacy);
}

TEST(BatchTest, JobLabelThreadedThroughProgress) {
  const std::vector<BatchItem> items = test_items();
  std::mutex mu;
  std::set<std::string> jobs_seen;

  DeviceFleet fleet = DeviceFleet::from_specs(
      {vgpu::toy_device(10.0), vgpu::toy_device(10.0)});
  BatchConfig config;
  config.engine = small_config();
  config.engine.progress = [&](const core::ProgressEvent& event) {
    std::lock_guard<std::mutex> lock(mu);
    jobs_seen.insert(event.job);
  };
  config.devices_per_item = 1;
  config.max_in_flight = 2;
  (void)run_batch(config, fleet, items);

  for (const BatchItem& item : items) {
    EXPECT_TRUE(jobs_seen.count(item.label))
        << "no progress event carried job " << item.label;
  }
  EXPECT_FALSE(jobs_seen.count(""));
}

TEST(BatchTest, WallTimeMeasuresTheBatch) {
  const std::vector<BatchItem> items = test_items();
  DeviceFleet fleet = DeviceFleet::from_specs({vgpu::toy_device(10.0)});
  BatchConfig config;
  config.engine = small_config();
  const BatchResult result = run_batch(config, fleet, items);
  EXPECT_GT(result.wall_seconds, 0.0);
  // Sequential execution: the batch wall clock covers every item's run.
  EXPECT_GE(result.wall_seconds, result.total_seconds * 0.5);
}

TEST(BatchTest, RejectsBadConfigs) {
  const std::vector<BatchItem> items = test_items();
  DeviceFleet fleet = DeviceFleet::from_specs({vgpu::toy_device(10.0)});
  {
    BatchConfig config;
    config.engine = small_config();
    EXPECT_THROW((void)run_batch(config, fleet, {}), InvalidArgument);
  }
  {
    BatchConfig config;
    config.engine = small_config();
    config.max_in_flight = 0;
    EXPECT_THROW((void)run_batch(config, fleet, items), InvalidArgument);
  }
  {
    BatchConfig config;
    config.engine = small_config();
    config.devices_per_item = 2;  // fleet has one device
    EXPECT_THROW((void)run_batch(config, fleet, items), InvalidArgument);
  }
}

TEST(BatchTest, InterseqPrepassMatchesEnginePath) {
  // Mixed batch: two short pairs (eligible for the inter-sequence SIMD
  // pre-pass) and two long ones (engine path). Scores and end cells must
  // be identical to a run with the pre-pass off, the short items must
  // report the batch kernel's name, and the metrics must attribute them
  // to the pre-pass.
  std::vector<BatchItem> items;
  for (int i = 0; i < 2; ++i) {
    auto [a, b] = testutil::related_pair(120 + 30 * i, 90 + i);
    items.push_back(BatchItem{"short-" + std::to_string(i), a, b});
  }
  for (int i = 0; i < 2; ++i) {
    auto [a, b] = testutil::related_pair(400 + 50 * i, 95 + i);
    items.push_back(BatchItem{"long-" + std::to_string(i), a, b});
  }

  DeviceFleet plain_fleet = DeviceFleet::from_specs(
      {vgpu::toy_device(10.0), vgpu::toy_device(15.0)});
  BatchConfig plain;
  plain.engine = small_config();
  const BatchResult baseline = run_batch(plain, plain_fleet, items);

  obs::MetricsRegistry metrics;
  DeviceFleet prepass_fleet = DeviceFleet::from_specs(
      {vgpu::toy_device(10.0), vgpu::toy_device(15.0)});
  BatchConfig prepass;
  prepass.engine = small_config();
  prepass.engine.obs.metrics = &metrics;
  prepass.interseq_max_len = 200;
  const BatchResult mixed = run_batch(prepass, prepass_fleet, items);

  expect_identical(mixed, baseline);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const bool is_short = i < 2;
    EXPECT_EQ(mixed.items[i].result.kernel,
              is_short ? "interseq" : plain.engine.kernel)
        << items[i].label;
    EXPECT_GT(mixed.items[i].result.wall_seconds, 0.0);
  }
  EXPECT_EQ(metrics.counter_value("batch.interseq_items"), 2);
  EXPECT_EQ(metrics.counter_value("batch.items_completed"), 4);
}

TEST(BatchTest, InterseqPrepassCanHandleWholeBatch) {
  // Every item short enough: the device workers find nothing to do and
  // the batch still completes with exact results.
  std::vector<BatchItem> items;
  for (int i = 0; i < 5; ++i) {
    auto [a, b] = testutil::related_pair(80 + 10 * i, 70 + i);
    items.push_back(BatchItem{"p" + std::to_string(i), a, b});
  }
  DeviceFleet fleet = DeviceFleet::from_specs({vgpu::toy_device(10.0)});
  BatchConfig config;
  config.engine = small_config();
  config.interseq_max_len = 1000;
  const BatchResult result = run_batch(config, fleet, items);
  ASSERT_EQ(result.items.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(result.items[i].result.best,
              sw::linear_score(config.engine.scheme, items[i].query,
                               items[i].subject))
        << items[i].label;
    EXPECT_EQ(result.items[i].result.kernel, "interseq");
  }
  EXPECT_GT(result.total_cells, 0);
}

TEST(BatchTest, ShortSubjectLeasesOnlyDevicesWithBlockColumns) {
  // A 100-base subject is one 128-column block: whole-fleet leases on
  // three devices must shrink to one device instead of failing the
  // partition (and with it the whole batch).
  auto [a, b] = testutil::related_pair(100, 81);
  std::vector<BatchItem> items(1);
  items[0].label = "short";
  items[0].query = a;
  items[0].subject = b;
  DeviceFleet fleet = DeviceFleet::from_specs(
      {vgpu::toy_device(10.0), vgpu::toy_device(15.0),
       vgpu::toy_device(20.0)});
  BatchConfig config;
  config.engine.block_rows = 128;
  config.engine.block_cols = 128;
  for (const bool recovery : {false, true}) {
    config.enable_recovery = recovery;
    const BatchResult result = run_batch(config, fleet, items);
    ASSERT_EQ(result.items.size(), 1u);
    EXPECT_EQ(result.items[0].result.best,
              sw::linear_score(config.engine.scheme, a, b))
        << "recovery=" << recovery;
    EXPECT_EQ(fleet.available(), 3u);
  }
}

TEST(BatchTest, ItemFailureAbortsBatch) {
  // A failing item rethrows from run_batch and releases its lease.
  std::vector<BatchItem> items = test_items();
  items[2].query = seq::Sequence{};  // engine rejects empty sequences
  DeviceFleet fleet = DeviceFleet::from_specs(
      {vgpu::toy_device(10.0), vgpu::toy_device(10.0)});
  BatchConfig config;
  config.engine = small_config();
  config.devices_per_item = 1;
  config.max_in_flight = 2;
  EXPECT_THROW((void)run_batch(config, fleet, items), Error);
  EXPECT_EQ(fleet.available(), 2u);
}

}  // namespace
}  // namespace mgpusw
