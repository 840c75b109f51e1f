// Recovery layer tests — the headline robustness property: a run that
// loses a device (or a border chunk) mid-flight and recovers must
// produce a bit-identical result to a run that never failed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "base/error.hpp"
#include "base/log.hpp"
#include "core/batch.hpp"
#include "core/engine.hpp"
#include "core/fleet.hpp"
#include "core/recovery.hpp"
#include "core/report.hpp"
#include "sw/linear.hpp"
#include "tests/test_util.hpp"
#include "vgpu/device.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/spec.hpp"

namespace mgpusw {
namespace {

using core::BatchConfig;
using core::BatchItem;
using core::DeviceFleet;
using core::EngineConfig;
using core::MultiDeviceEngine;
using core::RecoveryExhaustedError;
using core::RecoveryPolicy;
using core::RecoveryResult;
using core::run_with_recovery;
using vgpu::FaultInjector;
using vgpu::parse_fault_plan;

EngineConfig small_blocks(core::Transport transport) {
  EngineConfig config;
  config.block_rows = 32;
  config.block_cols = 32;
  config.transport = transport;
  if (transport == core::Transport::kTcp) config.comm_timeout_ms = 5000;
  return config;
}

/// Three heterogeneous devices, as in the paper's mixed-GPU hosts.
struct Pool3 {
  vgpu::Device d0{vgpu::toy_device(10.0)};
  vgpu::Device d1{vgpu::toy_device(16.0)};
  vgpu::Device d2{vgpu::toy_device(22.0)};
  std::vector<vgpu::Device*> all() { return {&d0, &d1, &d2}; }
};

// ---------------------------------------------------------------------------
// Headline: injected mid-run device death on a 3-device heterogeneous
// pool completes on the surviving 2 and is bit-identical to an unfailed
// run — for both transports.

class RecoveryMatrix : public ::testing::TestWithParam<core::Transport> {};

TEST_P(RecoveryMatrix, DeviceDeathRecoversBitIdentically) {
  auto [a, b] = testutil::related_pair(320, 201);
  EngineConfig config = small_blocks(GetParam());

  Pool3 pool;
  MultiDeviceEngine reference(config, pool.all());
  const auto expected = reference.run(a, b);
  EXPECT_EQ(expected.best, sw::linear_score(sw::ScoreScheme{}, a, b));

  FaultInjector injector(parse_fault_plan("dev1:die@kernel=12"));
  config.fault = &injector;
  RecoveryPolicy policy;
  policy.max_restarts = 2;
  const RecoveryResult recovered =
      run_with_recovery(config, pool.all(), a, b, policy);

  EXPECT_EQ(recovered.result.best, expected.best);
  EXPECT_EQ(recovered.restarts, 1);
  ASSERT_EQ(recovered.lost_devices.size(), 1u);
  EXPECT_EQ(recovered.lost_devices[0], pool.d1.spec().name);
  // The recovered attempt ran on the surviving two devices.
  EXPECT_EQ(recovered.result.devices.size(), 2u);
  EXPECT_GE(injector.fired(), 1);
  EXPECT_TRUE(injector.device_dead(1));
}

INSTANTIATE_TEST_SUITE_P(
    Transports, RecoveryMatrix,
    ::testing::Values(core::Transport::kInProcess, core::Transport::kTcp),
    [](const auto& info) {
      return std::string(info.param == core::Transport::kInProcess ? "Ring"
                                                                   : "Tcp");
    });

// A restart after a device death meets checkpoint rows the dead device
// never finished. Skipping them is routine: a debug note, never an
// internal-check failure on stderr at the default log level.
TEST(RecoveryTest, SkippedCheckpointRowsStayOffStderr) {
  auto [a, b] = testutil::related_pair(320, 206);
  const auto recover = [&a, &b] {
    EngineConfig config = small_blocks(core::Transport::kInProcess);
    Pool3 pool;
    FaultInjector injector(parse_fault_plan("dev1:die@kernel=12"));
    config.fault = &injector;
    config.buffer_capacity = 8;  // device 0 runs rows ahead of device 1
    RecoveryPolicy policy;
    policy.max_restarts = 2;
    policy.checkpoint_interval = 1;
    testing::internal::CaptureStderr();
    const RecoveryResult recovered =
        run_with_recovery(config, pool.all(), a, b, policy);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(recovered.restarts, 1);
    EXPECT_EQ(recovered.result.best,
              sw::linear_score(sw::ScoreScheme{}, a, b));
    return err;
  };
  const base::LogLevel level = base::log_level();
  EXPECT_EQ(recover().find("MGPUSW_CHECK failed"), std::string::npos);
  // The same restart at debug level shows the rows were there to skip.
  base::set_log_level(base::LogLevel::kDebug);
  const std::string debug = recover();
  base::set_log_level(level);
  EXPECT_NE(debug.find("skipping special row"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Transient faults: retried on the full pool, nothing lost.

TEST(RecoveryTest, DroppedBorderChunkIsRetried) {
  auto [a, b] = testutil::related_pair(320, 202);
  EngineConfig config =
      small_blocks(core::Transport::kInProcess);
  vgpu::Device d0(vgpu::toy_device(10.0));
  vgpu::Device d1(vgpu::toy_device(14.0));

  MultiDeviceEngine reference(config, {&d0, &d1});
  const auto expected = reference.run(a, b);

  FaultInjector injector(parse_fault_plan("chan0:drop@chunk=2"));
  config.fault = &injector;
  const RecoveryResult recovered =
      run_with_recovery(config, {&d0, &d1}, a, b);

  EXPECT_EQ(recovered.result.best, expected.best);
  EXPECT_EQ(recovered.restarts, 1);
  EXPECT_TRUE(recovered.lost_devices.empty());
  EXPECT_EQ(recovered.result.devices.size(), 2u);  // nobody left the pool
  EXPECT_EQ(injector.fired(), 1);
}

TEST(RecoveryTest, CorruptedChunkIsDetectedAndRetried) {
  auto [a, b] = testutil::related_pair(320, 203);
  EngineConfig config =
      small_blocks(core::Transport::kInProcess);
  vgpu::Device d0(vgpu::toy_device(10.0));
  vgpu::Device d1(vgpu::toy_device(14.0));

  MultiDeviceEngine reference(config, {&d0, &d1});
  const auto expected = reference.run(a, b);

  FaultInjector injector(parse_fault_plan("chan0:corrupt@chunk=1"));
  config.fault = &injector;
  const RecoveryResult recovered =
      run_with_recovery(config, {&d0, &d1}, a, b);
  EXPECT_EQ(recovered.result.best, expected.best);
  EXPECT_EQ(recovered.restarts, 1);
}

TEST(RecoveryTest, TransientKernelFailureIsRetried) {
  auto [a, b] = testutil::related_pair(288, 204);
  EngineConfig config =
      small_blocks(core::Transport::kInProcess);
  vgpu::Device device(vgpu::toy_device(12.0));

  MultiDeviceEngine reference(config, {&device});
  const auto expected = reference.run(a, b);

  FaultInjector injector(parse_fault_plan("dev0:kernel-fail@kernel=9"));
  config.fault = &injector;
  const RecoveryResult recovered =
      run_with_recovery(config, {&device}, a, b);
  EXPECT_EQ(recovered.result.best, expected.best);
  EXPECT_EQ(recovered.restarts, 1);
  EXPECT_TRUE(recovered.lost_devices.empty());
}

TEST(RecoveryTest, AllocationDeathRemovesTheDevice) {
  auto [a, b] = testutil::related_pair(288, 205);
  EngineConfig config =
      small_blocks(core::Transport::kInProcess);
  vgpu::Device d0(vgpu::toy_device(10.0));
  vgpu::Device d1(vgpu::toy_device(14.0));

  MultiDeviceEngine reference(config, {&d0, &d1});
  const auto expected = reference.run(a, b);

  // Device 1's very first allocation (its border arrays) kills it.
  FaultInjector injector(parse_fault_plan("dev1:alloc-fail@bytes=1"));
  config.fault = &injector;
  const RecoveryResult recovered =
      run_with_recovery(config, {&d0, &d1}, a, b);
  EXPECT_EQ(recovered.result.best, expected.best);
  ASSERT_EQ(recovered.lost_devices.size(), 1u);
  EXPECT_EQ(recovered.lost_devices[0], d1.spec().name);
  EXPECT_EQ(recovered.result.devices.size(), 1u);
}

// ---------------------------------------------------------------------------
// Exhaustion: structured failure, never a hang.

TEST(RecoveryTest, ExhaustedPolicyThrowsStructuredError) {
  auto [a, b] = testutil::related_pair(288, 206);
  EngineConfig config =
      small_blocks(core::Transport::kInProcess);
  vgpu::Device device(vgpu::toy_device(12.0));

  // One-shot transient fault but zero restarts allowed.
  FaultInjector injector(parse_fault_plan("dev0:kernel-fail@kernel=3"));
  config.fault = &injector;
  RecoveryPolicy policy;
  policy.max_restarts = 0;
  try {
    (void)run_with_recovery(config, {&device}, a, b, policy);
    FAIL() << "expected RecoveryExhaustedError";
  } catch (const RecoveryExhaustedError& e) {
    EXPECT_EQ(e.restarts(), 0);
    EXPECT_NE(std::string(e.what()).find("recovery exhausted"),
              std::string::npos);
  }
}

TEST(RecoveryTest, NoSurvivingDevicesThrowsExhausted) {
  auto [a, b] = testutil::related_pair(288, 207);
  EngineConfig config =
      small_blocks(core::Transport::kInProcess);
  vgpu::Device device(vgpu::toy_device(12.0));

  FaultInjector injector(parse_fault_plan("dev0:die@kernel=0"));
  config.fault = &injector;
  EXPECT_THROW((void)run_with_recovery(config, {&device}, a, b),
               RecoveryExhaustedError);
}

TEST(RecoveryTest, FatalErrorsPassThroughUnchanged) {
  auto [a, b] = testutil::related_pair(288, 208);
  EngineConfig config =
      small_blocks(core::Transport::kInProcess);
  config.kernel = "no-such-kernel";
  vgpu::Device device(vgpu::toy_device(12.0));
  EXPECT_THROW((void)run_with_recovery(config, {&device}, a, b),
               InvalidArgument);
}

TEST(RecoveryTest, ProgressEventsCarryRestartCounts) {
  auto [a, b] = testutil::related_pair(288, 209);
  EngineConfig config =
      small_blocks(core::Transport::kInProcess);
  vgpu::Device device(vgpu::toy_device(12.0));
  std::atomic<int> max_restarts_seen{-1};
  config.progress = [&](const core::ProgressEvent& event) {
    int seen = max_restarts_seen.load();
    while (event.restarts > seen &&
           !max_restarts_seen.compare_exchange_weak(seen, event.restarts)) {
    }
  };
  FaultInjector injector(parse_fault_plan("dev0:kernel-fail@kernel=5"));
  config.fault = &injector;
  const RecoveryResult recovered =
      run_with_recovery(config, {&device}, a, b);
  EXPECT_EQ(recovered.restarts, 1);
  EXPECT_EQ(max_restarts_seen.load(), 1);
}

// ---------------------------------------------------------------------------
// Fleet health

TEST(FleetHealthTest, UnhealthyDevicesAreNeverLeased) {
  Pool3 pool;
  DeviceFleet fleet(pool.all());
  EXPECT_EQ(fleet.healthy_count(), 3u);
  fleet.mark_unhealthy(&pool.d1);
  EXPECT_EQ(fleet.healthy_count(), 2u);
  EXPECT_EQ(fleet.available(), 2u);

  core::DeviceLease lease = fleet.acquire(2);
  for (vgpu::Device* device : lease.devices()) {
    EXPECT_NE(device, &pool.d1);
  }
}

TEST(FleetHealthTest, AcquireBeyondHealthyCountThrows) {
  Pool3 pool;
  DeviceFleet fleet(pool.all());
  fleet.mark_unhealthy(&pool.d0);
  EXPECT_THROW((void)fleet.acquire(3), Error);
  EXPECT_EQ(fleet.try_acquire(3), std::nullopt);
  // The FIFO head moved past the failed request; later acquires work.
  core::DeviceLease lease = fleet.acquire(2);
  EXPECT_TRUE(lease.valid());
}

// ---------------------------------------------------------------------------
// Batch integration: the degraded pool keeps serving the rest of the
// batch, restart counts reach the item results and the JSON report.

TEST(BatchRecoveryTest, BatchSurvivesDeviceDeathOnDegradedPool) {
  auto [a0, b0] = testutil::related_pair(320, 210);
  auto [a1, b1] = testutil::related_pair(288, 211);
  std::vector<BatchItem> items;
  items.push_back({"first", a0, b0});
  items.push_back({"second", a1, b1});

  EngineConfig engine_config =
      small_blocks(core::Transport::kInProcess);

  // Unfailed reference scores.
  std::vector<sw::ScoreResult> expected;
  for (const BatchItem& item : items) {
    expected.push_back(
        sw::linear_score(sw::ScoreScheme{}, item.query, item.subject));
  }

  Pool3 pool;
  DeviceFleet fleet(pool.all());
  // The last-armed device (ordinal 2) dies during the first item.
  FaultInjector injector(parse_fault_plan("dev2:die@kernel=10"));
  BatchConfig config;
  config.engine = engine_config;
  config.engine.fault = &injector;
  config.devices_per_item = 0;  // span whatever the fleet can grant
  config.max_in_flight = 1;
  config.enable_recovery = true;
  config.recovery.max_restarts = 2;

  const core::BatchResult batch = run_batch(config, fleet, items);
  ASSERT_EQ(batch.items.size(), 2u);
  EXPECT_EQ(batch.items[0].result.best, expected[0]);
  EXPECT_EQ(batch.items[1].result.best, expected[1]);
  EXPECT_EQ(batch.items[0].restarts, 1);
  ASSERT_EQ(batch.items[0].lost_devices.size(), 1u);
  EXPECT_EQ(batch.items[0].lost_devices[0], pool.d2.spec().name);
  EXPECT_EQ(batch.items[1].restarts, 0);
  EXPECT_EQ(fleet.healthy_count(), 2u);
  // The second item ran on the surviving two devices.
  EXPECT_EQ(batch.items[1].result.devices.size(), 2u);
}

// ---------------------------------------------------------------------------
// Cross-process resume: a ResumeSpec seeded from a disk checkpoint left
// by a "crashed" first run recovers bit-identically — the contract the
// serve layer's durable journal builds on.

TEST(RecoveryTest, ResumeSpecFromDiskCheckpointIsBitIdentical) {
  auto [a, b] = testutil::related_pair(320, 211);
  const std::string dir =
      ::testing::TempDir() + "resume_spec_checkpoints";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Pool3 pool;

  EngineConfig reference_config =
      small_blocks(core::Transport::kInProcess);
  MultiDeviceEngine reference(reference_config, pool.all());
  const auto expected = reference.run(a, b);

  // First life: checkpoint to disk and capture a mid-run durable pair
  // exactly the way the daemon folds it — min(safe_row) across the
  // devices of the attempt plus the merged bests.
  core::SpecialRowStore store(dir);
  std::mutex mu;
  std::map<int, std::pair<std::int64_t, sw::ScoreResult>> safe;
  std::int64_t captured_row = -1;
  sw::ScoreResult captured_best;
  EngineConfig first_config = reference_config;
  first_config.special_rows = &store;
  first_config.special_row_interval = 2;
  first_config.checkpoint_f = true;
  first_config.progress = [&](const core::ProgressEvent& event) {
    std::lock_guard<std::mutex> lock(mu);
    safe[event.device_index] = {event.safe_row, event.best};
    if (static_cast<int>(safe.size()) < event.device_count) return;
    std::int64_t row = event.safe_row;
    sw::ScoreResult best;
    for (const auto& [device, pair] : safe) {
      row = std::min(row, pair.first);
      if (sw::improves(pair.second, best)) best = pair.second;
    }
    if (row >= 160 && captured_row < 0) {
      captured_row = row;
      captured_best = best;
    }
  };
  const RecoveryResult first =
      run_with_recovery(first_config, pool.all(), a, b);
  EXPECT_EQ(first.result.best, expected.best);
  ASSERT_GE(captured_row, 160);

  // Second life: a fresh store revives the spill files, the resume row
  // is probed at or below the captured pair, and the run completes
  // from there with the carried best merged in.
  core::SpecialRowStore revived(dir);
  (void)revived.recover_existing();
  const std::int64_t rows = static_cast<std::int64_t>(a.size());
  const std::int64_t cols = static_cast<std::int64_t>(b.size());
  const std::int64_t probe = revived.last_restartable_row(
      cols, std::min(captured_row + 1, rows - 1));
  ASSERT_GT(probe, 0);
  core::ResumeSpec resume;
  resume.row = probe;
  resume.carried_best = captured_best;
  EngineConfig second_config = reference_config;
  second_config.special_rows = &revived;
  second_config.special_row_interval = 2;
  second_config.checkpoint_f = true;
  const RecoveryResult second = run_with_recovery(
      second_config, pool.all(), a, b, RecoveryPolicy{},
      /*fleet=*/nullptr, &resume);
  EXPECT_EQ(second.result.best, expected.best);
}

TEST(RecoveryTest, ReportCarriesRecoveryFields) {
  RecoveryResult result;
  result.restarts = 2;
  result.lost_devices = {"toy-a", "toy-b"};
  result.result.best.score = 42;
  const std::string json = core::to_json(result);
  EXPECT_NE(json.find("\"restarts\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"toy-a\", \"toy-b\""), std::string::npos);
  EXPECT_NE(json.find("\"score\": 42"), std::string::npos);
}

}  // namespace
}  // namespace mgpusw
