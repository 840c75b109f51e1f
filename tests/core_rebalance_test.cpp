// Dynamic load rebalancing tests — rate estimation and hysteresis at the
// unit level, the closed loop (mis-split run → cooperative stop →
// re-split restart) end to end, and the simulator's model of it. The
// headline property mirrors recovery's: a rebalanced run must be
// bit-identical to a run that never re-split.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <tuple>
#include <vector>

#include "base/error.hpp"
#include "core/engine.hpp"
#include "core/rebalance.hpp"
#include "core/recovery.hpp"
#include "core/report.hpp"
#include "sim/pipeline_sim.hpp"
#include "sw/linear.hpp"
#include "tests/test_util.hpp"
#include "vgpu/device.hpp"
#include "vgpu/spec.hpp"

namespace mgpusw {
namespace {

using core::EngineConfig;
using core::MultiDeviceEngine;
using core::ProgressEvent;
using core::RebalanceController;
using core::RebalancePolicy;
using core::RecoveryPolicy;
using core::RecoveryResult;
using core::run_with_recovery;
using vgpu::RateSample;

// ---------------------------------------------------------------------------
// Rate estimation and imbalance arithmetic (pure functions).

TEST(RebalanceMathTest, EstimateRatesConvertsToCellsPerSecond) {
  const std::vector<RateSample> samples = {
      {1'000'000, 1'000'000'000},  // 1e6 cells in 1 s
      {500'000, 250'000'000},      // 5e5 cells in 0.25 s
  };
  const std::vector<double> rates = core::estimate_rates(samples);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 1e6);
  EXPECT_DOUBLE_EQ(rates[1], 2e6);
}

TEST(RebalanceMathTest, EstimateRatesEmptyUntilEveryDeviceMeasured) {
  EXPECT_TRUE(core::estimate_rates({{1000, 100}, {0, 100}}).empty());
  EXPECT_TRUE(core::estimate_rates({{1000, 100}, {1000, 0}}).empty());
  EXPECT_FALSE(core::estimate_rates({{1000, 100}, {1000, 50}}).empty());
}

TEST(RebalanceMathTest, ProportionalSplitHasZeroImbalance) {
  // Shares proportional to rates: every device projects the same finish
  // time, whatever the absolute scale.
  EXPECT_DOUBLE_EQ(core::split_imbalance({0.8, 0.2}, {40.0, 10.0}), 0.0);
  EXPECT_DOUBLE_EQ(core::split_imbalance({0.5, 0.5}, {7.0, 7.0}), 0.0);
}

TEST(RebalanceMathTest, FourToOneMisSplitOnEqualDevicesIsThree) {
  // An 80/20 split over equal devices: the big slice takes 4x the time
  // of the small one — imbalance 3.0 (the acceptance scenario).
  EXPECT_DOUBLE_EQ(core::split_imbalance({0.8, 0.2}, {1.0, 1.0}), 3.0);
}

TEST(RebalanceMathTest, NormalizeWeightsSumsToOne) {
  const std::vector<double> w = core::normalize_weights({4.0, 1.0});
  ASSERT_EQ(w.size(), 2u);
  EXPECT_DOUBLE_EQ(w[0], 0.8);
  EXPECT_DOUBLE_EQ(w[1], 0.2);
  EXPECT_THROW((void)core::normalize_weights({0.0, 0.0}), InvalidArgument);
}

// ---------------------------------------------------------------------------
// Controller: hysteresis on fabricated phase totals.

ProgressEvent make_event(int device, std::int64_t units,
                         std::int64_t cells, std::int64_t busy_ns) {
  ProgressEvent event;
  event.device_index = device;
  event.completed_units = units;
  event.total_units = 100;
  event.device_cells_done = cells;
  event.busy_ns = busy_ns;
  return event;
}

RebalancePolicy quick_policy() {
  RebalancePolicy policy;
  policy.enabled = true;
  policy.check_every_rows = 2;
  policy.min_imbalance = 0.5;
  policy.max_resplits = 2;
  return policy;
}

TEST(RebalanceControllerTest, BalancedRatesNeverTrip) {
  RebalanceController controller(quick_policy());
  controller.set_planned_shares({8.0, 2.0});  // 4:1 split...
  for (std::int64_t row = 1; row <= 10; ++row) {
    // ...and 4:1 measured rates: same cells per row, the big slice's
    // device burns 1/4 the time per cell.
    controller.observe(make_event(0, row, row * 8000, row * 250));
    controller.observe(make_event(1, row, row * 2000, row * 250));
  }
  EXPECT_FALSE(controller.stop_requested());
  EXPECT_GE(controller.checks_run(), 1);
  EXPECT_NEAR(controller.last_imbalance(), 0.0, 1e-9);
}

TEST(RebalanceControllerTest, MisSplitTripsAndReportsMeasuredWeights) {
  RebalanceController controller(quick_policy());
  controller.set_planned_shares({8.0, 2.0});  // 4:1 split...
  for (std::int64_t row = 1; row <= 2; ++row) {
    // ...on equal devices: per row the big slice takes 4x the time.
    controller.observe(make_event(0, row, row * 8000, row * 1000));
    controller.observe(make_event(1, row, row * 2000, row * 250));
  }
  EXPECT_TRUE(controller.stop_requested());
  EXPECT_NEAR(controller.last_imbalance(), 3.0, 1e-9);
  const std::vector<double> weights = controller.observed_weights();
  ASSERT_EQ(weights.size(), 2u);
  EXPECT_NEAR(weights[0], 0.5, 1e-9);  // equal measured rates
  EXPECT_NEAR(weights[1], 0.5, 1e-9);
}

TEST(RebalanceControllerTest, NoEvaluationBelowCheckInterval) {
  RebalanceController controller(quick_policy());
  controller.set_planned_shares({8.0, 2.0});
  // Wildly imbalanced, but only one unit of progress (< check_every 2).
  controller.observe(make_event(0, 1, 8000, 8000));
  controller.observe(make_event(1, 1, 2000, 10));
  EXPECT_FALSE(controller.stop_requested());
  EXPECT_EQ(controller.checks_run(), 0);
}

TEST(RebalanceControllerTest, WaitsForEveryDeviceToReport) {
  RebalanceController controller(quick_policy());
  controller.set_planned_shares({8.0, 2.0});
  for (std::int64_t row = 1; row <= 10; ++row) {
    controller.observe(make_event(0, row, row * 8000, row * 1000));
  }
  EXPECT_FALSE(controller.stop_requested());  // device 1 never reported
  EXPECT_EQ(controller.checks_run(), 0);
}

TEST(RebalanceControllerTest, ResumedRunsMeasureProgressFromBaseline) {
  // A resumed device starts reporting at completed_units 6; the check
  // interval counts from there, not from zero.
  RebalanceController controller(quick_policy());
  controller.set_planned_shares({8.0, 2.0});
  controller.observe(make_event(0, 6, 8000, 1000));
  controller.observe(make_event(1, 6, 2000, 250));
  EXPECT_EQ(controller.checks_run(), 0);  // one unit of progress each
  controller.observe(make_event(0, 7, 16000, 2000));
  controller.observe(make_event(1, 7, 4000, 500));
  EXPECT_TRUE(controller.stop_requested());  // two units -> evaluated
}

// ---------------------------------------------------------------------------
// End to end: a deliberately mis-split run stops, re-splits with the
// measured rates, and the recovered result is bit-identical — across
// kernels (the acceptance matrix).

EngineConfig misbalanced_config(const std::string& kernel) {
  EngineConfig config;
  config.block_rows = 32;
  config.block_cols = 32;
  config.kernel = kernel;
  // The mis-calibration: a 4:1 split over two equal-speed devices.
  config.balance = core::BalanceMode::kCustomWeights;
  config.custom_weights = {4.0, 1.0};
  config.rebalance.enabled = true;
  config.rebalance.check_every_rows = 2;
  config.rebalance.min_imbalance = 0.5;
  config.rebalance.max_resplits = 2;
  return config;
}

class RebalanceMatrix : public ::testing::TestWithParam<std::string> {};

TEST_P(RebalanceMatrix, MisSplitRebalancesBitIdentically) {
  auto [a, b] = testutil::related_pair(512, 301);
  EngineConfig config = misbalanced_config(GetParam());

  vgpu::Device d0(vgpu::toy_device(10.0));
  vgpu::Device d1(vgpu::toy_device(10.0));

  // Reference: same config without the rebalancer.
  EngineConfig plain = config;
  plain.rebalance = RebalancePolicy{};
  MultiDeviceEngine reference(plain, {&d0, &d1});
  const auto expected = reference.run(a, b);
  EXPECT_EQ(expected.best, sw::linear_score(sw::ScoreScheme{}, a, b));

  const RecoveryResult rebalanced =
      run_with_recovery(config, {&d0, &d1}, a, b);
  EXPECT_EQ(rebalanced.result.best, expected.best);
  EXPECT_GE(rebalanced.rebalances, 1);
  EXPECT_LE(rebalanced.rebalances, config.rebalance.max_resplits);
  EXPECT_EQ(rebalanced.restarts, rebalanced.rebalances);  // no faults
  EXPECT_TRUE(rebalanced.lost_devices.empty());
  // The re-split tracked the measured rates: two equal devices end up
  // with roughly equal weights instead of 4:1.
  ASSERT_EQ(rebalanced.rebalanced_weights.size(), 2u);
  EXPECT_LT(rebalanced.rebalanced_weights[0], 0.75);
  EXPECT_GT(rebalanced.rebalanced_weights[1], 0.25);
}

INSTANTIATE_TEST_SUITE_P(Kernels, RebalanceMatrix,
                         ::testing::Values("simd", "row"),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------------------
// A device throttled mid-run (thermal throttling, a noisy co-tenant):
// the initially fair split turns lopsided, the controller catches it.

TEST(RebalanceE2ETest, MidRunThrottleTriggersRebalance) {
  auto [a, b] = testutil::related_pair(512, 302);
  EngineConfig config;
  config.block_rows = 32;
  config.block_cols = 32;
  config.balance = core::BalanceMode::kEqual;
  config.rebalance.enabled = true;
  config.rebalance.check_every_rows = 4;
  config.rebalance.min_imbalance = 0.5;

  vgpu::Device d0(vgpu::toy_device(10.0));
  vgpu::Device d1(vgpu::toy_device(10.0));

  MultiDeviceEngine reference(config, {&d0, &d1});
  const auto expected = reference.run(a, b);

  // Throttle device 1 hard once it has finished its first block row of
  // the rebalanced run; every later kernel pays 8x.
  std::atomic<bool> throttled{false};
  config.progress = [&](const ProgressEvent& event) {
    if (event.device_index == 1 && event.completed_units >= 1 &&
        !throttled.exchange(true)) {
      d1.set_slowdown(8.0);
    }
  };

  RecoveryPolicy policy;
  policy.max_restarts = 3;
  const RecoveryResult rebalanced =
      run_with_recovery(config, {&d0, &d1}, a, b, policy);
  EXPECT_EQ(rebalanced.result.best, expected.best);
  EXPECT_GE(rebalanced.rebalances, 1);
  EXPECT_TRUE(rebalanced.lost_devices.empty());
  // The throttled device's share shrank below its fair half.
  ASSERT_EQ(rebalanced.rebalanced_weights.size(), 2u);
  EXPECT_LT(rebalanced.rebalanced_weights[1],
            rebalanced.rebalanced_weights[0]);
  d1.set_slowdown(1.0);
}

// ---------------------------------------------------------------------------
// Policy bounds: the re-split count is capped, and the cap never
// strands the run (the final attempt completes without a controller).

TEST(RebalanceE2ETest, ResplitCountCappedByPolicy) {
  auto [a, b] = testutil::related_pair(512, 303);
  EngineConfig config;
  config.block_rows = 32;
  config.block_cols = 32;
  config.rebalance.enabled = true;
  config.rebalance.check_every_rows = 2;
  // A negative threshold trips the controller at every evaluation — the
  // pathological always-fire policy only the cap can stop.
  config.rebalance.min_imbalance = -1.0;
  config.rebalance.max_resplits = 2;

  vgpu::Device d0(vgpu::toy_device(10.0));
  vgpu::Device d1(vgpu::toy_device(10.0));

  EngineConfig plain = config;
  plain.rebalance = RebalancePolicy{};
  MultiDeviceEngine reference(plain, {&d0, &d1});
  const auto expected = reference.run(a, b);

  RecoveryPolicy policy;
  policy.max_restarts = 5;
  const RecoveryResult rebalanced =
      run_with_recovery(config, {&d0, &d1}, a, b, policy);
  EXPECT_EQ(rebalanced.result.best, expected.best);
  EXPECT_EQ(rebalanced.rebalances, 2);  // exactly the cap
  EXPECT_EQ(rebalanced.restarts, 2);    // shared budget: one per re-split
}

TEST(RebalanceE2ETest, BalancedRunNeverRestarts) {
  auto [a, b] = testutil::related_pair(512, 304);
  EngineConfig config;
  config.block_rows = 32;
  config.block_cols = 32;
  config.balance = core::BalanceMode::kEqual;
  config.rebalance.enabled = true;
  config.rebalance.check_every_rows = 2;

  vgpu::Device d0(vgpu::toy_device(10.0));
  vgpu::Device d1(vgpu::toy_device(10.0));
  const RecoveryResult result =
      run_with_recovery(config, {&d0, &d1}, a, b);
  EXPECT_EQ(result.rebalances, 0);
  EXPECT_EQ(result.restarts, 0);
  EXPECT_TRUE(result.rebalanced_weights.empty());
  EXPECT_EQ(result.result.best,
            sw::linear_score(sw::ScoreScheme{}, a, b));
}

TEST(RebalanceE2ETest, ProgressEventsCarryBusyAndRebalanceCounts) {
  auto [a, b] = testutil::related_pair(512, 305);
  EngineConfig config = misbalanced_config("simd");
  std::atomic<std::int64_t> max_busy{0};
  std::atomic<int> max_rebalances{0};
  config.progress = [&](const ProgressEvent& event) {
    std::int64_t busy = max_busy.load();
    while (event.busy_ns > busy &&
           !max_busy.compare_exchange_weak(busy, event.busy_ns)) {
    }
    int seen = max_rebalances.load();
    while (event.rebalances > seen &&
           !max_rebalances.compare_exchange_weak(seen, event.rebalances)) {
    }
  };

  vgpu::Device d0(vgpu::toy_device(10.0));
  vgpu::Device d1(vgpu::toy_device(10.0));
  const RecoveryResult result =
      run_with_recovery(config, {&d0, &d1}, a, b);
  EXPECT_GE(result.rebalances, 1);
  EXPECT_GT(max_busy.load(), 0);
  EXPECT_EQ(max_rebalances.load(), result.rebalances);
}

TEST(RebalanceE2ETest, ReportCarriesRebalanceFields) {
  RecoveryResult result;
  result.restarts = 2;
  result.rebalances = 1;
  result.rebalanced_weights = {0.5, 0.5};
  result.result.best.score = 7;
  const std::string json = core::to_json(result);
  EXPECT_NE(json.find("\"rebalances\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"rebalanced_weights\": [0.5, 0.5]"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Simulator model: the acceptance scenario — a 4x mis-calibrated
// profile must show >= 1.3x GCUPS with rebalancing on.

sim::SimConfig miscalibrated_sim() {
  sim::SimConfig config;
  config.rows = 1 << 16;
  config.cols = 1 << 16;
  config.block_rows = 512;
  config.block_cols = 512;
  config.devices = {vgpu::toy_device(10.0), vgpu::toy_device(10.0)};
  config.weights = {4.0, 1.0};  // planner believes 4:1; truth is 1:1
  config.rebalance.enabled = true;
  config.rebalance.check_every_rows = 8;
  config.rebalance.min_imbalance = 0.5;
  config.rebalance.max_resplits = 2;
  config.checkpoint_interval = 4;
  return config;
}

TEST(RebalanceSimTest, MiscalibratedProfileGainsAtLeast1_3x) {
  const sim::SimConfig config = miscalibrated_sim();
  const double stat = sim::simulate_pipeline(config).gcups();
  const sim::RebalanceSimResult dynamic = sim::simulate_rebalance(config);
  ASSERT_GT(stat, 0.0);
  EXPECT_GE(dynamic.gcups() / stat, 1.3);
  EXPECT_EQ(dynamic.resplits, 1);  // one correction is enough
  // check row 8 is a checkpoint row (interval 4): nothing recomputed.
  EXPECT_EQ(dynamic.wasted_cells, 0);
  ASSERT_EQ(dynamic.steps.size(), 2u);
  EXPECT_GT(dynamic.steps[0].imbalance, 0.5);
  EXPECT_LT(dynamic.steps[1].imbalance, 0.5);
}

TEST(RebalanceSimTest, DisabledPolicyMatchesStaticRun) {
  sim::SimConfig config = miscalibrated_sim();
  config.rebalance.enabled = false;
  const sim::SimResult stat = sim::simulate_pipeline(config);
  const sim::RebalanceSimResult dynamic = sim::simulate_rebalance(config);
  EXPECT_EQ(dynamic.result.makespan_ns, stat.makespan_ns);
  EXPECT_EQ(dynamic.resplits, 0);
  EXPECT_EQ(dynamic.result.total_cells, stat.total_cells);
}

TEST(RebalanceSimTest, WellCalibratedProfileNeverResplits) {
  sim::SimConfig config = miscalibrated_sim();
  config.weights.clear();  // profile-proportional: the truth
  const sim::RebalanceSimResult dynamic = sim::simulate_rebalance(config);
  EXPECT_EQ(dynamic.resplits, 0);
  ASSERT_EQ(dynamic.steps.size(), 1u);
  EXPECT_NEAR(dynamic.steps[0].imbalance, 0.0, 1e-9);
}

TEST(RebalanceSimTest, CheckRowOffCheckpointGridWastesRecomputedRows) {
  sim::SimConfig config = miscalibrated_sim();
  config.rebalance.check_every_rows = 6;  // checkpoint grid is 4
  const sim::RebalanceSimResult dynamic = sim::simulate_rebalance(config);
  EXPECT_EQ(dynamic.resplits, 1);
  // Stopped at block row 6, newest checkpoint at 4: rows 5-6 recomputed.
  EXPECT_EQ(dynamic.wasted_cells, 2 * config.block_rows * config.cols);
  // Still a clear win despite the waste.
  const double stat = sim::simulate_pipeline(config).gcups();
  EXPECT_GE(dynamic.gcups() / stat, 1.3);
}

}  // namespace
}  // namespace mgpusw
