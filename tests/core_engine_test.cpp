// End-to-end tests of the multi-device engine: the central correctness
// claim is that splitting the matrix across devices and exchanging
// borders through circular buffers changes nothing about the result.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>

#include "base/error.hpp"
#include "core/engine.hpp"
#include "core/partition.hpp"
#include "core/plan.hpp"
#include "core/recovery.hpp"
#include "core/report.hpp"
#include "core/special_rows.hpp"
#include "obs/metrics.hpp"
#include "sw/block_simd.hpp"
#include "sw/kernel.hpp"
#include "sw/linear.hpp"
#include "tests/test_util.hpp"
#include "vgpu/device.hpp"
#include "vgpu/fault.hpp"
#include "vgpu/spec.hpp"

namespace mgpusw {
namespace {

using core::EngineConfig;
using core::EngineResult;
using core::MultiDeviceEngine;
using core::partition_columns;
using core::Transport;
using seq::Sequence;

/// Owns N toy devices and hands out raw pointers.
class DeviceFleet {
 public:
  explicit DeviceFleet(int count, double base_gcups = 10.0,
                       double gcups_step = 0.0) {
    for (int d = 0; d < count; ++d) {
      devices_.push_back(std::make_unique<vgpu::Device>(
          vgpu::toy_device(base_gcups + gcups_step * d)));
    }
  }

  [[nodiscard]] std::vector<vgpu::Device*> pointers() const {
    std::vector<vgpu::Device*> out;
    for (const auto& device : devices_) out.push_back(device.get());
    return out;
  }

 private:
  std::vector<std::unique_ptr<vgpu::Device>> devices_;
};

EngineConfig small_config() {
  EngineConfig config;
  config.block_rows = 32;
  config.block_cols = 32;
  config.buffer_capacity = 4;
  return config;
}

// ---------------------------------------------------------------------------
// construction validation

TEST(EngineConfigTest, RejectsBadConfigs) {
  DeviceFleet fleet(1);
  {
    EngineConfig config = small_config();
    config.block_rows = 0;
    EXPECT_THROW(MultiDeviceEngine(config, fleet.pointers()),
                 InvalidArgument);
  }
  {
    EngineConfig config = small_config();
    config.buffer_capacity = 0;
    EXPECT_THROW(MultiDeviceEngine(config, fleet.pointers()),
                 InvalidArgument);
  }
  {
    EngineConfig config = small_config();
    EXPECT_THROW(MultiDeviceEngine(config, {}), InvalidArgument);
  }
  {
    EngineConfig config = small_config();
    config.kernel = "warp-shuffle";  // not a registered kernel
    EXPECT_THROW(MultiDeviceEngine(config, fleet.pointers()),
                 InvalidArgument);
  }
  {
    EngineConfig config = small_config();
    config.special_row_interval = 2;  // no store provided
    EXPECT_THROW(MultiDeviceEngine(config, fleet.pointers()),
                 InvalidArgument);
  }
}

TEST(EngineTest, RejectsEmptySequences) {
  DeviceFleet fleet(1);
  MultiDeviceEngine engine(small_config(), fleet.pointers());
  const Sequence s("s", "ACGT");
  EXPECT_THROW((void)engine.run(Sequence{}, s), InvalidArgument);
  EXPECT_THROW((void)engine.run(s, Sequence{}), InvalidArgument);
}

// ---------------------------------------------------------------------------
// single-device correctness

TEST(EngineTest, SingleDeviceEqualsLinearScan) {
  DeviceFleet fleet(1);
  MultiDeviceEngine engine(small_config(), fleet.pointers());
  auto [a, b] = testutil::related_pair(300, 5);
  const EngineResult result = engine.run(a, b);
  EXPECT_EQ(result.best, linear_score(sw::ScoreScheme{}, a, b));
  EXPECT_EQ(result.matrix_cells, a.size() * b.size());
  EXPECT_EQ(result.computed_cells, a.size() * b.size());
  ASSERT_EQ(result.devices.size(), 1u);
  EXPECT_EQ(result.devices[0].chunks_sent, 0);
  EXPECT_GT(result.devices[0].blocks, 0);
  EXPECT_GT(result.gcups(), 0.0);
}

// ---------------------------------------------------------------------------
// multi-device correctness properties

// Every field is eight bytes wide: gtest names each case by the raw bytes
// of this struct, so padding would put stack garbage into the test names.
struct MultiDeviceCase {
  std::int64_t devices;
  std::int64_t block_rows;
  std::int64_t block_cols;
  std::int64_t buffer_capacity;
};

class MultiDeviceProperty
    : public ::testing::TestWithParam<std::tuple<MultiDeviceCase, int>> {};

TEST_P(MultiDeviceProperty, EqualsLinearScan) {
  const auto [test_case, seed] = GetParam();
  DeviceFleet fleet(static_cast<int>(test_case.devices), 8.0,
                    4.0);  // heterogeneous specs
  EngineConfig config;
  config.block_rows = test_case.block_rows;
  config.block_cols = test_case.block_cols;
  config.buffer_capacity = test_case.buffer_capacity;
  MultiDeviceEngine engine(config, fleet.pointers());

  auto [a, b] = testutil::related_pair(
      260 + seed * 17, static_cast<std::uint64_t>(seed) + 500);
  const auto expected = linear_score(config.scheme, a, b);
  const EngineResult result = engine.run(a, b);
  EXPECT_EQ(result.best, expected)
      << test_case.devices << " devices, blocks " << test_case.block_rows
      << "x" << test_case.block_cols << ", buffer "
      << test_case.buffer_capacity;
  EXPECT_EQ(result.computed_cells, a.size() * b.size());
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, MultiDeviceProperty,
    ::testing::Combine(
        ::testing::Values(
            MultiDeviceCase{2, 32, 32, 4},
            MultiDeviceCase{2, 16, 64, 1},   // minimal buffer
            MultiDeviceCase{3, 32, 32, 2},
            MultiDeviceCase{3, 8, 8, 16},    // many tiny blocks
            MultiDeviceCase{4, 64, 16, 3},
            MultiDeviceCase{5, 16, 16, 1}),  // deep pipeline, tight buffer
        ::testing::Range(0, 4)));

TEST(EngineTest, TcpTransportEqualsInProcess) {
  DeviceFleet fleet(3);
  EngineConfig config = small_config();
  config.transport = Transport::kTcp;
  MultiDeviceEngine engine(config, fleet.pointers());
  auto [a, b] = testutil::related_pair(300, 11);
  const auto expected = linear_score(config.scheme, a, b);
  const EngineResult result = engine.run(a, b);
  EXPECT_EQ(result.best, expected);
  EXPECT_GT(result.devices[0].bytes_sent, 0);
}

TEST(EngineTest, NonDefaultSchemePropagates) {
  DeviceFleet fleet(2);
  EngineConfig config = small_config();
  config.scheme = sw::ScoreScheme{2, -1, 1, 1};
  MultiDeviceEngine engine(config, fleet.pointers());
  auto [a, b] = testutil::related_pair(280, 13);
  EXPECT_EQ(engine.run(a, b).best, linear_score(config.scheme, a, b));
}

TEST(EngineTest, RepeatedRunsAreDeterministic) {
  DeviceFleet fleet(3);
  MultiDeviceEngine engine(small_config(), fleet.pointers());
  auto [a, b] = testutil::related_pair(300, 14);
  const auto first = engine.run(a, b);
  const auto second = engine.run(a, b);
  EXPECT_EQ(first.best, second.best);
}

TEST(EngineTest, MatrixSmallerThanOneBlock) {
  DeviceFleet fleet(1);
  EngineConfig config;
  config.block_rows = 512;
  config.block_cols = 512;
  MultiDeviceEngine engine(config, fleet.pointers());
  auto [a, b] = testutil::related_pair(40, 15);
  EXPECT_EQ(engine.run(a, b).best, linear_score(config.scheme, a, b));
}

TEST(EngineTest, TooManyDevicesForMatrixThrows) {
  DeviceFleet fleet(4);
  EngineConfig config;
  config.block_cols = 512;  // 40-column subject -> one block column
  MultiDeviceEngine engine(config, fleet.pointers());
  auto [a, b] = testutil::related_pair(40, 16);
  EXPECT_THROW((void)engine.run(a, b), InvalidArgument);
}

// ---------------------------------------------------------------------------
// statistics

TEST(EngineTest, StatsAreCoherent) {
  DeviceFleet fleet(3, 10.0, 5.0);
  EngineConfig config = small_config();
  MultiDeviceEngine engine(config, fleet.pointers());
  auto [a, b] = testutil::related_pair(500, 17);
  const EngineResult result = engine.run(a, b);

  ASSERT_EQ(result.devices.size(), 3u);
  std::int64_t total_cells = 0;
  for (std::size_t d = 0; d < 3; ++d) {
    const auto& stats = result.devices[d];
    total_cells += stats.cells;
    EXPECT_GT(stats.blocks, 0);
    EXPECT_GT(stats.busy_ns, 0);
    EXPECT_GT(stats.wall_ns, 0);
    EXPECT_EQ(stats.cells, stats.slice.cols * a.size());
  }
  EXPECT_EQ(total_cells, a.size() * b.size());

  // Border traffic: device d sends one chunk per block row to d+1.
  const std::int64_t block_rows_count =
      (a.size() + config.block_rows - 1) / config.block_rows;
  EXPECT_EQ(result.devices[0].chunks_sent, block_rows_count);
  EXPECT_EQ(result.devices[1].chunks_received, block_rows_count);
  EXPECT_EQ(result.devices[1].chunks_sent, block_rows_count);
  EXPECT_EQ(result.devices[2].chunks_received, block_rows_count);
  EXPECT_EQ(result.devices[2].chunks_sent, 0);
  EXPECT_GT(result.devices[0].bytes_sent, 0);
}

// Randomised configuration fuzzing: draw engine configurations and
// sequence shapes from a seeded RNG and check exactness for each. This
// catches interactions the hand-picked parameter grids miss.
TEST(EngineFuzzTest, RandomConfigurationsAreExact) {
  base::Rng rng(20260706);
  for (int trial = 0; trial < 25; ++trial) {
    const auto schemes = testutil::test_schemes();
    EngineConfig config;
    config.scheme = schemes[rng.next_below(schemes.size())];
    config.block_rows = rng.next_range(1, 96);
    config.block_cols = rng.next_range(1, 96);
    config.buffer_capacity = rng.next_range(1, 8);
    const auto& registry = sw::kernel_registry();
    config.kernel = registry[rng.next_below(registry.size())].name;
    // Equal or stepped profiles: fresh devices split by their profiles.
    const bool equal = rng.next_bool(0.5);

    const auto device_count = static_cast<int>(rng.next_range(1, 4));
    const double base_gcups = 5.0 + rng.next_double() * 20.0;
    const double gcups_step = rng.next_double() * 10.0;
    DeviceFleet fleet(device_count, base_gcups, equal ? 0.0 : gcups_step);

    const std::int64_t rows = rng.next_range(1, 400);
    // Ensure at least one block column per device.
    const std::int64_t min_cols = config.block_cols * device_count;
    const std::int64_t cols = min_cols + rng.next_range(0, 300);
    const seq::Sequence a = testutil::random_sequence(
        rows, rng.next_u64(), "fuzz-a");
    const seq::Sequence b = testutil::random_sequence(
        cols, rng.next_u64(), "fuzz-b");

    MultiDeviceEngine engine(config, fleet.pointers());
    const auto expected = linear_score(config.scheme, a, b);
    EXPECT_EQ(engine.run(a, b).best, expected)
        << "trial " << trial << ": " << device_count << " devices, blocks "
        << config.block_rows << "x" << config.block_cols << ", buffer "
        << config.buffer_capacity << ", rows " << rows << ", cols "
        << cols << ", kernel " << config.kernel;
  }
}

// ---------------------------------------------------------------------------
// kernel selection

TEST(EngineKernelTest, SimdKernelIsExactAcrossDevices) {
  DeviceFleet fleet(3, 10.0, 5.0);
  EngineConfig config = small_config();
  config.kernel = "simd";
  MultiDeviceEngine engine(config, fleet.pointers());
  auto [a, b] = testutil::related_pair(700, 11);
  const EngineResult result = engine.run(a, b);
  EXPECT_EQ(result.best, linear_score(config.scheme, a, b));
  EXPECT_EQ(result.kernel, "simd");
  EXPECT_EQ(result.simd_isa,
            sw::simd_isa_name(sw::detected_simd_isa()));
}

TEST(EngineKernelTest, LowPrecisionLadderIsExactAndCountsReruns) {
  // match=25 saturates int8 on any decent homology run, so the simd8
  // ladder must escalate (int8 -> int16) on most blocks — and the rerun
  // count must surface through DeviceRunStats, the metrics registry and
  // the JSON report, while the result stays bit-identical.
  DeviceFleet fleet(3, 10.0, 5.0);
  obs::MetricsRegistry metrics;
  EngineConfig config = small_config();
  // Blocks must clear the int8 kernel's vector-geometry floor (32 rows,
  // 64 cols) or it delegates to the exact kernel and never reruns.
  config.block_rows = 64;
  config.block_cols = 128;
  config.kernel = "simd8";
  config.scheme = sw::ScoreScheme{25, -2, 2, 1};
  config.obs.metrics = &metrics;
  MultiDeviceEngine engine(config, fleet.pointers());
  auto [a, b] = testutil::related_pair(700, 11);
  const EngineResult result = engine.run(a, b);
  EXPECT_EQ(result.best, linear_score(config.scheme, a, b));
  EXPECT_EQ(result.kernel, "simd8");

  std::int64_t reruns = 0;
  for (const core::DeviceRunStats& stats : result.devices) {
    reruns += stats.overflow_reruns;
  }
  EXPECT_GT(reruns, 0);
  EXPECT_EQ(metrics.counter_value("kernel.overflow_reruns"), reruns);
  const std::string json = core::to_json(result, &metrics);
  EXPECT_NE(json.find("\"overflow_reruns\""), std::string::npos);
}

TEST(EngineKernelTest, NarrowKernelsAreExactAcrossDevices) {
  DeviceFleet fleet(2, 10.0, 5.0);
  auto [a, b] = testutil::related_pair(500, 17);
  for (const std::string kernel : {"simd16", "simd8", "auto"}) {
    EngineConfig config = small_config();
    config.kernel = kernel;
    MultiDeviceEngine engine(config, fleet.pointers());
    const EngineResult result = engine.run(a, b);
    EXPECT_EQ(result.best, linear_score(config.scheme, a, b)) << kernel;
    EXPECT_EQ(result.kernel, kernel);
  }
}

// ---------------------------------------------------------------------------
// failure propagation: an error on one device's host thread must surface
// as an exception from run() without hanging the other devices.

TEST(EngineFailureTest, DeviceOutOfMemoryPropagates) {
  vgpu::DeviceSpec tiny_spec = vgpu::toy_device(10.0);
  tiny_spec.memory_bytes = 16;  // border allocation cannot fit
  vgpu::Device tiny(tiny_spec);
  MultiDeviceEngine engine(small_config(), {&tiny});
  auto [a, b] = testutil::related_pair(200, 21);
  EXPECT_THROW((void)engine.run(a, b), Error);
}

TEST(EngineFailureTest, MiddleDeviceFailureUnblocksNeighbours) {
  // Device 1 of 3 cannot allocate its borders; devices 0 and 2 must not
  // deadlock on their channels, and run() must rethrow.
  vgpu::Device left(vgpu::toy_device(10.0));
  vgpu::DeviceSpec tiny_spec = vgpu::toy_device(10.0);
  tiny_spec.memory_bytes = 16;
  vgpu::Device middle(tiny_spec);
  vgpu::Device right(vgpu::toy_device(10.0));
  EngineConfig config = small_config();
  config.buffer_capacity = 1;  // maximal back-pressure on device 0
  MultiDeviceEngine engine(config, {&left, &middle, &right});
  auto [a, b] = testutil::related_pair(400, 22);
  EXPECT_THROW((void)engine.run(a, b), Error);
}

TEST(EngineFailureTest, LastDeviceFailureUnblocksUpstream) {
  vgpu::Device left(vgpu::toy_device(10.0));
  vgpu::DeviceSpec tiny_spec = vgpu::toy_device(10.0);
  tiny_spec.memory_bytes = 16;
  vgpu::Device broken(tiny_spec);
  EngineConfig config = small_config();
  config.buffer_capacity = 1;
  MultiDeviceEngine engine(config, {&left, &broken});
  auto [a, b] = testutil::related_pair(400, 23);
  EXPECT_THROW((void)engine.run(a, b), Error);
}

TEST(EngineFailureTest, TcpDownstreamDeathUnblocksProducer) {
  // Downstream death over TCP: device 1 throws mid-run (from its progress
  // callback) while device 0 is throttled by a one-chunk acknowledgement
  // window. Without a consumer-side channel close, device 0 would wait
  // forever for an ack that is never coming; run() must rethrow instead.
  DeviceFleet fleet(2);
  EngineConfig config = small_config();
  config.transport = Transport::kTcp;
  config.buffer_capacity = 1;  // producer blocks after one unacked chunk
  config.progress = [](const core::ProgressEvent& event) {
    if (event.device_index == 1 && event.completed_units == 2) {
      throw Error("downstream device died");
    }
  };
  MultiDeviceEngine engine(config, fleet.pointers());
  auto [a, b] = testutil::related_pair(400, 25);
  EXPECT_THROW((void)engine.run(a, b), Error);
}

TEST(EngineFailureTest, DeviceUsableAfterFailedRun) {
  // A failed run must not poison the device for later runs.
  vgpu::Device good(vgpu::toy_device(10.0));
  vgpu::DeviceSpec tiny_spec = vgpu::toy_device(10.0);
  tiny_spec.memory_bytes = 16;
  vgpu::Device broken(tiny_spec);
  auto [a, b] = testutil::related_pair(200, 24);
  {
    MultiDeviceEngine engine(small_config(), {&good, &broken});
    EXPECT_THROW((void)engine.run(a, b), Error);
  }
  MultiDeviceEngine engine(small_config(), {&good});
  EXPECT_EQ(engine.run(a, b).best,
            linear_score(sw::ScoreScheme{}, a, b));
}

// ---------------------------------------------------------------------------
// block pruning (extension)

TEST(EnginePruningTest, SelfComparisonPrunesAndKeepsScore) {
  const Sequence s = testutil::random_sequence(1200, 18);
  DeviceFleet fleet(1);
  EngineConfig config = small_config();
  MultiDeviceEngine plain(config, fleet.pointers());
  const auto expected = plain.run(s, s);

  config.enable_pruning = true;
  MultiDeviceEngine pruned(config, fleet.pointers());
  const auto result = pruned.run(s, s);

  EXPECT_EQ(result.best.score, expected.best.score);
  std::int64_t pruned_blocks = 0;
  for (const auto& stats : result.devices) {
    pruned_blocks += stats.pruned_blocks;
  }
  // Self-comparison finds the maximum early (main diagonal); a large part
  // of the off-diagonal matrix must get pruned.
  EXPECT_GT(pruned_blocks, 0);
  EXPECT_LT(result.computed_cells, result.matrix_cells);
}

TEST(EnginePruningTest, MultiDevicePruningKeepsScore) {
  const Sequence s = testutil::random_sequence(900, 19);
  DeviceFleet fleet(3);
  EngineConfig config = small_config();
  config.enable_pruning = true;
  MultiDeviceEngine engine(config, fleet.pointers());
  const auto expected = linear_score(config.scheme, s, s);
  EXPECT_EQ(engine.run(s, s).best.score, expected.score);
}

TEST(EnginePruningTest, RandomPairsScoreExactUnderPruning) {
  for (int seed = 0; seed < 5; ++seed) {
    auto [a, b] = testutil::related_pair(
        300, static_cast<std::uint64_t>(seed) + 700);
    DeviceFleet fleet(2);
    EngineConfig config = small_config();
    config.enable_pruning = true;
    MultiDeviceEngine engine(config, fleet.pointers());
    EXPECT_EQ(engine.run(a, b).best.score,
              linear_score(config.scheme, a, b).score)
        << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// special rows (extension)

TEST(EngineSpecialRowsTest, SavesEveryKthBlockRowAcrossDevices) {
  DeviceFleet fleet(2);
  core::SpecialRowStore store;
  EngineConfig config = small_config();  // block_rows = 32
  config.special_row_interval = 2;       // every 64 matrix rows
  config.special_rows = &store;
  MultiDeviceEngine engine(config, fleet.pointers());
  // 320 query rows = exactly 10 blocks of 32 rows, so every saved row
  // sits at a 64-row boundary.
  auto [a, b] = testutil::related_pair(320, 20);
  (void)engine.run(a, b);

  const auto rows = store.rows();
  ASSERT_FALSE(rows.empty());
  for (const std::int64_t row : rows) {
    EXPECT_EQ((row + 1) % 64, 0) << "row " << row;
    const auto h = store.assemble_row(row, b.size());
    EXPECT_EQ(static_cast<std::int64_t>(h.size()), b.size());
    for (const sw::Score value : h) {
      EXPECT_GE(value, 0);  // local-alignment H is non-negative
    }
  }
}

// ---------------------------------------------------------------------------
// balance: plan weights from the devices' rate windows

/// The column split the engine plans for a comparison `cols` wide.
std::vector<core::ColumnRange> split_of(const MultiDeviceEngine& engine,
                                        std::int64_t cols) {
  std::vector<core::ColumnRange> split;
  for (const core::SlicePlan& slice : engine.plan(1, cols).devices) {
    split.push_back(slice.slice);
  }
  return split;
}

/// Gives every device `busy_ns` of synthetic kernel time at `cells` each
/// (accounting only: no time passes).
void warm(const std::vector<vgpu::Device*>& devices, std::int64_t busy_ns,
          const std::vector<std::int64_t>& cells) {
  for (std::size_t d = 0; d < devices.size(); ++d) {
    devices[d]->account_kernel(busy_ns, cells[d]);
  }
}

TEST(BalanceTest, EstimateRatesConvertsToCellsPerSecond) {
  const std::vector<vgpu::RateSample> samples = {
      {1'000'000, 1'000'000'000},  // 1e6 cells in 1 s
      {500'000, 250'000'000},      // 5e5 cells in 0.25 s
  };
  const std::vector<double> rates = core::estimate_rates(samples);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_DOUBLE_EQ(rates[0], 1e6);
  EXPECT_DOUBLE_EQ(rates[1], 2e6);
}

TEST(BalanceTest, EstimateRatesEmptyUntilEveryDeviceMeasured) {
  EXPECT_TRUE(core::estimate_rates({{1000, 100}, {0, 100}}).empty());
  EXPECT_TRUE(core::estimate_rates({{1000, 100}, {1000, 0}}).empty());
  EXPECT_FALSE(core::estimate_rates({{1000, 100}, {1000, 50}}).empty());
}

TEST(BalanceTest, SpecWeights) {
  // Cold devices split by spec GCUPS.
  DeviceFleet fleet(2, 10.0, 30.0);
  MultiDeviceEngine engine(small_config(), fleet.pointers());
  EXPECT_EQ(split_of(engine, 3200),
            partition_columns(3200, {10.0, 40.0}, 32));
}

TEST(BalanceTest, WarmEqualDevicesSplitEqually) {
  // Spec ratings 10:20:30, but the devices measure the same rate.
  DeviceFleet fleet(3, 10.0, 10.0);
  MultiDeviceEngine engine(small_config(), fleet.pointers());
  const std::int64_t cols = 9600;
  EXPECT_EQ(split_of(engine, cols),
            partition_columns(cols, {10.0, 20.0, 30.0}, 32));
  warm(fleet.pointers(), core::kTrustedBusyNs,
       {5'000'000, 5'000'000, 5'000'000});
  for (const core::ColumnRange& range : split_of(engine, cols)) {
    EXPECT_NEAR(static_cast<double>(range.cols), cols / 3.0, 32.0);
  }
}

TEST(BalanceTest, OneColdDeviceKeepsSpecWeights) {
  DeviceFleet fleet(3, 10.0, 10.0);
  const std::vector<vgpu::Device*> devices = fleet.pointers();
  MultiDeviceEngine engine(small_config(), devices);
  warm({devices[0], devices[1]}, core::kTrustedBusyNs, {1'000, 9'000'000});
  devices[2]->account_kernel(core::kTrustedBusyNs - 1, 9'000'000);
  EXPECT_EQ(split_of(engine, 9600),
            partition_columns(9600, {10.0, 20.0, 30.0}, 32));
  devices[2]->account_kernel(1, 0);  // now every window is trusted
  EXPECT_EQ(split_of(engine, 9600),
            partition_columns(9600, {1e5, 9e8, 9e8}, 32));  // cells/s
}

TEST(BalanceTest, RunFillsEachDeviceRateWindow) {
  // The runners report every kernel into their device's window: after
  // one run on fresh devices, each window holds exactly the cells and
  // kernel time that device's run stats count.
  DeviceFleet fleet(3, 10.0, 5.0);
  const std::vector<vgpu::Device*> devices = fleet.pointers();
  MultiDeviceEngine engine(small_config(), devices);
  auto [a, b] = testutil::related_pair(600, 12);
  const EngineResult result = engine.run(a, b);
  ASSERT_EQ(result.devices.size(), devices.size());
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const vgpu::RateSample window = devices[d]->rate_window();
    EXPECT_EQ(window.cells, result.devices[d].cells) << "device " << d;
    EXPECT_EQ(window.busy_ns, result.devices[d].busy_ns) << "device " << d;
    EXPECT_GT(window.cells, 0) << "device " << d;
  }
}

// A sequence of runs whose split changes from run to run — windows
// warming, fresh devices splitting by profile, measured rates drifting —
// stays exact whatever the kernel and transport.
TEST(EngineRateSplitTest, RandomRunSequenceStaysExact) {
  base::Rng rng(20261019);
  auto fleet = std::make_unique<DeviceFleet>(3, 10.0, 7.0);
  const std::vector<std::string> kernels = {"auto", "simd", "simd16", "row"};
  std::vector<std::vector<core::ColumnRange>> splits;
  for (int run = 0; run < 12; ++run) {
    switch (rng.next_below(3)) {
      case 0:  // measured rates drift apart
        for (vgpu::Device* device : fleet->pointers()) {
          device->account_kernel(core::kTrustedBusyNs,
                                 rng.next_range(1'000'000, 20'000'000));
        }
        break;
      case 1:  // fresh devices: cold windows, the profiles' split
        fleet = std::make_unique<DeviceFleet>(3, 10.0, 7.0);
        break;
      default:  // the previous runs' windows alone
        break;
    }
    const std::vector<vgpu::Device*> devices = fleet->pointers();
    EngineConfig config = small_config();
    config.kernel = kernels[rng.next_below(kernels.size())];
    if (rng.next_bool(0.5)) {
      config.transport = Transport::kTcp;
      config.comm_timeout_ms = 5000;
    }
    MultiDeviceEngine engine(config, devices);
    auto [a, b] = testutil::related_pair(rng.next_range(200, 400),
                                         rng.next_u64());
    const std::vector<core::ColumnRange> split =
        split_of(engine, b.size());
    const EngineResult result = engine.run(a, b);
    SCOPED_TRACE("run " + std::to_string(run) + ": " + config.kernel);
    EXPECT_EQ(result.best, linear_score(config.scheme, a, b));
    ASSERT_EQ(result.devices.size(), split.size());
    for (std::size_t d = 0; d < split.size(); ++d) {
      EXPECT_EQ(result.devices[d].slice, split[d]);  // the run used it
    }
    if (std::find(splits.begin(), splits.end(), split) == splits.end()) {
      splits.push_back(split);
    }
  }
  EXPECT_GE(splits.size(), 3u);  // distinct splits the sequence ran
}

// ---------------------------------------------------------------------------
// fused block rows

/// What one engine run leaves behind that the fused block row must not
/// change: the score, the blocks visited and the checkpoint segments.
struct RunFootprint {
  sw::ScoreResult best;
  std::int64_t blocks = 0;  // pruned blocks included
  std::int64_t segments_saved = 0;
  std::vector<std::int64_t> special_rows;
};

RunFootprint run_footprint(EngineConfig config,
                           const std::vector<vgpu::Device*>& devices,
                           const Sequence& a, const Sequence& b,
                           core::SpecialRowStore& store) {
  obs::MetricsRegistry metrics;
  config.obs.metrics = &metrics;
  if (config.special_row_interval > 0) config.special_rows = &store;
  MultiDeviceEngine engine(config, devices);
  const EngineResult result = engine.run(a, b);
  RunFootprint footprint;
  footprint.best = result.best;
  for (const core::DeviceRunStats& stats : result.devices) {
    footprint.blocks += stats.blocks;
  }
  EXPECT_EQ(metrics.counter_value("engine.blocks_computed") +
                metrics.counter_value("engine.blocks_pruned"),
            footprint.blocks);
  footprint.segments_saved =
      metrics.counter_value("checkpoint.segments_saved");
  footprint.special_rows = store.rows();
  return footprint;
}

/// The message of the transient fault `dev0:kernel-fail@kernel=K` on a
/// one-device run (it names the launch ordinal and the block), plus the
/// checkpoint segments saved before it fired.
std::pair<std::string, std::int64_t> kernel_fault_site(
    EngineConfig config, const Sequence& a, const Sequence& b,
    std::int64_t ordinal) {
  vgpu::Device device(vgpu::toy_device(10.0));
  vgpu::FaultInjector injector(vgpu::parse_fault_plan(
      "dev0:kernel-fail@kernel=" + std::to_string(ordinal)));
  obs::MetricsRegistry metrics;
  core::SpecialRowStore store;
  config.fault = &injector;
  config.obs.metrics = &metrics;
  if (config.special_row_interval > 0) config.special_rows = &store;
  MultiDeviceEngine engine(config, {&device});
  std::string message;
  try {
    (void)engine.run(a, b);
  } catch (const TransientError& error) {
    message = error.what();
  }
  return {message, metrics.counter_value("checkpoint.segments_saved")};
}

// Randomized differential test of the fused block row (row-major without
// pruning runs one kernel call per block row of a slice). Each draw must
// equal the linear scan, and must visit the same blocks, save the same
// checkpoint segments and place a kernel=K fault on the same block as the
// per-block path (pruning on), whatever the shape: slices narrower than
// one block, a narrow last block column, strips shorter than a vector.
TEST(EngineFusedRowTest, RandomDrawsMatchLinearAndPerBlockPath) {
  base::Rng rng(20261018);
  const std::vector<std::string> kernels = {"auto", "simd8", "simd16",
                                            "simd", "row"};
  for (int trial = 0; trial < 40; ++trial) {
    EngineConfig config;
    config.scheme = rng.next_bool(0.25) ? sw::ScoreScheme{25, -2, 2, 1}
                                        : sw::ScoreScheme{};
    config.block_rows = rng.next_range(8, 80);
    config.block_cols = rng.next_bool(0.5) ? 128 : rng.next_range(8, 128);
    config.buffer_capacity = rng.next_range(1, 6);
    config.kernel = kernels[rng.next_below(kernels.size())];
    const bool equal = rng.next_bool(0.5);  // equal or stepped profiles
    if (rng.next_bool(0.3)) {
      config.transport = Transport::kTcp;
      config.comm_timeout_ms = 5000;
    }
    if (rng.next_bool(0.5)) {
      config.special_row_interval = rng.next_range(1, 3);
      config.checkpoint_f = true;
    }
    const auto device_count = static_cast<int>(rng.next_range(1, 4));
    const double base_gcups = 5.0 + rng.next_double() * 20.0;
    const double gcups_step = equal ? 0.0 : rng.next_double() * 10.0;
    DeviceFleet fleet(device_count, base_gcups, gcups_step);

    // A self-comparison on blocks whose width is a multiple of their
    // height runs the optimal path through the block corners on the
    // device boundaries, where the fused row takes the chunk's corner.
    const bool self = rng.next_bool(0.25);
    if (self) config.block_cols = config.block_rows * rng.next_range(1, 2);
    // At least one block column per device; the last one is usually
    // narrower than block_cols.
    const std::int64_t block_columns =
        device_count + rng.next_range(0, 6);
    const std::int64_t cols = (block_columns - 1) * config.block_cols +
                              rng.next_range(1, config.block_cols);
    const std::int64_t rows =
        self ? cols + rng.next_range(0, 40) : rng.next_range(1, 360);
    auto [a, b] = testutil::related_pair(rows, rng.next_u64());
    if (self) {
      b = a.subsequence(0, cols);
    } else if (b.size() < cols) {
      b = testutil::random_sequence(cols, rng.next_u64(), "B");
    } else {
      b = b.subsequence(0, cols);
    }
    const sw::ScoreResult expected = linear_score(config.scheme, a, b);
    const std::string draw =
        "trial " + std::to_string(trial) + ": " + config.kernel + ", " +
        std::to_string(device_count) + " devices, " +
        std::to_string(rows) + "x" + std::to_string(cols) + ", blocks " +
        std::to_string(config.block_rows) + "x" +
        std::to_string(config.block_cols) + ", special rows every " +
        std::to_string(config.special_row_interval);
    SCOPED_TRACE(draw);

    core::SpecialRowStore fused_store;
    core::SpecialRowStore block_store;
    EngineConfig per_block = config;
    per_block.enable_pruning = true;
    const RunFootprint fused =
        run_footprint(config, fleet.pointers(), a, b, fused_store);
    const RunFootprint blockwise =
        run_footprint(per_block, fleet.pointers(), a, b, block_store);
    EXPECT_EQ(fused.best, expected);
    EXPECT_EQ(blockwise.best.score, expected.score);
    EXPECT_EQ(fused.blocks, blockwise.blocks);
    EXPECT_EQ(fused.segments_saved, blockwise.segments_saved);
    EXPECT_EQ(fused.special_rows, blockwise.special_rows);

    // Resume from a mid-run checkpoint of the fused run.
    std::vector<std::int64_t> restartable;
    for (const std::int64_t row : fused.special_rows) {
      if (row + 1 < rows) restartable.push_back(row);
    }
    if (!restartable.empty()) {
      const std::int64_t row =
          restartable[rng.next_below(restartable.size())];
      core::SpecialRowStore resumed_rows;
      EngineConfig resuming = config;
      resuming.special_rows = &resumed_rows;
      MultiDeviceEngine engine(resuming, fleet.pointers());
      sw::ScoreResult combined = linear_score(
          config.scheme, a.subsequence(0, row + 1), b);
      const EngineResult resumed = engine.resume(a, b, fused_store, row);
      if (sw::improves(resumed.best, combined)) combined = resumed.best;
      EXPECT_EQ(combined, expected) << "resume from row " << row;
    }

    // A kernel=K fault fires on the same block, after the same
    // checkpoint segments, on both paths.
    const std::int64_t ordinal = rng.next_range(0, fused.blocks / 2);
    EXPECT_EQ(kernel_fault_site(config, a, b, ordinal),
              kernel_fault_site(per_block, a, b, ordinal));

    // A device dies inside a block row (J > 0) and the run recovers.
    // The block is drawn from a plan, so each of these runs gets fresh
    // devices: their windows are cold and the split is the profiles',
    // not whatever the runs above measured.
    EngineConfig plan_config;
    plan_config.block_rows = config.block_rows;
    plan_config.block_cols = config.block_cols;
    const DeviceFleet planning(device_count, base_gcups, gcups_step);
    const core::AlignmentPlan plan =
        MultiDeviceEngine(plan_config, planning.pointers()).plan(rows, cols);
    std::vector<int> wide;
    for (int d = 0; d < device_count; ++d) {
      if (plan.devices[static_cast<std::size_t>(d)].block_columns > 1) {
        wide.push_back(d);
      }
    }
    if (wide.empty()) continue;
    const int victim = wide[rng.next_below(wide.size())];
    const std::int64_t i = rng.next_range(0, plan.block_row_count - 1);
    const std::int64_t j = rng.next_range(
        1, plan.devices[static_cast<std::size_t>(victim)].block_columns - 1);
    // A lone device cannot be lost and recovered from; it fails
    // transiently instead.
    const std::string fault = "dev" + std::to_string(victim) +
                              (device_count > 1 ? ":die" : ":kernel-fail") +
                              "@block=" + std::to_string(i) + "/" +
                              std::to_string(j);
    for (const EngineConfig* path : {&config, &per_block}) {
      vgpu::FaultInjector injector(vgpu::parse_fault_plan(fault));
      core::SpecialRowStore checkpoints;
      EngineConfig faulty = *path;
      faulty.fault = &injector;
      if (faulty.special_row_interval > 0) {
        faulty.special_rows = &checkpoints;
      }
      const DeviceFleet fresh(device_count, base_gcups, gcups_step);
      const core::RecoveryResult recovered =
          core::run_with_recovery(faulty, fresh.pointers(), a, b);
      EXPECT_EQ(recovered.result.best.score, expected.score) << fault;
      EXPECT_EQ(recovered.restarts, 1) << fault;
      if (!path->enable_pruning) {
        EXPECT_EQ(recovered.result.best, expected) << fault;
      }
    }
  }
}

// Homolog pairs whose slices are wider than sw::kAutoSplitCols: "auto"
// splits each fused block row into column runs, int16 on the high-score
// wedge behind the alignment and int8 elsewhere, chained through the
// run borders. Each draw must equal the linear scan and leave the same
// footprint as the per-block path.
TEST(EngineFusedRowTest, WideSlicesMixPrecisionRunsAndMatchLinear) {
  base::Rng rng(20261019);
  for (int trial = 0; trial < 5; ++trial) {
    EngineConfig config;
    config.scheme = rng.next_bool(0.5) ? sw::ScoreScheme{2, -1, 1, 1}
                                       : sw::ScoreScheme{};
    config.block_rows = rng.next_bool(0.5) ? 128 : rng.next_range(24, 140);
    config.block_cols = 128;
    config.buffer_capacity = rng.next_range(1, 6);
    config.kernel = "auto";
    if (rng.next_bool(0.5)) {
      config.special_row_interval = rng.next_range(1, 3);
      config.checkpoint_f = true;
    }
    const auto device_count = static_cast<int>(rng.next_range(1, 3));
    const std::int64_t length =
        device_count * (sw::kAutoSplitCols + rng.next_range(300, 1200));
    const auto [a, b] = testutil::related_pair(
        length, rng.next_u64(), 0.04 + 0.08 * rng.next_double());
    const sw::ScoreResult expected = linear_score(config.scheme, a, b);
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " +
                 std::to_string(device_count) + " devices, " +
                 std::to_string(a.size()) + "x" + std::to_string(b.size()) +
                 ", block rows " + std::to_string(config.block_rows));
    // The wedge holds H values far above int8.
    EXPECT_GT(expected.score, 4 * 127);

    // Each run gets fresh equal devices, so each splits equally: every
    // slice is wider than kAutoSplitCols.
    core::SpecialRowStore fused_store;
    core::SpecialRowStore block_store;
    EngineConfig per_block = config;
    per_block.enable_pruning = true;
    const DeviceFleet fused_fleet(device_count);
    const DeviceFleet block_fleet(device_count);
    const RunFootprint fused =
        run_footprint(config, fused_fleet.pointers(), a, b, fused_store);
    const RunFootprint blockwise =
        run_footprint(per_block, block_fleet.pointers(), a, b, block_store);
    EXPECT_EQ(fused.best, expected);
    EXPECT_EQ(blockwise.best.score, expected.score);
    EXPECT_EQ(fused.blocks, blockwise.blocks);
    EXPECT_EQ(fused.segments_saved, blockwise.segments_saved);
    EXPECT_EQ(fused.special_rows, blockwise.special_rows);

    EngineConfig plan_config;
    plan_config.block_rows = config.block_rows;
    plan_config.block_cols = config.block_cols;
    const DeviceFleet planning(device_count);
    const core::AlignmentPlan plan =
        MultiDeviceEngine(plan_config, planning.pointers())
            .plan(static_cast<std::int64_t>(a.size()),
                  static_cast<std::int64_t>(b.size()));
    for (const core::SlicePlan& slice : plan.devices) {
      EXPECT_GT(slice.slice.cols, sw::kAutoSplitCols);
    }
  }
}

}  // namespace
}  // namespace mgpusw
