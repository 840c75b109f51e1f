// Discrete-event performance model of the multi-device pipeline.
//
// Why this exists: the host running this reproduction has no GPUs, and
// its few CPU cores are shared and noisy, so wall-clock runs cannot
// exhibit the paper's multi-GPU scaling. This simulator executes the
// *same schedule* as the real engine's default fine-grain (row-major)
// mode — block rows in sequence per device, border chunks pushed through
// a capacity-bounded circular buffer, blocking sends on a full buffer,
// blocking receives on an empty one — but advances virtual time from
// device rate profiles instead of running kernels. The real engine
// (src/core) validates that the schedule computes correct scores; this
// model regenerates the paper-scale GCUPS numbers and their shapes
// (scaling curves, buffer-size sensitivity, split-balance sensitivity).
//
// Timing model per device d:
//   * one block row of the slice (cells = block_rows x slice width)
//     takes cells / rate_d, stretched by max(1, dispatch_d / nbc) when
//     the slice is too narrow to saturate the device's SMs;
//   * finishing row i makes border chunk i available; the device blocks
//     before row i+1 until the consumer has popped chunk
//     i - buffer_capacity (circular-buffer back-pressure);
//   * chunk transfer takes lat_up + bytes/bw_up + lat_down + bytes/bw_down
//     of virtual time and overlaps device compute (the paper's host
//     threads do the copies);
//   * row i of device d > 0 cannot start before chunk i arrived.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "base/time.hpp"
#include "core/plan.hpp"
#include "vgpu/spec.hpp"

namespace mgpusw::sim {

/// Which block schedule the model runs. kRowMajor is the schedule the
/// real engine runs; kDiagonalBarrier exists only in the model.
enum class SimSchedule {
  /// Fine-grain row-major pipeline: chunk i ships when block row i is
  /// done; the cross-device lag is one block row.
  kRowMajor,
  /// External-diagonal barriers: chunk i only completes with diagonal
  /// i + nbc - 1, so a device's final rows serialize behind its
  /// upstream neighbour's entire slice. Modeled to quantify, at paper
  /// scale, why the paper's fine-grain design matters (experiment R-A2).
  kDiagonalBarrier,
};

struct SimConfig {
  std::int64_t rows = 0;  // query length (cells)
  std::int64_t cols = 0;  // subject length (cells)
  std::int64_t block_rows = 512;
  std::int64_t block_cols = 512;
  std::int64_t buffer_capacity = 16;  // circular buffer size, chunks
  std::vector<vgpu::DeviceSpec> devices;
  /// Slice weights; empty = core::profile_weights (proportional to
  /// DeviceSpec::sw_gcups). The actual partition comes from
  /// core::make_plan — the same code path the real engine plans with.
  std::vector<double> weights;
  /// Blocks needed to saturate a device; 0 = its sm_count.
  int dispatch_width = 0;
  SimSchedule schedule = SimSchedule::kRowMajor;
};

struct SimDeviceStats {
  std::string device_name;
  core::ColumnRange slice;
  std::int64_t cells = 0;
  base::SimTime busy_ns = 0;
  base::SimTime recv_wait_ns = 0;  // waiting for upstream chunks
  base::SimTime send_wait_ns = 0;  // blocked on a full circular buffer
  base::SimTime start_ns = 0;      // when this device began computing
  base::SimTime finish_ns = 0;     // when this device completed its slice
};

struct SimResult {
  base::SimTime makespan_ns = 0;
  std::int64_t total_cells = 0;
  std::vector<SimDeviceStats> devices;

  [[nodiscard]] double gcups() const {
    // Equivalent to base::gcups(total_cells, seconds()) but computed in
    // nanoseconds directly, keeping simulated figures bit-deterministic.
    if (makespan_ns <= 0) return 0.0;
    return static_cast<double>(total_cells) /
           static_cast<double>(makespan_ns);
  }
  [[nodiscard]] double seconds() const {
    return static_cast<double>(makespan_ns) * 1e-9;
  }
};

/// Runs the model. Deterministic; O(total block diagonals) time.
/// Geometry and slices are derived through core::make_plan, so the
/// simulated slices are exactly the ones the real engine would run.
[[nodiscard]] SimResult simulate_pipeline(const SimConfig& config);

/// Runs the model against a caller-supplied plan (e.g. the exact plan a
/// MultiDeviceEngine reports via plan()). The plan's geometry overrides
/// the config's; config still supplies the device rate profiles and the
/// schedule. The plan must have one slice per config device.
[[nodiscard]] SimResult simulate_pipeline(const SimConfig& config,
                                          const core::AlignmentPlan& plan);

/// Aggregate profile speed of an environment (sum of sw_gcups) — the
/// upper bound the pipeline approaches for large matrices.
[[nodiscard]] double aggregate_gcups(
    const std::vector<vgpu::DeviceSpec>& devices);

/// Smallest (square) sequence length at which the multi-device
/// environment beats the single fastest device of that environment by
/// `margin` (e.g. 1.0 = break-even, 1.5 = 50% faster), found by doubling
/// then bisection over `config.rows == config.cols`. Returns -1 when the
/// environment never reaches the margin below `max_length`. The paper's
/// motivation in one number: short sequences cannot amortise the
/// pipeline fill and slice narrowing of a deep device chain.
[[nodiscard]] std::int64_t find_crossover_length(SimConfig config,
                                                 double margin = 1.0,
                                                 std::int64_t max_length =
                                                     1LL << 28);

}  // namespace mgpusw::sim
