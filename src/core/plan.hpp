// Plan layer: everything decided *before* an alignment executes.
//
// An AlignmentPlan is a pure value describing one multi-device
// comparison: matrix geometry, the block grid, the speed-proportional
// column partition, the channel topology between neighbouring devices,
// and (for resumed runs) the seed position. Both the real engine
// (core::MultiDeviceEngine) and the performance model
// (sim::simulate_pipeline) build their execution from the same plan, so
// the slice arithmetic exists in exactly one place —
// the engine validates the pipeline computes correct scores, the
// simulator projects it to paper-scale hardware.
#pragma once

#include <cstdint>
#include <vector>

#include "core/partition.hpp"
#include "vgpu/device.hpp"
#include "vgpu/spec.hpp"

namespace mgpusw::core {

enum class Transport {
  kInProcess,  // circular buffer in shared memory
  kTcp,        // loopback TCP sockets with the same framing
};

/// One device's share of the plan.
struct SlicePlan {
  ColumnRange slice;               // contiguous subject columns
  std::int64_t block_columns = 0;  // nbc: block columns in the slice
  bool has_upstream = false;       // receives border chunks from d-1
  bool has_downstream = false;     // sends border chunks to d+1

  bool operator==(const SlicePlan&) const = default;
};

/// Inputs to plan construction. Weights are already resolved to one
/// positive number per device (see estimate_rates / profile_weights).
struct PlanRequest {
  std::int64_t rows = 0;  // query length (cells)
  std::int64_t cols = 0;  // subject length (cells)
  std::int64_t block_rows = 512;
  std::int64_t block_cols = 512;
  std::int64_t buffer_capacity = 16;
  Transport transport = Transport::kInProcess;
  std::vector<double> weights;
  std::int64_t start_block_row = 0;  // > 0 when resuming from a checkpoint
};

/// The full pre-execution decision record for one comparison.
struct AlignmentPlan {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t block_rows = 0;
  std::int64_t block_cols = 0;
  std::int64_t block_row_count = 0;  // nbr, shared by every slice
  std::int64_t buffer_capacity = 0;
  Transport transport = Transport::kInProcess;
  std::int64_t start_block_row = 0;
  std::vector<SlicePlan> devices;

  [[nodiscard]] std::size_t device_count() const { return devices.size(); }

  /// Border channels between consecutive devices.
  [[nodiscard]] std::size_t channel_count() const {
    return devices.empty() ? 0 : devices.size() - 1;
  }

  bool operator==(const AlignmentPlan&) const = default;
};

/// Builds the plan: derives the block grid and partitions the columns
/// proportionally to the weights (granularity one block column).
/// Throws InvalidArgument on inconsistent requests (non-positive
/// geometry, too many devices for the matrix, weight count mismatch).
[[nodiscard]] AlignmentPlan make_plan(const PlanRequest& request);

/// Profile weights straight from device specs (sw_gcups): the simulator's
/// default split, and the engine's split while any device's rate window
/// is still below kTrustedBusyNs.
[[nodiscard]] std::vector<double> profile_weights(
    const std::vector<vgpu::DeviceSpec>& devices);

/// Kernel time a device must have measured before the engine's split
/// trusts its rate window: below it, two threads of a shared host, or two
/// slices whose rows differ in how many blocks fall back to a wider
/// precision, can measure far apart on equal devices.
inline constexpr std::int64_t kTrustedBusyNs = 10'000'000;

/// Effective cell rate per device (cells per second) from per-device
/// compute totals — the one place (cells, busy_ns) becomes a rate.
/// Returns an empty vector when any device has no measurable sample yet
/// (zero cells or zero busy time) — callers treat that as "not enough
/// data, keep waiting".
[[nodiscard]] std::vector<double> estimate_rates(
    const std::vector<vgpu::RateSample>& samples);

}  // namespace mgpusw::core
