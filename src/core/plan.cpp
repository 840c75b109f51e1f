#include "core/plan.hpp"

#include "base/error.hpp"
#include "base/math.hpp"

namespace mgpusw::core {

AlignmentPlan make_plan(const PlanRequest& request) {
  MGPUSW_REQUIRE(request.rows > 0 && request.cols > 0,
                 "matrix dimensions must be positive");
  MGPUSW_REQUIRE(request.block_rows > 0 && request.block_cols > 0,
                 "block dimensions must be positive");
  MGPUSW_REQUIRE(request.buffer_capacity > 0,
                 "buffer_capacity must be positive");
  MGPUSW_REQUIRE(!request.weights.empty(),
                 "plan needs at least one device weight");
  MGPUSW_REQUIRE(request.start_block_row >= 0,
                 "start_block_row must be non-negative");

  AlignmentPlan plan;
  plan.rows = request.rows;
  plan.cols = request.cols;
  plan.block_rows = request.block_rows;
  plan.block_cols = request.block_cols;
  plan.block_row_count = base::div_ceil(request.rows, request.block_rows);
  plan.buffer_capacity = request.buffer_capacity;
  plan.transport = request.transport;
  plan.start_block_row = request.start_block_row;
  MGPUSW_REQUIRE(request.start_block_row < plan.block_row_count,
                 "start_block_row " << request.start_block_row
                                    << " leaves nothing to compute");

  const std::vector<ColumnRange> ranges = partition_columns(
      request.cols, request.weights, request.block_cols);

  plan.devices.reserve(ranges.size());
  for (std::size_t d = 0; d < ranges.size(); ++d) {
    SlicePlan slice;
    slice.slice = ranges[d];
    slice.block_columns = base::div_ceil(ranges[d].cols, request.block_cols);
    slice.has_upstream = d > 0;
    slice.has_downstream = d + 1 < ranges.size();
    plan.devices.push_back(std::move(slice));
  }
  return plan;
}

std::vector<double> profile_weights(
    const std::vector<vgpu::DeviceSpec>& devices) {
  std::vector<double> weights;
  weights.reserve(devices.size());
  for (const vgpu::DeviceSpec& spec : devices) {
    weights.push_back(spec.sw_gcups);
  }
  return weights;
}

std::vector<double> estimate_rates(
    const std::vector<vgpu::RateSample>& samples) {
  std::vector<double> rates;
  rates.reserve(samples.size());
  for (const vgpu::RateSample& sample : samples) {
    if (sample.cells <= 0 || sample.busy_ns <= 0) return {};
    rates.push_back(static_cast<double>(sample.cells) * 1e9 /
                    static_cast<double>(sample.busy_ns));
  }
  return rates;
}

}  // namespace mgpusw::core
