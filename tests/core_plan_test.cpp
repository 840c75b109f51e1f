// Plan-layer tests: make_plan geometry and validation, plus the
// engine–simulator shared-plan contract (both execute the same
// AlignmentPlan value, so slice arithmetic exists in one place).
#include <gtest/gtest.h>

#include <memory>

#include "base/error.hpp"
#include "base/math.hpp"
#include "core/engine.hpp"
#include "core/partition.hpp"
#include "core/plan.hpp"
#include "sim/pipeline_sim.hpp"
#include "vgpu/device.hpp"
#include "vgpu/spec.hpp"

namespace mgpusw {
namespace {

using core::AlignmentPlan;
using core::make_plan;
using core::PlanRequest;

PlanRequest basic_request() {
  PlanRequest request;
  request.rows = 1000;
  request.cols = 3000;
  request.block_rows = 64;
  request.block_cols = 128;
  request.weights = {1.0, 2.0, 1.0};
  return request;
}

TEST(PlanTest, SlicesTileTheMatrix) {
  const AlignmentPlan plan = make_plan(basic_request());
  ASSERT_EQ(plan.device_count(), 3u);
  EXPECT_EQ(plan.channel_count(), 2u);
  EXPECT_EQ(plan.block_row_count, base::div_ceil(1000, 64));

  std::int64_t cursor = 0;
  for (const core::SlicePlan& device : plan.devices) {
    EXPECT_EQ(device.slice.first_col, cursor);
    EXPECT_GT(device.slice.cols, 0);
    EXPECT_EQ(device.block_columns,
              base::div_ceil(device.slice.cols, plan.block_cols));
    cursor += device.slice.cols;
  }
  EXPECT_EQ(cursor, plan.cols);

  EXPECT_FALSE(plan.devices.front().has_upstream);
  EXPECT_TRUE(plan.devices.front().has_downstream);
  EXPECT_TRUE(plan.devices[1].has_upstream);
  EXPECT_TRUE(plan.devices[1].has_downstream);
  EXPECT_TRUE(plan.devices.back().has_upstream);
  EXPECT_FALSE(plan.devices.back().has_downstream);
}

TEST(PlanTest, ScheduleUnits) {
  // A fresh plan steps every device through all block rows.
  const AlignmentPlan plan = make_plan(basic_request());
  EXPECT_EQ(plan.start_block_row, 0);
}

TEST(PlanTest, ResumeStartRow) {
  PlanRequest request = basic_request();
  request.start_block_row = 10;
  const AlignmentPlan plan = make_plan(request);
  EXPECT_EQ(plan.start_block_row, 10);
}

TEST(PlanTest, RejectsBadRequests) {
  {
    PlanRequest request = basic_request();
    request.rows = 0;
    EXPECT_THROW((void)make_plan(request), InvalidArgument);
  }
  {
    PlanRequest request = basic_request();
    request.block_cols = 0;
    EXPECT_THROW((void)make_plan(request), InvalidArgument);
  }
  {
    PlanRequest request = basic_request();
    request.buffer_capacity = 0;
    EXPECT_THROW((void)make_plan(request), InvalidArgument);
  }
  {
    PlanRequest request = basic_request();
    request.weights.clear();
    EXPECT_THROW((void)make_plan(request), InvalidArgument);
  }
  {
    PlanRequest request = basic_request();
    request.start_block_row = base::div_ceil(request.rows,
                                             request.block_rows);
    EXPECT_THROW((void)make_plan(request), InvalidArgument);
  }
}

TEST(PlanTest, ProfileWeightsReadSpecs) {
  const std::vector<vgpu::DeviceSpec> specs = {vgpu::toy_device(10.0),
                                               vgpu::toy_device(25.0)};
  const std::vector<double> weights = core::profile_weights(specs);
  ASSERT_EQ(weights.size(), 2u);
  EXPECT_DOUBLE_EQ(weights[0], 10.0);
  EXPECT_DOUBLE_EQ(weights[1], 25.0);
}

// ---------------------------------------------------------------------------
// The shared-plan contract: the simulator accepts and executes the exact
// plan a real engine reports, and both agree on the column split.

TEST(SharedPlanTest, EnginePlanMatchesPartition) {
  const std::vector<vgpu::DeviceSpec> specs = {vgpu::toy_device(10.0),
                                               vgpu::toy_device(30.0)};
  vgpu::Device slow(specs[0]);
  vgpu::Device fast(specs[1]);
  core::EngineConfig config;
  config.block_rows = 64;
  config.block_cols = 64;
  core::MultiDeviceEngine engine(config, {&slow, &fast});

  // Fresh devices have measured nothing, so the split is their profiles'.
  const AlignmentPlan plan = engine.plan(2000, 4000);
  const std::vector<core::ColumnRange> split =
      core::partition_columns(4000, core::profile_weights(specs), 64);
  ASSERT_EQ(plan.device_count(), split.size());
  for (std::size_t d = 0; d < split.size(); ++d) {
    EXPECT_EQ(plan.devices[d].slice, split[d]);
  }
}

TEST(SharedPlanTest, SimulatorExecutesEnginePlan) {
  const std::vector<vgpu::DeviceSpec> specs = {vgpu::toy_device(10.0),
                                               vgpu::toy_device(30.0)};
  std::vector<std::unique_ptr<vgpu::Device>> owned;
  std::vector<vgpu::Device*> pointers;
  for (const vgpu::DeviceSpec& spec : specs) {
    owned.push_back(std::make_unique<vgpu::Device>(spec));
    pointers.push_back(owned.back().get());
  }
  core::EngineConfig config;
  config.block_rows = 64;
  config.block_cols = 64;
  core::MultiDeviceEngine engine(config, pointers);
  const AlignmentPlan plan = engine.plan(2000, 4000);

  sim::SimConfig sim_config;
  sim_config.rows = 2000;
  sim_config.cols = 4000;
  sim_config.block_rows = 64;
  sim_config.block_cols = 64;
  sim_config.devices = specs;

  // The engine's plan and the simulator's own derivation must be the
  // same value: devices that have measured nothing split by
  // profile_weights, the simulator's default split.
  const sim::SimResult from_engine_plan =
      sim::simulate_pipeline(sim_config, plan);
  const sim::SimResult from_config = sim::simulate_pipeline(sim_config);
  EXPECT_EQ(from_engine_plan.makespan_ns, from_config.makespan_ns);
  EXPECT_EQ(from_engine_plan.total_cells, 2000 * 4000);
  ASSERT_EQ(from_engine_plan.devices.size(), 2u);
  for (std::size_t d = 0; d < 2; ++d) {
    EXPECT_EQ(from_engine_plan.devices[d].slice, plan.devices[d].slice);
  }
}

TEST(SharedPlanTest, SimulatorRejectsMismatchedPlan) {
  sim::SimConfig config;
  config.rows = 1000;
  config.cols = 2000;
  config.devices = {vgpu::toy_device(10.0)};  // one device...
  PlanRequest request = basic_request();      // ...three slices
  EXPECT_THROW((void)sim::simulate_pipeline(config, make_plan(request)),
               InvalidArgument);
}

}  // namespace
}  // namespace mgpusw
