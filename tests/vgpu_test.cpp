#include <gtest/gtest.h>

#include <filesystem>
#include <thread>
#include <vector>

#include "base/error.hpp"
#include "core/fleet.hpp"
#include "vgpu/device.hpp"
#include "vgpu/spec.hpp"

namespace mgpusw {
namespace {

// ---------------------------------------------------------------------------
// specs

TEST(SpecTest, PaperProfilesExist) {
  EXPECT_EQ(vgpu::gtx_560_ti().name, "GTX 560 Ti");
  EXPECT_EQ(vgpu::gtx_580().sm_count, 16);
  EXPECT_GT(vgpu::gtx_680().sw_gcups, vgpu::gtx_580().sw_gcups);
  EXPECT_GT(vgpu::tesla_m2090().memory_bytes, 4LL << 30);
}

TEST(SpecTest, Environment1IsHeterogeneousAndMatchesHeadline) {
  const auto env = vgpu::environment1();
  ASSERT_EQ(env.size(), 3u);
  double total = 0.0;
  for (const auto& spec : env) total += spec.sw_gcups;
  // The paper's headline: up to 140.36 GCUPS with 3 heterogeneous GPUs.
  EXPECT_NEAR(total, 140.4, 1.0);
  EXPECT_NE(env[0].sw_gcups, env[1].sw_gcups);
}

TEST(SpecTest, Environment2IsHomogeneous) {
  const auto env = vgpu::environment2();
  ASSERT_EQ(env.size(), 3u);
  EXPECT_EQ(env[0], env[1]);
  EXPECT_EQ(env[1], env[2]);
}

TEST(SpecTest, SpecByName) {
  EXPECT_EQ(vgpu::spec_by_name("gtx580").name, "GTX 580");
  EXPECT_EQ(vgpu::spec_by_name("m2090").name, "Tesla M2090");
  EXPECT_THROW(vgpu::spec_by_name("rtx4090"), InvalidArgument);
}

// ---------------------------------------------------------------------------
// device runtime

TEST(DeviceTest, KernelAccounting) {
  vgpu::Device device(vgpu::toy_device(1.0));
  device.account_kernel(1000, 12345);
  device.account_kernel(2000, 55);
  EXPECT_EQ(device.kernels_launched(), 2);
  EXPECT_EQ(device.cells_computed(), 12400);
  EXPECT_EQ(device.busy_ns(), 3000);
}

// ---------------------------------------------------------------------------
// rate window

TEST(RateWindowTest, CountsKernels) {
  vgpu::Device device(vgpu::toy_device(1.0));
  EXPECT_EQ(device.rate_window().busy_ns, 0);
  device.account_kernel(1000, 12345);
  device.account_kernel(2000, 55);
  EXPECT_EQ(device.rate_window().cells, 12400);
  EXPECT_EQ(device.rate_window().busy_ns, 3000);
}

TEST(RateWindowTest, HalvesOnceItSpansMoreThanItsWindow) {
  vgpu::Device device(vgpu::toy_device(1.0));
  const std::int64_t span = vgpu::Device::kRateWindowNs;
  device.account_kernel(span, 4000);
  EXPECT_EQ(device.rate_window().busy_ns, span);
  device.account_kernel(span / 2, 6000);
  EXPECT_EQ(device.rate_window().busy_ns, span * 3 / 4);
  EXPECT_EQ(device.rate_window().cells, 5000);
}

TEST(RateWindowTest, StaysConsistentUnderConcurrentUse) {
  // Kernels report cells == busy_ns; the window must never show a pair
  // that breaks it, however concurrent kernels and reads interleave.
  vgpu::Device device(vgpu::toy_device(1.0));
  std::vector<std::thread> kernels;
  for (int t = 0; t < 3; ++t) {
    kernels.emplace_back([&device, t] {
      for (int i = 1; i <= 2000; ++i) {
        device.account_kernel(i * (t + 1), i * (t + 1));
      }
    });
  }
  int broken = 0;
  for (int i = 0; i < 2000; ++i) {
    const vgpu::RateSample window = device.rate_window();
    if (window.cells != window.busy_ns) ++broken;
  }
  for (std::thread& thread : kernels) thread.join();
  EXPECT_EQ(broken, 0);
  EXPECT_EQ(device.cells_computed(), device.busy_ns());
}

TEST(DeviceTest, MemoryTracking) {
  vgpu::Device device(vgpu::toy_device(1.0));
  {
    auto buffer = device.allocate(1000);
    EXPECT_EQ(device.memory_used(), 1000);
    auto second = device.allocate(24);
    EXPECT_EQ(device.memory_used(), 1024);
  }
  EXPECT_EQ(device.memory_used(), 0);  // RAII released
}

TEST(DeviceTest, OutOfMemoryThrows) {
  vgpu::DeviceSpec spec = vgpu::toy_device(1.0);
  spec.memory_bytes = 100;
  vgpu::Device device(spec);
  auto buffer = device.allocate(80);
  EXPECT_THROW(device.allocate(21), Error);
  EXPECT_EQ(device.memory_used(), 80);  // failed alloc rolled back
}

TEST(DeviceTest, MoveBufferTransfersOwnership) {
  vgpu::Device device(vgpu::toy_device(1.0));
  auto buffer = device.allocate(64);
  vgpu::DeviceBuffer moved = std::move(buffer);
  EXPECT_EQ(device.memory_used(), 64);
  moved.reset();
  EXPECT_EQ(device.memory_used(), 0);
}

/// OS threads of this process: the entries of /proc/self/task.
std::size_t os_thread_count() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++count;
  }
  return count;
}

// A device starts no thread of its own: the engine's per-device thread runs
// its kernels inline, so a fleet costs no thread until a run starts.
TEST(DeviceTest, FleetOfEightAddsNoThread) {
  const std::size_t before = os_thread_count();
  const core::DeviceFleet fleet = core::DeviceFleet::from_specs(
      std::vector<vgpu::DeviceSpec>(8, vgpu::toy_device(10.0)));
  ASSERT_EQ(fleet.size(), 8u);
  EXPECT_EQ(os_thread_count(), before);
}

}  // namespace
}  // namespace mgpusw
