#include "vgpu/device.hpp"

#include <mutex>
#include <utility>

#include "base/error.hpp"
#include "base/time.hpp"
#include "vgpu/fault.hpp"

namespace mgpusw::vgpu {

Device::Device(DeviceSpec spec, DeviceOptions options)
    : spec_(std::move(spec)) {
  MGPUSW_REQUIRE(options.slowdown >= 1.0,
                 "slowdown must be >= 1.0, got " << options.slowdown);
  slowdown_.store(options.slowdown, std::memory_order_relaxed);
}

void Device::set_slowdown(double slowdown) {
  MGPUSW_REQUIRE(slowdown >= 1.0,
                 "slowdown must be >= 1.0, got " << slowdown);
  std::lock_guard lock(window_mu_);
  slowdown_.store(slowdown);
  window_ = {};
  window_epoch_.fetch_add(1);
}

void Device::account_kernel(std::int64_t busy_ns, std::int64_t cells) {
  kernels_.fetch_add(1, std::memory_order_relaxed);
  cells_.fetch_add(cells, std::memory_order_relaxed);
  std::int64_t total_ns = busy_ns;
  // Epoch before throttle (set_slowdown writes them in the opposite
  // order): a kernel that saw the current epoch also pays the current
  // throttle's penalty.
  const std::int64_t epoch = window_epoch_.load();
  const double slowdown = slowdown_.load();
  if (slowdown > 1.0) {
    const auto penalty = static_cast<std::int64_t>(
        (slowdown - 1.0) * static_cast<double>(busy_ns));
    // Busy-wait: sleeping would release the core to other virtual
    // devices, inflating aggregate throughput beyond what a slower
    // physical device would deliver.
    base::WallTimer timer;
    while (timer.elapsed_ns() < penalty) {
    }
    total_ns += penalty;
  }
  busy_ns_.fetch_add(total_ns, std::memory_order_relaxed);
  std::lock_guard lock(window_mu_);
  if (window_epoch_.load(std::memory_order_relaxed) != epoch) return;
  window_.cells += cells;
  window_.busy_ns += total_ns;
  if (window_.busy_ns > kRateWindowNs) {
    window_.cells /= 2;
    window_.busy_ns /= 2;
  }
}

RateSample Device::rate_window() const {
  std::lock_guard lock(window_mu_);
  return window_;
}

DeviceBuffer Device::allocate(std::int64_t bytes) {
  MGPUSW_REQUIRE(bytes >= 0, "allocation size must be non-negative");
  const std::int64_t used =
      memory_used_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (FaultInjector* injector = fault_.load(std::memory_order_acquire)) {
    try {
      injector->on_alloc(fault_ordinal_.load(std::memory_order_relaxed),
                         used);
    } catch (...) {
      memory_used_.fetch_sub(bytes, std::memory_order_relaxed);
      throw;
    }
  }
  if (used > spec_.memory_bytes) {
    memory_used_.fetch_sub(bytes, std::memory_order_relaxed);
    throw DeviceLostError(
        spec_.name + ": device out of memory (requested " +
        std::to_string(bytes) + " bytes, " +
        std::to_string(spec_.memory_bytes - (used - bytes)) + " available)");
  }
  return DeviceBuffer(this, bytes);
}

void Device::set_fault_injector(FaultInjector* injector, int ordinal) {
  fault_ordinal_.store(ordinal, std::memory_order_relaxed);
  fault_.store(injector, std::memory_order_release);
}

void Device::clear_fault_injector() {
  fault_.store(nullptr, std::memory_order_release);
}

void Device::fault_point(std::int64_t block_i, std::int64_t block_j) {
  if (FaultInjector* injector = fault_.load(std::memory_order_acquire)) {
    injector->on_kernel_launch(
        fault_ordinal_.load(std::memory_order_relaxed), block_i, block_j);
  }
}

void Device::release(std::int64_t bytes) {
  memory_used_.fetch_sub(bytes, std::memory_order_relaxed);
}

}  // namespace mgpusw::vgpu
