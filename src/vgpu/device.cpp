#include "vgpu/device.hpp"

#include <mutex>
#include <utility>

#include "base/error.hpp"
#include "vgpu/fault.hpp"

namespace mgpusw::vgpu {

Device::Device(DeviceSpec spec) : spec_(std::move(spec)) {}

void Device::account_kernel(std::int64_t busy_ns, std::int64_t cells) {
  kernels_.fetch_add(1, std::memory_order_relaxed);
  cells_.fetch_add(cells, std::memory_order_relaxed);
  busy_ns_.fetch_add(busy_ns, std::memory_order_relaxed);
  std::lock_guard lock(window_mu_);
  window_.cells += cells;
  window_.busy_ns += busy_ns;
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
