// Virtual GPU runtime.
//
// A Device stands in for one CUDA device: it owns a tracked memory arena
// (cudaMalloc stand-in) and kernel counters. It starts no thread of its
// own: the engine's per-device host thread runs each kernel inline and
// reports it through account_kernel(), the way a CUDA host thread
// launches and waits on its GPU. Each slice's border buffers are
// allocate()d against the device's memory, and the kernel launches and
// allocations are where injected faults strike.
//
// Every device runs at host speed: real execution mode computes every
// cell on the host's threads and measures what they deliver.
// Heterogeneity is the spec's GCUPS profile, which splits the work of
// devices that have not measured anything yet and drives the model-mode
// experiments (see src/sim).
//
// Each device also keeps a rate window: the kernel time and cells of its
// recent work. The planner turns it into the device's measured speed
// (core::estimate_rates), so slices follow what the devices actually
// deliver rather than their profiles.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>

#include "vgpu/spec.hpp"

namespace mgpusw::vgpu {

class FaultInjector;

/// Compute totals over some span of a device's work.
struct RateSample {
  std::int64_t cells = 0;    // cells actually scored
  std::int64_t busy_ns = 0;  // kernel time, stalls excluded
};

/// RAII handle for a tracked device allocation.
class DeviceBuffer;

class Device {
 public:
  explicit Device(DeviceSpec spec);

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }

  /// Accounts a kernel that took busy_ns of host time into the device
  /// counters and the rate window.
  void account_kernel(std::int64_t busy_ns, std::int64_t cells);

  /// Allocates tracked device memory; throws DeviceLostError when the
  /// spec's capacity would be exceeded (as cudaMalloc would fail — the
  /// recovery layer treats the device as unusable) or when an armed
  /// fault injector trips an allocation fault.
  [[nodiscard]] DeviceBuffer allocate(std::int64_t bytes);

  /// Arms deterministic fault injection for this device: allocate() and
  /// fault_point() consult `injector` (which identifies this device by
  /// `ordinal`) until clear_fault_injector(). The engine arms the
  /// devices of a faulted run and disarms them when the run ends; the
  /// injector must outlive the armed window.
  void set_fault_injector(FaultInjector* injector, int ordinal);
  void clear_fault_injector();

  /// Kernel-launch injection point: throws the armed fault, if any, for
  /// the launch computing block (block_i, block_j). No-op when no
  /// injector is armed.
  void fault_point(std::int64_t block_i, std::int64_t block_j);

  [[nodiscard]] std::int64_t memory_used() const {
    return memory_used_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::int64_t kernels_launched() const {
    return kernels_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t busy_ns() const {
    return busy_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t cells_computed() const {
    return cells_.load(std::memory_order_relaxed);
  }

  /// Kernel totals since construction, as one consistent pair. Once the
  /// window holds more than kRateWindowNs of kernel time both totals are
  /// halved, so the window follows the device's recent speed, not its
  /// lifetime mean.
  [[nodiscard]] RateSample rate_window() const;

  static constexpr std::int64_t kRateWindowNs = 1'000'000'000;

 private:
  friend class DeviceBuffer;
  void release(std::int64_t bytes);

  const DeviceSpec spec_;
  std::atomic<FaultInjector*> fault_{nullptr};
  std::atomic<int> fault_ordinal_{0};
  std::atomic<std::int64_t> memory_used_{0};
  std::atomic<std::int64_t> kernels_{0};
  std::atomic<std::int64_t> busy_ns_{0};
  std::atomic<std::int64_t> cells_{0};
  mutable std::mutex window_mu_;
  RateSample window_;  // guarded by window_mu_
};

class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(Device* device, std::int64_t bytes)
      : device_(device), bytes_(bytes) {}
  ~DeviceBuffer() { reset(); }

  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  DeviceBuffer(DeviceBuffer&& other) noexcept { *this = std::move(other); }
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept {
    if (this != &other) {
      reset();
      device_ = other.device_;
      bytes_ = other.bytes_;
      other.device_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }

  [[nodiscard]] std::int64_t size() const { return bytes_; }
  [[nodiscard]] bool valid() const { return device_ != nullptr; }

  void reset() {
    if (device_ != nullptr) {
      device_->release(bytes_);
      device_ = nullptr;
      bytes_ = 0;
    }
  }

 private:
  Device* device_ = nullptr;
  std::int64_t bytes_ = 0;
};

}  // namespace mgpusw::vgpu
