// Virtual GPU runtime.
//
// A Device stands in for one CUDA device: it owns a tracked memory arena
// (cudaMalloc stand-in), kernel counters and an optional speed throttle.
// It starts no thread of its own: the engine's per-device host thread
// runs each kernel inline and reports it through account_kernel(), the
// way a CUDA host thread launches and waits on its GPU. Each slice's
// border buffers are allocate()d against the device's memory, and the
// kernel launches and allocations are where injected faults strike.
//
// The throttle is how heterogeneity is realized in *real* execution mode
// on a homogeneous host: a device with slowdown s busy-waits (s-1)x the
// measured kernel time after each kernel, making its effective cell rate
// 1/s of the untrottled rate. Model-mode experiments instead use the
// spec's GCUPS figure directly (see src/sim).
//
// Each device also keeps a rate window: the kernel time and cells of its
// recent work, restarted whenever the throttle changes. The planner turns
// it into the device's measured speed (core::estimate_rates), so slices
// follow what the devices actually deliver rather than their profiles.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>

#include "vgpu/spec.hpp"

namespace mgpusw::vgpu {

class FaultInjector;

struct DeviceOptions {
  /// Speed throttle >= 1.0; 1.0 = full host speed.
  double slowdown = 1.0;
};

/// Compute totals over some span of a device's work.
struct RateSample {
  std::int64_t cells = 0;    // cells actually scored
  std::int64_t busy_ns = 0;  // kernel time incl. throttle, stalls excluded
};

/// RAII handle for a tracked device allocation.
class DeviceBuffer;

class Device {
 public:
  Device(DeviceSpec spec, DeviceOptions options = {});

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }
  [[nodiscard]] double slowdown() const {
    return slowdown_.load(std::memory_order_relaxed);
  }

  /// Changes the speed throttle mid-run (>= 1.0). Kernels already in
  /// flight finish at the old rate; later ones pay the new penalty. This
  /// is how tests and benches model a device degrading under load —
  /// thermal throttling, a noisy co-tenant — after the split was planned.
  /// Restarts the rate window: work measured at the old throttle no
  /// longer describes the device.
  void set_slowdown(double slowdown);

  /// Busy-waits the throttle penalty for a kernel that took busy_ns of
  /// host time, and accounts the kernel into the device counters and the
  /// rate window. A kernel whose penalty was paid at a throttle that has
  /// since changed stays out of the restarted window.
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

  /// Kernel totals since the window last restarted (construction or
  /// set_slowdown), as one consistent pair. Once the window holds more
  /// than kRateWindowNs of kernel time both totals are halved, so the
  /// window follows the device's recent speed, not its lifetime mean.
  [[nodiscard]] RateSample rate_window() const;

  static constexpr std::int64_t kRateWindowNs = 1'000'000'000;

 private:
  friend class DeviceBuffer;
  void release(std::int64_t bytes);

  const DeviceSpec spec_;
  std::atomic<double> slowdown_{1.0};  // runtime throttle, mutable mid-run
  std::atomic<FaultInjector*> fault_{nullptr};
  std::atomic<int> fault_ordinal_{0};
  std::atomic<std::int64_t> memory_used_{0};
  std::atomic<std::int64_t> kernels_{0};
  std::atomic<std::int64_t> busy_ns_{0};
  std::atomic<std::int64_t> cells_{0};
  mutable std::mutex window_mu_;
  RateSample window_;  // guarded by window_mu_
  /// Bumped by set_slowdown (after the new throttle is stored), so a
  /// kernel that read the old throttle can tell its sample is stale.
  std::atomic<std::int64_t> window_epoch_{0};
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
