// Fleet layer: ownership and admission control for a set of devices.
//
// The engine borrows raw device pointers and assumes exclusive use; that
// was fine while the process ran one comparison at a time, but a server
// answering many concurrent comparisons needs an owner that decides who
// computes on what. DeviceFleet owns the devices of one host and hands
// out blocking, FIFO-fair DeviceLeases of N devices; each lease is a
// disjoint device set, so any number of engines can run concurrently
// without sharing a device. Leases release on destruction (RAII), also
// when the leasing engine throws mid-run.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "obs/obs.hpp"
#include "vgpu/device.hpp"
#include "vgpu/spec.hpp"

namespace mgpusw::core {

class DeviceFleet;

/// Exclusive RAII grant of N devices. Move-only; releases its devices
/// back to the fleet on destruction or release().
class DeviceLease {
 public:
  DeviceLease() = default;
  ~DeviceLease() { release(); }

  DeviceLease(const DeviceLease&) = delete;
  DeviceLease& operator=(const DeviceLease&) = delete;
  DeviceLease(DeviceLease&& other) noexcept { *this = std::move(other); }
  DeviceLease& operator=(DeviceLease&& other) noexcept;

  [[nodiscard]] bool valid() const { return fleet_ != nullptr; }
  [[nodiscard]] const std::vector<vgpu::Device*>& devices() const {
    return devices_;
  }

  /// Returns the devices to the fleet early (idempotent).
  void release();

 private:
  friend class DeviceFleet;
  DeviceLease(DeviceFleet* fleet, std::vector<vgpu::Device*> devices,
              std::vector<std::size_t> indices)
      : fleet_(fleet),
        devices_(std::move(devices)),
        indices_(std::move(indices)) {}

  DeviceFleet* fleet_ = nullptr;
  std::vector<vgpu::Device*> devices_;
  std::vector<std::size_t> indices_;  // fleet slots backing devices_
};

/// Owns (or fronts) the devices of one host and arbitrates access.
///
/// acquire(n) blocks until n devices are free AND every earlier acquire
/// has been served — strict FIFO arrival order, so a wide request (all
/// devices) cannot be starved by a stream of narrow ones. Thread-safe.
class DeviceFleet {
 public:
  /// Owning constructor: the fleet manages device lifetime.
  explicit DeviceFleet(std::vector<std::unique_ptr<vgpu::Device>> devices);

  /// Borrowing constructor for legacy call sites that already own their
  /// devices; they must outlive the fleet.
  explicit DeviceFleet(const std::vector<vgpu::Device*>& devices);

  /// Convenience: builds and owns one device per spec.
  static DeviceFleet from_specs(const std::vector<vgpu::DeviceSpec>& specs);

  DeviceFleet(const DeviceFleet&) = delete;
  DeviceFleet& operator=(const DeviceFleet&) = delete;

  [[nodiscard]] std::size_t size() const { return devices_.size(); }

  /// Attaches observability: lease-wait spans plus the
  /// fleet.lease_wait_ms histogram, fleet.leases_granted counter,
  /// fleet.waiters gauge and fleet.devices_unhealthy counter. Call
  /// before concurrent use; the scope's targets must outlive the fleet.
  void set_obs(const obs::Scope& scope);

  /// Healthy devices currently free (snapshot; for tests/monitoring).
  [[nodiscard]] std::size_t available() const;

  /// Devices not marked unhealthy (leased or free).
  [[nodiscard]] std::size_t healthy_count() const;

  /// Takes `device` permanently out of the leasing pool (the recovery
  /// layer calls this when a device dies mid-run). A currently-leased
  /// device finishes its lease normally and is simply never granted
  /// again. Wakes blocked acquires so requests the degraded fleet can no
  /// longer satisfy fail instead of hanging. Unknown pointers ignored.
  void mark_unhealthy(const vgpu::Device* device);

  /// Blocks until `count` healthy devices are free and this caller is at
  /// the head of the FIFO queue, then grants them exclusively. count
  /// must be in [1, size()]. Throws Error when the fleet has degraded
  /// below `count` healthy devices (immediately, or mid-wait after a
  /// mark_unhealthy).
  [[nodiscard]] DeviceLease acquire(std::size_t count);

  /// Non-blocking variant: fails (nullopt) when the devices are not
  /// immediately available, earlier acquires are still waiting, or the
  /// fleet has fewer than `count` healthy devices.
  [[nodiscard]] std::optional<DeviceLease> try_acquire(std::size_t count);

 private:
  friend class DeviceLease;
  void release_indices(const std::vector<std::size_t>& indices);
  [[nodiscard]] std::size_t free_count_locked() const;
  [[nodiscard]] std::size_t healthy_count_locked() const;
  [[nodiscard]] DeviceLease grab_locked(std::size_t count);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  obs::Scope obs_;
  std::vector<std::unique_ptr<vgpu::Device>> owned_;
  std::vector<vgpu::Device*> devices_;
  std::vector<bool> in_use_;
  std::vector<bool> healthy_;
  std::uint64_t next_ticket_ = 0;  // next arrival's queue position
  std::uint64_t now_serving_ = 0;  // FIFO head
};

}  // namespace mgpusw::core
