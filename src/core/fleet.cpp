#include "core/fleet.hpp"

#include "base/error.hpp"
#include "base/time.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mgpusw::core {

DeviceLease& DeviceLease::operator=(DeviceLease&& other) noexcept {
  if (this != &other) {
    release();
    fleet_ = other.fleet_;
    devices_ = std::move(other.devices_);
    indices_ = std::move(other.indices_);
    other.fleet_ = nullptr;
    other.devices_.clear();
    other.indices_.clear();
  }
  return *this;
}

void DeviceLease::release() {
  if (fleet_ == nullptr) return;
  fleet_->release_indices(indices_);
  fleet_ = nullptr;
  devices_.clear();
  indices_.clear();
}

DeviceFleet::DeviceFleet(std::vector<std::unique_ptr<vgpu::Device>> devices)
    : owned_(std::move(devices)) {
  MGPUSW_REQUIRE(!owned_.empty(), "fleet needs at least one device");
  for (const auto& device : owned_) {
    MGPUSW_REQUIRE(device != nullptr, "device pointer is null");
    devices_.push_back(device.get());
  }
  in_use_.assign(devices_.size(), false);
  healthy_.assign(devices_.size(), true);
}

DeviceFleet::DeviceFleet(const std::vector<vgpu::Device*>& devices)
    : devices_(devices) {
  MGPUSW_REQUIRE(!devices_.empty(), "fleet needs at least one device");
  for (vgpu::Device* device : devices_) {
    MGPUSW_REQUIRE(device != nullptr, "device pointer is null");
  }
  in_use_.assign(devices_.size(), false);
  healthy_.assign(devices_.size(), true);
}

DeviceFleet DeviceFleet::from_specs(
    const std::vector<vgpu::DeviceSpec>& specs) {
  std::vector<std::unique_ptr<vgpu::Device>> devices;
  devices.reserve(specs.size());
  for (const vgpu::DeviceSpec& spec : specs) {
    devices.push_back(std::make_unique<vgpu::Device>(spec));
  }
  return DeviceFleet(std::move(devices));
}

std::size_t DeviceFleet::available() const {
  std::lock_guard lock(mu_);
  return free_count_locked();
}

std::size_t DeviceFleet::free_count_locked() const {
  std::size_t free = 0;
  for (std::size_t i = 0; i < in_use_.size(); ++i) {
    if (!in_use_[i] && healthy_[i]) ++free;
  }
  return free;
}

std::size_t DeviceFleet::healthy_count_locked() const {
  std::size_t healthy = 0;
  for (const bool ok : healthy_) {
    if (ok) ++healthy;
  }
  return healthy;
}

std::size_t DeviceFleet::healthy_count() const {
  std::lock_guard lock(mu_);
  return healthy_count_locked();
}

void DeviceFleet::set_obs(const obs::Scope& scope) { obs_ = scope; }

void DeviceFleet::mark_unhealthy(const vgpu::Device* device) {
  {
    std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < devices_.size(); ++i) {
      if (devices_[i] == device && healthy_[i]) {
        healthy_[i] = false;
        if (obs_.metrics != nullptr) {
          obs_.metrics->counter("fleet.devices_unhealthy").increment();
        }
      }
    }
  }
  // Blocked acquires re-evaluate: a request the degraded fleet can no
  // longer satisfy must throw, not wait forever.
  cv_.notify_all();
}

DeviceLease DeviceFleet::grab_locked(std::size_t count) {
  std::vector<vgpu::Device*> granted;
  std::vector<std::size_t> indices;
  granted.reserve(count);
  indices.reserve(count);
  for (std::size_t i = 0; i < devices_.size() && granted.size() < count;
       ++i) {
    if (in_use_[i] || !healthy_[i]) continue;
    in_use_[i] = true;
    granted.push_back(devices_[i]);
    indices.push_back(i);
  }
  MGPUSW_CHECK(granted.size() == count);
  return DeviceLease(this, std::move(granted), std::move(indices));
}

DeviceLease DeviceFleet::acquire(std::size_t count) {
  MGPUSW_REQUIRE(count >= 1, "lease needs at least one device");
  MGPUSW_REQUIRE(count <= devices_.size(),
                 "lease of " << count << " devices from a fleet of "
                             << devices_.size());
  obs::TraceSpan wait_span(obs_.tracer, "fleet", "lease_wait");
  wait_span.arg("count", static_cast<std::int64_t>(count));
  base::WallTimer wait;
  std::unique_lock lock(mu_);
  if (obs_.metrics != nullptr) {
    obs_.metrics->gauge("fleet.waiters").add(1);
  }
  const std::uint64_t ticket = next_ticket_++;
  cv_.wait(lock, [&] {
    return now_serving_ == ticket && (free_count_locked() >= count ||
                                      healthy_count_locked() < count);
  });
  if (obs_.metrics != nullptr) {
    obs_.metrics->gauge("fleet.waiters").add(-1);
    obs_.metrics->histogram("fleet.lease_wait_ms")
        .observe(wait.elapsed_seconds() * 1e3);
  }
  if (healthy_count_locked() < count) {
    // Pass the FIFO head on before throwing, or every later acquire
    // would wait behind a ticket that will never be served.
    ++now_serving_;
    const std::size_t healthy = healthy_count_locked();
    lock.unlock();
    cv_.notify_all();
    throw Error("fleet degraded to " + std::to_string(healthy) +
                " healthy device(s); cannot lease " +
                std::to_string(count));
  }
  DeviceLease lease = grab_locked(count);
  ++now_serving_;
  lock.unlock();
  if (obs_.metrics != nullptr) {
    obs_.metrics->counter("fleet.leases_granted").increment();
  }
  // Wake the next ticket (and any releases racing with it).
  cv_.notify_all();
  return lease;
}

std::optional<DeviceLease> DeviceFleet::try_acquire(std::size_t count) {
  MGPUSW_REQUIRE(count >= 1, "lease needs at least one device");
  MGPUSW_REQUIRE(count <= devices_.size(),
                 "lease of " << count << " devices from a fleet of "
                             << devices_.size());
  std::lock_guard lock(mu_);
  // Respect the FIFO queue: jumping ahead of a blocked acquire would
  // starve wide requests.
  if (next_ticket_ != now_serving_) return std::nullopt;
  if (healthy_count_locked() < count) return std::nullopt;
  if (free_count_locked() < count) return std::nullopt;
  ++next_ticket_;
  DeviceLease lease = grab_locked(count);
  ++now_serving_;
  if (obs_.metrics != nullptr) {
    obs_.metrics->counter("fleet.leases_granted").increment();
  }
  return lease;
}

void DeviceFleet::release_indices(const std::vector<std::size_t>& indices) {
  {
    std::lock_guard lock(mu_);
    for (const std::size_t i : indices) {
      MGPUSW_CHECK(in_use_[i]);
      in_use_[i] = false;
    }
  }
  cv_.notify_all();
}

}  // namespace mgpusw::core
