// Feedback-driven dynamic load rebalancing, and the one device-rate
// estimator the planner shares with it.
//
// The column split is decided once, up front, from device weights (each
// device's measured rate window, or its spec GCUPS while a window is
// short). When a weight is wrong — a mispredicted profile, a device
// throttled mid-run — the whole fine-grain pipeline drains at the
// laggard's rate while every faster device burns its time waiting on
// borders. This module closes the loop:
//
//   SliceRunner ──ProgressEvent{cells, busy_ns}──► RebalanceController
//        ▲                                              │
//        │    stop_request (checked at scheduling-      │ observed rates
//        │    unit boundaries, throws InterruptedError) │ diverge from the
//        └──────────────────────────────────────────────┘ planned shares
//
// run_with_recovery owns the controller: when it trips, the run stops
// cooperatively, the remaining rows are re-split with the *measured*
// rates as custom weights, and the restart resumes from the newest
// checkpoint through the exact machinery device-loss recovery uses — so
// a rebalanced run is bit-identical to an unrebalanced one.
//
// Rates are derived from Device::busy_ns (kernel time including the
// throttle penalty), not wall time, so border-wait and buffer stalls are
// discounted: a fast device starved by its upstream neighbour still
// reports its true compute rate.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/slice_runner.hpp"
#include "vgpu/device.hpp"

namespace mgpusw::core {

/// When and how aggressively the controller re-splits. Default-disabled;
/// the knobs trade reaction time against re-split overhead (each
/// re-split abandons the rows computed past the newest checkpoint).
struct RebalancePolicy {
  bool enabled = false;
  /// Evaluate the split every time the *slowest* device has completed
  /// this many further block rows.
  std::int64_t check_every_rows = 8;
  /// Hysteresis threshold: re-split only when the projected makespan of
  /// the current split exceeds a perfectly proportional one by this
  /// fraction (0.5 = the slowest slice would take 50% longer than the
  /// fastest). Below it, the measured skew is treated as noise.
  double min_imbalance = 0.5;
  /// Re-splits allowed per comparison. Each one also consumes a restart
  /// from RecoveryPolicy::max_restarts (shared budget).
  int max_resplits = 2;
};

/// Kernel time a device must have measured before its rate is trusted:
/// below it, two threads of a shared host, or two slices whose rows
/// differ in how many blocks fall back to a wider precision, can measure
/// far apart on equal devices. The planner uses spec weights until every
/// device's rate window holds this much; the rebalancer asks a shorter
/// sample for more skew.
inline constexpr std::int64_t kTrustedBusyNs = 10'000'000;

/// Effective cell rate per device (cells per second) from per-device
/// compute totals — the one place (cells, busy_ns) becomes a rate.
/// Returns an empty vector when any device has no measurable sample yet
/// (zero cells or zero busy time) — callers treat that as "not enough
/// data, keep waiting".
[[nodiscard]] std::vector<double> estimate_rates(
    const std::vector<vgpu::RateSample>& samples);

/// How lopsided a split is, given the share of columns each device was
/// planned to own and its observed rate: the ratio of the slowest
/// projected per-device finish time (share / rate) to the fastest, minus
/// one. 0 = perfectly proportional; 3.0 = the worst device needs 4x the
/// time of the best. Both vectors must be the same non-zero size with
/// positive entries.
[[nodiscard]] double split_imbalance(
    const std::vector<double>& planned_shares,
    const std::vector<double>& observed_rates);

/// Normalizes weights to sum 1 (REQUIREs a positive sum).
[[nodiscard]] std::vector<double> normalize_weights(
    std::vector<double> weights);

/// Watches ProgressEvents from one engine run and raises a cooperative
/// stop flag when the observed per-device rates say the planned split is
/// lopsided beyond the policy threshold. Thread-safe: observe() is called
/// concurrently from every device's driver thread.
///
/// A device's rate is the upper quartile of its per-unit rates this
/// attempt, not its cumulative rate: a unit can run many times slower
/// than the device for reasons that do not last — the first kernel call
/// on a thread, a host preemption inside a call, the block rows whose
/// path of high scores forces a wider precision — and on samples of a
/// few units one such unit would swing a cumulative rate past the
/// threshold. While any device has run under kTrustedBusyNs of kernel
/// time, the skew must also beat the policy threshold by a further
/// factor of 1.3 (see rebalance.cpp), the spread equal devices show on
/// such samples.
///
/// Lifecycle (per engine attempt): construct → set_planned_shares(from
/// the engine's plan) → wire stop_flag() into EngineConfig::stop_request
/// and observe() into the progress callback → run. After the run, if
/// stop_requested(), observed_weights() is the measured-rate split for
/// the restart.
class RebalanceController {
 public:
  explicit RebalanceController(const RebalancePolicy& policy);

  /// The fraction of columns the plan gave each device (normalized block
  /// columns). Must be called before the first evaluation can fire.
  void set_planned_shares(std::vector<double> shares);

  /// Feeds one progress event. Cheap when no evaluation is due (one
  /// mutex, a few integer updates).
  void observe(const ProgressEvent& event);

  /// The flag the engine's runners poll at scheduling-unit boundaries.
  [[nodiscard]] std::atomic<bool>* stop_flag() { return &stop_; }

  [[nodiscard]] bool stop_requested() const {
    return stop_.load(std::memory_order_acquire);
  }

  /// Measured rates normalized to weights; valid after stop_requested().
  [[nodiscard]] std::vector<double> observed_weights() const;

  /// Imbalance of the latest evaluation (-1 before the first one).
  [[nodiscard]] double last_imbalance() const;

  /// Evaluations performed so far (diagnostic).
  [[nodiscard]] int checks_run() const;

 private:
  struct DeviceState {
    bool seen = false;
    std::int64_t baseline_units = 0;  // units completed before we watched
    std::int64_t units = 0;           // latest completed_units
    vgpu::RateSample total;           // cumulative at the latest event
    std::vector<double> unit_rates;   // one per measurable unit
  };

  void evaluate_locked();

  const RebalancePolicy policy_;
  mutable std::mutex mu_;
  std::vector<double> shares_;       // normalized; empty until set
  std::vector<DeviceState> states_;  // grown on demand by device index
  std::int64_t next_check_ = 0;
  int checks_ = 0;
  double last_imbalance_ = -1.0;
  std::vector<double> rates_;  // cells/s at the moment the stop fired
  std::atomic<bool> stop_{false};
};

}  // namespace mgpusw::core
