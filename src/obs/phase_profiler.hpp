// Per-device phase attribution: where did each device's wall time go?
//
// Every SliceRunner's driver thread is, at any instant, in exactly one
// phase — computing blocks, waiting for the upstream border, pushing
// the downstream border, persisting special rows, or idle (setup,
// reductions, scheduling gaps). The profiler is an exclusive state
// machine: switch_to() charges the elapsed interval to the phase being
// left, so the per-phase totals partition wall time exactly. That
// exactness is what makes heterogeneous-split imbalance directly
// readable — a slow device shows compute-bound, its fast neighbour
// shows border-recv-bound — and is asserted in tests (phase sums ==
// wall time within tolerance).
//
// One thread only: not thread-safe, by design. The runner computes
// every block on that one thread, so each phase, checkpoint saves
// included, is charged where it happens.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>

namespace mgpusw::obs {

enum class Phase : std::uint8_t {
  kCompute,     // block kernels
  kBorderRecv,  // blocked on the upstream border source
  kBorderSend,  // blocked on the downstream border sink
  kCheckpoint,  // special-row persistence
  kIdle,        // everything else: setup, reductions, teardown
};

inline constexpr std::size_t kPhaseCount = 5;

[[nodiscard]] const char* phase_name(Phase phase);

/// Exclusive-phase stopwatch. Starts in kIdle at construction; stop()
/// closes the final interval. All methods must run on one thread.
class PhaseProfiler {
 public:
  PhaseProfiler() : mark_(clock::now()) {}

  /// Charges time since the last transition to the current phase, then
  /// enters `next`. Switching to the current phase is a cheap no-op
  /// boundary (the interval is still charged correctly).
  void switch_to(Phase next) {
    const clock::time_point now = clock::now();
    accumulate(now);
    current_ = next;
  }

  [[nodiscard]] Phase current() const { return current_; }

  /// Closes the open interval; the profiler keeps running (kIdle).
  void stop() { switch_to(Phase::kIdle); }

  [[nodiscard]] std::int64_t ns(Phase phase) const {
    return totals_[static_cast<std::size_t>(phase)];
  }

  /// Sum across phases == profiled wall time (closed intervals only).
  [[nodiscard]] std::int64_t total_ns() const {
    std::int64_t total = 0;
    for (const std::int64_t t : totals_) total += t;
    return total;
  }

 private:
  using clock = std::chrono::steady_clock;

  void accumulate(clock::time_point now) {
    totals_[static_cast<std::size_t>(current_)] +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(now - mark_)
            .count();
    mark_ = now;
  }

  Phase current_ = Phase::kIdle;
  clock::time_point mark_;
  std::array<std::int64_t, kPhaseCount> totals_{};
};

/// RAII phase override: enters `phase`, restores the previous phase on
/// destruction. A null profiler is inert. Used for nested excursions —
/// e.g. a checkpoint save inside the compute loop.
class ScopedPhase {
 public:
  ScopedPhase(PhaseProfiler* profiler, Phase phase) : profiler_(profiler) {
    if (profiler_ == nullptr) return;
    previous_ = profiler_->current();
    profiler_->switch_to(phase);
  }

  ~ScopedPhase() {
    if (profiler_ != nullptr) profiler_->switch_to(previous_);
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseProfiler* profiler_ = nullptr;
  Phase previous_ = Phase::kIdle;
};

}  // namespace mgpusw::obs
