// Recovery layer: automatic restart of a multi-device run after device
// or communication failures.
//
// The engine reports *what* failed (MultiDeviceEngine::last_failure);
// this layer decides what to do about it:
//
//   run ──failure──► classify (base/error.hpp taxonomy)
//        │             ├── fatal       → rethrow unchanged
//        │             └── transient / device loss
//        │                   ├── drop dead devices from the pool
//        │                   │   (and tell the DeviceFleet, if any)
//        │                   ├── carry the partial best forward
//        │                   └── restart from the newest intact
//        │                       checkpoint (special-row store), bounded
//        │                       by RecoveryPolicy
//        └──success──► merge carried best; done.
//
// The recovered result is bit-identical to an unfailed run: the blocks
// completed before each failure and the blocks of the resumed region
// together cover every matrix cell, and sw::improves is a total order,
// so folding the partial bests reproduces the full-run optimum exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/error.hpp"
#include "core/engine.hpp"
#include "core/fleet.hpp"
#include "seq/sequence.hpp"

namespace mgpusw::core {

/// Bounds on the recovery loop.
struct RecoveryPolicy {
  /// Restarts allowed per comparison before giving up.
  int max_restarts = 2;
  /// Sleep before the first restart; doubles per restart. 0 = none.
  std::int64_t backoff_ms = 0;
  /// Checkpoint every k-th block row when the caller's config has no
  /// special-row store of its own (run_with_recovery then provides an
  /// in-memory store so restarts have something to resume from).
  std::int64_t checkpoint_interval = 4;
};

/// Where a run resumes from: a restartable checkpoint row of the
/// caller's special-row store plus the best score over every cell in
/// rows <= that row. `row = -1` runs from scratch; `carried_best` is
/// merged into the final result either way (merging a best over a
/// subset of cells is a no-op when those cells are recomputed, since
/// sw::improves is a total order).
struct ResumeSpec {
  std::int64_t row = -1;
  sw::ScoreResult carried_best;
};

/// Fired by run_with_recovery right before each in-process restart with
/// the exact state a *process* crash at that moment could resume from:
/// the checkpoint row the restart seeds from and the best carried over
/// all cells at or below it. A durability layer journals this pair.
using RestartHook = std::function<void(const ResumeSpec&)>;

/// A recovered (or clean) run plus how eventful it was.
struct RecoveryResult {
  EngineResult result;
  int restarts = 0;
  std::vector<std::string> lost_devices;  // spec names, in loss order
};

/// The run failed more times than RecoveryPolicy allows, or no healthy
/// device is left to restart on.
class RecoveryExhaustedError : public Error {
 public:
  RecoveryExhaustedError(const std::string& what, int restarts,
                         std::vector<std::string> lost_devices = {})
      : Error(what),
        restarts_(restarts),
        lost_devices_(std::move(lost_devices)) {}
  [[nodiscard]] int restarts() const { return restarts_; }
  /// Devices lost before recovery gave up — the caller's bookkeeping
  /// (e.g. a batch retry on a fresh lease) would otherwise lose them.
  [[nodiscard]] const std::vector<std::string>& lost_devices() const {
    return lost_devices_;
  }

 private:
  int restarts_ = 0;
  std::vector<std::string> lost_devices_;
};

/// Runs query vs subject on `devices` with automatic recovery.
///
/// On a transient failure the run restarts from the newest intact
/// checkpoint on the same pool; on a device loss the dead devices leave
/// the pool first (the column split re-balances over the survivors) and
/// `fleet`, when given, is told to stop leasing them. Fatal errors
/// rethrow unchanged; exhausting the policy throws
/// RecoveryExhaustedError. ProgressEvents are stamped with the current
/// restart count.
///
/// `config.special_rows` may be null — recovery then checkpoints into a
/// private in-memory store per `policy.checkpoint_interval`. A non-null
/// store must have checkpoint_f = true and a positive interval.
///
/// A raised `config.stop_request` is a cancel: the InterruptedError it
/// causes is rethrown at once, without a restart.
///
/// `resume`, when non-null with row >= 0, seeds the first attempt from
/// that row of `config.special_rows` (which must then be non-null and
/// contain it) instead of running from scratch — the cross-process
/// counterpart of the internal restart path. `on_restart` is invoked
/// before each in-process restart with the pair a crash could resume
/// from (see RestartHook).
[[nodiscard]] RecoveryResult run_with_recovery(
    const EngineConfig& config, std::vector<vgpu::Device*> devices,
    const seq::Sequence& query, const seq::Sequence& subject,
    const RecoveryPolicy& policy = {}, DeviceFleet* fleet = nullptr,
    const ResumeSpec* resume = nullptr,
    const RestartHook& on_restart = {});

}  // namespace mgpusw::core
