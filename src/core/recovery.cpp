#include "core/recovery.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <utility>

#include "base/log.hpp"
#include "base/time.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mgpusw::core {

namespace {

/// Indices (into the failing engine's pool) of devices whose error
/// classifies as device loss — the ones recovery must stop using.
std::vector<std::size_t> lost_indices(const RunFailure& failure) {
  std::vector<std::size_t> lost;
  for (const DeviceFault& fault : failure.faults) {
    if (classify_error(fault.error) == ErrorSeverity::kDeviceLoss) {
      lost.push_back(static_cast<std::size_t>(fault.device_index));
    }
  }
  return lost;
}

}  // namespace

RecoveryResult run_with_recovery(const EngineConfig& base_config,
                                 std::vector<vgpu::Device*> devices,
                                 const seq::Sequence& query,
                                 const seq::Sequence& subject,
                                 const RecoveryPolicy& policy,
                                 DeviceFleet* fleet,
                                 const ResumeSpec* resume,
                                 const RestartHook& on_restart) {
  MGPUSW_REQUIRE(!devices.empty(), "recovery needs at least one device");
  MGPUSW_REQUIRE(policy.max_restarts >= 0,
                 "max_restarts must be non-negative");
  MGPUSW_REQUIRE(resume == nullptr || resume->row < 0 ||
                     base_config.special_rows != nullptr,
                 "resuming from a checkpoint row needs the caller's "
                 "special-row store");

  EngineConfig config = base_config;

  // The caller's stop flag means *cancel the job*, which recovery must
  // never treat as a restartable failure (InterruptedError classifies as
  // transient).
  std::atomic<bool>* const cancel = base_config.stop_request;

  // Checkpoints are what restarts resume from; without a caller-provided
  // store, recovery keeps its own (in-memory — it only needs to survive
  // the attempt loop, not the process).
  SpecialRowStore local_store;
  if (config.special_rows == nullptr) {
    MGPUSW_REQUIRE(policy.checkpoint_interval > 0,
                   "checkpoint_interval must be positive");
    config.special_rows = &local_store;
    config.special_row_interval = policy.checkpoint_interval;
    config.checkpoint_f = true;
  } else {
    MGPUSW_REQUIRE(config.special_row_interval > 0,
                   "recovery needs a positive special_row_interval");
    MGPUSW_REQUIRE(config.checkpoint_f,
                   "recovery needs checkpoint_f so special rows can seed "
                   "restarts");
  }

  // Stamp every ProgressEvent with the restart count so consumers can
  // tell attempts apart. A shared atomic: the wrapper outlives this frame
  // inside engine copies of the callback.
  auto restart_count = std::make_shared<std::atomic<int>>(0);
  if (base_config.progress) {
    config.progress = [inner = base_config.progress,
                       restart_count](const ProgressEvent& event) {
      ProgressEvent stamped = event;
      stamped.restarts = restart_count->load(std::memory_order_relaxed);
      inner(stamped);
    };
  }

  // Pin injector ordinals to the original pool indices: a `dev<N>` fault
  // spec must keep naming the same physical device after deaths shrink
  // the pool, and a survivor must not inherit a dead ordinal.
  std::vector<int> ordinals(devices.size());
  for (std::size_t d = 0; d < ordinals.size(); ++d) {
    ordinals[d] = static_cast<int>(d);
  }

  base::WallTimer total_wall;
  RecoveryResult out;
  sw::ScoreResult carried_best;
  std::int64_t resume_row = -1;
  if (resume != nullptr) {
    // Cross-process resume: seed the first attempt exactly like an
    // internal restart would — from the caller's checkpoint row with
    // the best over everything at or below it carried forward.
    carried_best = resume->carried_best;
    resume_row = resume->row;
  }
  std::int64_t backoff_ms = policy.backoff_ms;
  const std::int64_t rows = query.size();
  const std::int64_t cols = subject.size();

  while (true) {
    if (config.fault != nullptr) config.fault_ordinals = ordinals;

    MultiDeviceEngine engine(config, devices);
    std::exception_ptr error;
    try {
      EngineResult result =
          resume_row < 0
              ? engine.run(query, subject)
              : engine.resume(query, subject, *config.special_rows,
                              resume_row);
      // Success: fold the best carried over from failed attempts. The
      // completed-then-lost blocks and the resumed region cover every
      // cell, so this merge equals the unfailed run's best exactly.
      if (sw::improves(carried_best, result.best)) {
        result.best = carried_best;
      }
      result.matrix_cells = rows * cols;
      result.wall_seconds = total_wall.elapsed_seconds();
      out.result = std::move(result);
      out.restarts = restart_count->load(std::memory_order_relaxed);
      return out;
    } catch (...) {
      error = std::current_exception();
    }

    // A raised cancel flag means this failure *is* the cancel: rethrow
    // without consuming a restart or losing a device.
    if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
      std::rethrow_exception(error);
    }

    // Judge the failure by *all* per-device faults, not just the first
    // error the engine rethrew: when a device dies, its neighbours often
    // fail first with secondary errors (closed channel, protocol
    // violation), and any of those may be what `error` holds. A genuine
    // device loss anywhere makes the run recoverable.
    const RunFailure& failure = engine.last_failure();
    const std::vector<std::size_t> lost = lost_indices(failure);
    if (lost.empty() && classify_error(error) == ErrorSeverity::kFatal) {
      std::rethrow_exception(error);
    }
    if (failure.valid) {
      if (sw::improves(failure.partial_best, carried_best)) {
        carried_best = failure.partial_best;
      }
      // Erase descending so earlier indices stay valid.
      for (auto it = lost.rbegin(); it != lost.rend(); ++it) {
        const std::size_t d = *it;
        MGPUSW_CHECK(d < devices.size());
        MGPUSW_LOG(kWarn) << "recovery: lost device "
                          << devices[d]->spec().name;
        out.lost_devices.push_back(devices[d]->spec().name);
        if (fleet != nullptr) fleet->mark_unhealthy(devices[d]);
        devices.erase(devices.begin() + static_cast<std::ptrdiff_t>(d));
        ordinals.erase(ordinals.begin() + static_cast<std::ptrdiff_t>(d));
      }
    }

    const int restarts_used =
        restart_count->load(std::memory_order_relaxed);
    if (devices.empty()) {
      throw RecoveryExhaustedError(
          "recovery exhausted: no healthy devices left after " +
              std::to_string(restarts_used) + " restart(s)",
          restarts_used, out.lost_devices);
    }
    if (restarts_used >= policy.max_restarts) {
      std::string reason = "unknown error";
      try {
        std::rethrow_exception(error);
      } catch (const std::exception& e) {
        reason = e.what();
      } catch (...) {
      }
      throw RecoveryExhaustedError(
          "recovery exhausted: " + std::to_string(restarts_used) +
              " restart(s) used, last error: " + reason,
          restarts_used, out.lost_devices);
    }
    restart_count->fetch_add(1, std::memory_order_relaxed);
    if (config.obs.metrics != nullptr) {
      config.obs.metrics->counter("recovery.restarts").increment();
      config.obs.metrics->counter("recovery.devices_lost")
          .add(static_cast<std::int64_t>(lost.size()));
    }
    if (config.obs.tracer != nullptr) {
      config.obs.tracer->instant(
          "recovery", "restart",
          {obs::TraceArg::number(
               "attempt", restart_count->load(std::memory_order_relaxed)),
           obs::TraceArg::number(
               "devices_left", static_cast<std::int64_t>(devices.size())),
           obs::TraceArg::number("lost",
                                 static_cast<std::int64_t>(lost.size()))});
    }

    if (backoff_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms *= 2;
    }

    // Restart from the newest checkpoint row that survived the failure
    // intact (complete coverage, F data, CRC); -1 restarts from scratch.
    // limit = rows - 1 keeps the resume precondition row + 1 < rows.
    resume_row = config.special_rows->last_restartable_row(cols, rows - 1);
    // (resume_row, carried_best) is now precisely what a process crash
    // could restart from; give the durability layer its chance to make
    // it crash-safe before the in-process attempt consumes it.
    if (on_restart) on_restart(ResumeSpec{resume_row, carried_best});
    MGPUSW_LOG(kInfo) << "recovery: restart "
                      << restart_count->load(std::memory_order_relaxed)
                      << " on " << devices.size() << " device(s)"
                      << (resume_row < 0
                              ? std::string(" from scratch")
                              : " from checkpoint row " +
                                    std::to_string(resume_row));
  }
}

}  // namespace mgpusw::core
