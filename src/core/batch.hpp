// Batch comparison scheduler.
//
// The paper's evaluation compares four chromosome pairs back to back on
// one device set; a production service has *many* independent
// comparisons in flight. This module schedules a list of comparisons
// over a shared DeviceFleet: each item leases `devices_per_item` devices
// (FIFO-fair, blocking) and up to `max_in_flight` items run
// concurrently on disjoint leases. Per-item results are bit-identical
// to a sequential run — the engine's reduction is a total order, so
// neither the lease composition nor the interleaving can change a
// score. Aggregate batch GCUPS is computed from batch wall time, so
// concurrency shows up in the metric.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/fleet.hpp"
#include "core/recovery.hpp"

namespace mgpusw::core {

struct BatchItem {
  std::string label;
  seq::Sequence query;
  seq::Sequence subject;
  /// Admission order: higher runs first; ties keep submission order.
  int priority = 0;
  /// Optional cancel flag (owned by the caller, e.g. the service's job
  /// record). When raised, the item's engine stops at the next
  /// scheduling-unit boundary with InterruptedError — recovery does not
  /// restart a cancelled item.
  std::atomic<bool>* cancel = nullptr;

  /// Durable-checkpoint handoff (the service's journal layer). When
  /// non-null, the item's engine checkpoints into this store (usually a
  /// disk-spilling SpecialRowStore that outlives the process) at the
  /// recovery policy's checkpoint_interval, overriding
  /// BatchConfig::engine's store for this item. Requires
  /// enable_recovery.
  SpecialRowStore* checkpoints = nullptr;
  /// Where the item resumes from (row = -1: from scratch). Only
  /// meaningful with `checkpoints`, which must contain the row.
  ResumeSpec resume{};
  /// Forwarded to run_with_recovery: fires before each in-process
  /// restart with the crash-resumable (row, carried best) pair.
  RestartHook on_restart{};
};

struct BatchItemResult {
  std::string label;
  EngineResult result;
  /// Recovery bookkeeping (zero / empty unless enable_recovery fired).
  int restarts = 0;
  std::vector<std::string> lost_devices;
};

struct BatchConfig {
  EngineConfig engine;
  /// Devices leased per comparison; 0 = the whole fleet (the paper's
  /// one-comparison-spans-all-devices mode).
  int devices_per_item = 0;
  /// Comparisons running concurrently on disjoint leases. 1 = strictly
  /// sequential (the paper's evaluation order).
  int max_in_flight = 1;

  /// Run each item under run_with_recovery: device deaths shrink the
  /// item's lease (the fleet stops leasing dead devices), transient
  /// failures restart from checkpoints, and an item whose whole lease
  /// died retries on a fresh lease from the surviving pool.
  bool enable_recovery = false;
  RecoveryPolicy recovery;

  /// Items whose query AND subject are both at most this many bases skip
  /// the block engine and run through the inter-sequence SIMD kernel
  /// (sw/batch_simd.hpp) — one pair per vector lane, 16/32 short
  /// comparisons at a time — before the item threads start. 0 = off.
  /// Results are bit-identical to engine runs; the per-item EngineResult
  /// then reports the batch kernel's name and a proportional share of
  /// the pre-pass wall time.
  std::int64_t interseq_max_len = 0;
  /// Batch kernel for the short-item pre-pass (sw::batch_kernel_names()).
  std::string interseq_kernel = "interseq";

  /// Completion hook, called once per item as it finishes: the item's
  /// index, its (possibly partial) result entry, and the error that
  /// aborted it — nullptr on success. Runs on the worker thread that ran
  /// the item, so it must be thread-safe when max_in_flight > 1; it
  /// fires before run_batch returns and before a batch-level abort
  /// rethrows.
  std::function<void(std::size_t, const BatchItemResult&,
                     std::exception_ptr)>
      on_item_done;
};

struct BatchResult {
  std::vector<BatchItemResult> items;
  double total_seconds = 0.0;  // summed per-item wall time
  double wall_seconds = 0.0;   // batch wall-clock time
  std::int64_t total_cells = 0;

  /// Aggregate GCUPS across the whole batch, from batch wall time —
  /// concurrent items overlap, so this exceeds summed_gcups() when
  /// max_in_flight > 1 actually helps.
  [[nodiscard]] double gcups() const {
    return base::gcups(total_cells,
                       wall_seconds > 0.0 ? wall_seconds : total_seconds);
  }

  /// GCUPS over summed per-item time (concurrency-blind; the paper's
  /// back-to-back accounting).
  [[nodiscard]] double summed_gcups() const {
    return base::gcups(total_cells, total_seconds);
  }
};

/// Runs every item on leases drawn from `fleet`. Items are admitted in
/// priority order (descending; ties by position); each engine sees the
/// item's label in ProgressEvent::job. Exceptions from any item abort
/// the batch (first error rethrown after all in-flight items finish and
/// release their leases).
[[nodiscard]] BatchResult run_batch(const BatchConfig& config,
                                    DeviceFleet& fleet,
                                    const std::vector<BatchItem>& items);

/// Runs one item: leases devices from `fleet`, runs the engine (under
/// recovery with the degraded-pool retry loop when enable_recovery is
/// set), and fills `entry`. This is the per-item body of run_batch,
/// exposed so a long-lived scheduler (the service daemon) can drive
/// items through the identical lease/recovery/metrics path one job at a
/// time. Throws on failure; `entry` then holds whatever bookkeeping
/// (restarts, lost devices) accumulated before the error.
void run_batch_item(const BatchConfig& config, DeviceFleet& fleet,
                    const BatchItem& item, BatchItemResult& entry);

}  // namespace mgpusw::core
