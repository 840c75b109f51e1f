// The daemon's job table and priority queue.
//
// One JobQueue owns every job the daemon has accepted, for its whole
// lifetime (terminal jobs stay queryable until shutdown — the "persist"
// the protocol needs for STATUS/RESULT after completion). Scheduling
// order is priority descending, FIFO within a priority; a tenant at its
// running quota is skipped, not blocked — the next runnable tenant's
// job starts instead.
//
// Cancel semantics by state:
//   queued      -> kCancelled immediately (never reaches the fleet)
//   running     -> the job's cancel flag is raised; the engine stops at
//                  the next scheduling-unit boundary and the scheduler
//                  marks the job cancelled (the lease is released by the
//                  normal unwind, so the fleet is never wedged)
//   completing / terminal -> no-op; the current state is returned
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "seq/sequence.hpp"
#include "serve/protocol.hpp"
#include "serve/quota.hpp"

namespace mgpusw::serve {

/// One accepted job. State transitions and the bookkeeping fields are
/// guarded by the owning JobQueue's mutex; the progress snapshot has
/// its own lock because engine device threads write it concurrently
/// with protocol reads.
struct Job {
  std::int64_t id = -1;
  std::string tenant;
  std::string label;
  int priority = 0;
  seq::Sequence query;
  seq::Sequence subject;
  /// The wire spec as submitted — what the journal persists, so a
  /// restarted daemon can rebuild the job (and its sequences) verbatim.
  SubmitRequest spec;

  JobState state = JobState::kQueued;
  /// Set while finish() runs its before_wake step: the job is terminal,
  /// but RESULT waiters are not woken until the step is done.
  bool settling = false;
  std::atomic<bool> cancel{false};
  core::BatchItemResult entry;  // result + recovery bookkeeping
  std::string error;            // failure message (kFailed)

  // --- journal-mode fields (unused without a journal) ---
  /// Per-job disk checkpoint store under the journal directory; owned
  /// here so it survives scheduler unwinds but dies with the job table.
  std::unique_ptr<core::SpecialRowStore> checkpoints;
  /// Seed for the next run (replay fills it from the journal + a disk
  /// probe); row = -1 runs from scratch.
  core::ResumeSpec resume;
  /// Checkpoint row the job's run actually resumed from (-1: none) —
  /// surfaced as JobStatus::resumed_row.
  std::int64_t resumed_row = -1;
  /// True when this daemon life never ran the job: its terminal facts
  /// (entry fields, result_json) were replayed from the journal.
  bool replayed = false;
  std::string replayed_result_json;  // RESULT body for replayed jobs

  /// Submit-to-result latency bookkeeping (steady-clock ns since the
  /// queue's epoch).
  std::int64_t submit_ns = 0;
  std::int64_t done_ns = 0;

  /// Progress snapshot, aggregated over the engine's device threads.
  struct Progress {
    std::mutex mu;
    std::map<int, std::pair<std::int64_t, std::int64_t>> device_units;
    int restarts = 0;

    // Journal-mode durability cursor. Per-device (safe_row, best) of
    // the current attempt; once every device of the attempt has
    // reported, min(safe_row) + the merged bests fold into the durable
    // pair — the invariant being that `durable_best` covers every cell
    // in rows <= durable_row, so the pair is what a CHECKPOINT record
    // may journal.
    std::map<int, std::pair<std::int64_t, sw::ScoreResult>> device_safe;
    std::int64_t durable_row = -1;
    sw::ScoreResult durable_best;
    std::int64_t journaled_row = -1;  // newest CHECKPOINT written
    std::int64_t last_checkpoint_ns = 0;
  };
  Progress progress;

  /// Sums the per-device snapshot into a wire-ready update.
  [[nodiscard]] ProgressUpdate progress_update();
};

class JobQueue {
 public:
  explicit JobQueue(QuotaPolicy policy);

  /// Admits a job (unless the tenant's pending quota rejects it — then
  /// throws ServeError("quota-exceeded") — or the queue is closed or
  /// draining — ServeError("shutting-down")). Returns the job with its
  /// id set.
  std::shared_ptr<Job> submit(std::string tenant, std::string label,
                              int priority, seq::Sequence query,
                              seq::Sequence subject);

  /// Spec-carrying admission used by the journal path. When the spec
  /// has an idempotency key the tenant already used, no job is created:
  /// the original is returned and `*deduped` set — whatever its state,
  /// so a resubmission after a daemon restart finds its result instead
  /// of recomputing.
  std::shared_ptr<Job> submit(SubmitRequest spec, seq::Sequence query,
                              seq::Sequence subject,
                              bool* deduped = nullptr);

  /// Installs a job replayed from the journal: id, spec, state and any
  /// replayed terminal facts are already set by the caller. Queued jobs
  /// enter the pending queue (and charge the tenant's pending quota);
  /// terminal jobs only join the table, immediately queryable. Bumps
  /// the id counter past the replayed id and registers the idempotency
  /// key. Must run before the queue is closed or draining.
  void restore(const std::shared_ptr<Job>& job);

  /// Stops admission without cancelling anything: submit() refuses,
  /// next() returns null (running jobs finish normally), queued jobs
  /// stay queued — journaled as plain SUBMITs for the next daemon life.
  void drain();
  [[nodiscard]] bool draining() const;

  /// Snapshot of every job in the table, id-ascending (journal
  /// compaction walks this).
  [[nodiscard]] std::vector<std::shared_ptr<Job>> all_jobs() const;

  /// Blocks for the next runnable job: highest priority first, FIFO
  /// within a priority, skipping tenants at their running quota. Marks
  /// it kRunning and charges the tenant's running quota. Returns null
  /// once the queue is closed and drained of runnable work.
  std::shared_ptr<Job> next();

  /// The scheduler finished running `job` (any outcome): settles the
  /// tenant's running quota, stamps the terminal state, releases the
  /// job's inputs — its sequences and the spec's inline bases — which a
  /// terminal job never needs again (the journal re-serves it from its
  /// outcome), runs `before_wake` outside the queue lock, and only then
  /// wakes RESULT waiters. The daemon compacts its journal in
  /// `before_wake`, so a client that has its RESULT finds the job's
  /// bases already gone from the log. `state` must be terminal.
  void finish(const std::shared_ptr<Job>& job, JobState state,
              std::string error_message = {},
              const std::function<void()>& before_wake = {});

  /// Moves a running job to kCompleting (the engine is done; the result
  /// is being published). Cancel is a no-op from here on.
  void mark_completing(const std::shared_ptr<Job>& job);

  /// Cancels by id. Returns the job's state after the attempt (queued
  /// jobs transition to kCancelled right here). Throws
  /// ServeError("not-found") for unknown ids.
  JobState cancel(std::int64_t job_id);

  /// Looks a job up; throws ServeError("not-found") if absent.
  [[nodiscard]] std::shared_ptr<Job> find(std::int64_t job_id);

  /// Blocks until `job` reaches a terminal state.
  void wait_terminal(const std::shared_ptr<Job>& job);

  /// Snapshot of a job's wire status (everything but result_json).
  [[nodiscard]] JobStatus status(const std::shared_ptr<Job>& job);

  /// Copy of a job's wire spec, taken under the queue lock because
  /// finish() releases its inline bases.
  [[nodiscard]] SubmitRequest spec(const std::shared_ptr<Job>& job);

  /// Stops admission and wakes every blocked next()/wait_terminal().
  /// Queued jobs are cancelled; running jobs get their cancel flag
  /// raised so schedulers can unwind.
  void close();

  [[nodiscard]] bool closed() const;
  /// Jobs currently waiting (the serve.queue_depth gauge).
  [[nodiscard]] std::int64_t depth() const;

 private:
  mutable std::mutex mu_;
  std::condition_variable runnable_cv_;  // queue or quota state changed
  std::condition_variable terminal_cv_;  // some job reached terminal
  QuotaLedger quota_;
  std::deque<std::shared_ptr<Job>> pending_;  // admission order
  std::map<std::int64_t, std::shared_ptr<Job>> jobs_;
  /// "tenant\nkey" -> job, for idempotent resubmission.
  std::map<std::string, std::shared_ptr<Job>> by_key_;
  std::int64_t next_id_ = 1;
  bool closed_ = false;
  bool draining_ = false;
  const std::int64_t epoch_ns_;
};

}  // namespace mgpusw::serve
