// The alignment service daemon (mgpusw-serve).
//
// One AlignServer owns the whole serving stack:
//
//   TcpListener ──► connection threads ──► JobQueue (priority + quotas)
//                                              │
//                              scheduler threads (one job each)
//                                              │
//                        core::run_batch_item  ──►  DeviceFleet lease
//                        (run_with_recovery: device death degrades the
//                         job, checkpoint restarts keep the score
//                         bit-identical; cancel stops cooperatively)
//
// Connection threads only ever touch the queue and job snapshots —
// device work happens exclusively on scheduler threads, so a slow or
// hostile client cannot stall the fleet. Metrics: the shared registry
// collects fleet.*, batch.*, recovery.* from the engine layers plus the
// serve.* counters the daemon maintains; METRICS (or a plain HTTP GET
// on the same port) returns one merged snapshot.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "core/fleet.hpp"
#include "obs/metrics.hpp"
#include "serve/job_queue.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/quota.hpp"
#include "vgpu/device.hpp"
#include "vgpu/fault.hpp"

namespace mgpusw::serve {

struct ServerConfig {
  /// Port to bind (0 = ephemeral; read back with port()).
  std::uint16_t port = 0;
  /// Virtual devices in the fleet (environment-1 profiles, round-robin).
  int devices = 3;
  /// Concurrent jobs (scheduler threads). Each job leases
  /// `devices_per_job` devices, so keep threads * devices_per_job within
  /// the fleet or jobs will serialize on the lease queue (which is safe,
  /// just not concurrent).
  int scheduler_threads = 2;
  /// Devices leased per job; 0 = the whole fleet.
  int devices_per_job = 0;
  /// Block geometry for served jobs (small blocks keep progress events
  /// and cancel latency fine-grained).
  std::int64_t block = 128;
  sw::ScoreScheme scheme;
  QuotaPolicy quota;
  /// Recovery wrapping for every job (device death -> degraded lease,
  /// checkpoint restart; see core/recovery.hpp).
  bool enable_recovery = true;
  core::RecoveryPolicy recovery;
  /// Fault plan (vgpu grammar, e.g. "dev0:die@kernel=40") armed on the
  /// FIRST job that starts — only that job sees injected faults, so one
  /// injected death cannot re-fire in every concurrent job's
  /// lease-local ordinal space. Empty = no injection.
  std::string fault_plan;
  /// Admission cap on query/subject length (inline or synthetic), the
  /// daemon's defence against a single job monopolizing memory.
  std::int64_t max_job_bases = 4u << 20;

  /// Durable job journal directory (empty = volatile daemon, the
  /// pre-journal behaviour). With a journal every accepted job is
  /// written ahead of its SUBMIT_OK, runs checkpoint to disk, and a
  /// restarted daemon replays the log: terminal results are re-served,
  /// queued jobs re-enqueue, and mid-flight jobs resume from their
  /// newest intact checkpoint.
  std::string journal_dir;
  /// fdatasync every journal append (safe against power loss, not just
  /// daemon death). Off by default: tests and benches only need
  /// process-crash durability.
  bool journal_fsync = false;
  /// Compact the log once this many records accumulated since the last
  /// compaction (and terminal entries dominate the job table).
  std::int64_t journal_compact_min_appends = 512;
  /// Minimum spacing between CHECKPOINT records per job.
  std::int64_t journal_checkpoint_interval_ms = 200;
};

class AlignServer {
 public:
  explicit AlignServer(ServerConfig config);
  ~AlignServer();

  AlignServer(const AlignServer&) = delete;
  AlignServer& operator=(const AlignServer&) = delete;

  /// The bound port (useful with config.port = 0).
  [[nodiscard]] std::uint16_t port() const;

  /// Starts the accept loop and scheduler threads; returns immediately.
  void start();
  /// start() + block until a SHUTDOWN frame (or stop()) arrives.
  void run();
  /// Stops everything: closes the listener and queue, cancels live
  /// jobs, joins all threads. Idempotent; called by the destructor.
  ///
  /// Journal semantics: unless a drain was requested (SHUTDOWN with
  /// drain=true, or request_drain()), stop() freezes the journal FIRST
  /// — the in-memory cancels that follow are never journaled, so
  /// running and queued jobs replay in the next daemon life exactly as
  /// if the process had crashed. A drain stop instead lets running
  /// jobs finish (journaling their terminals) before closing.
  void stop();

  /// Switches the next stop() to drain mode: admission stops, running
  /// jobs finish and journal their terminals, queued jobs stay queued
  /// (their SUBMIT records carry them into the next daemon life).
  void request_drain();

  /// Jobs reconstructed from the journal at startup (0 without one).
  [[nodiscard]] std::int64_t replayed_jobs() const {
    return replayed_jobs_;
  }

  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }

  /// The merged metrics snapshot the METRICS frame returns.
  [[nodiscard]] std::string metrics_json();

 private:
  struct Connection {
    std::shared_ptr<comm::TcpStream> stream;
    std::thread thread;
    /// Set by the handler thread as its last act; the accept loop then
    /// joins it and drops the stream, closing the descriptor.
    std::shared_ptr<std::atomic<bool>> finished;
  };

  void accept_loop();
  void handle_connection(comm::TcpStream& stream);
  /// Answers a plain HTTP GET with the metrics snapshot and closes.
  void handle_http_scrape(comm::TcpStream& stream);
  /// Dispatches one protocol message; returns false when the
  /// connection should close (SHUTDOWN or a framing error).
  bool dispatch(comm::TcpStream& stream, const Message& message);
  void scheduler_loop();
  void run_job(const std::shared_ptr<Job>& job);
  void handle_submit(comm::TcpStream& stream, const std::string& body);
  void handle_progress_stream(comm::TcpStream& stream,
                              const std::shared_ptr<Job>& job);

  /// Builds the job's sequences from its wire spec (inline bases or the
  /// synthetic generator) — shared by admission and journal replay so a
  /// replayed job is bit-identical to its first submission.
  void make_sequences(const SubmitRequest& request, seq::Sequence& query,
                      seq::Sequence& subject) const;
  /// Replays the journal into the queue: terminal jobs become
  /// immediately queryable, everything else re-enqueues (mid-flight
  /// jobs with a ResumeSpec probed from their checkpoint store).
  void replay_journal();
  /// Appends one record unless the journal is absent or frozen; returns
  /// whether it did.
  bool journal_append(const JournalRecord& record);
  /// Journals a job's terminal record (DONE, FAILED or CANCELLED) and,
  /// once it is durable, deletes the job's checkpoint directory.
  void journal_terminal(Job& job, const JournalRecord& terminal);
  /// Journals the job's durable (row, best) pair if it advanced and the
  /// per-job checkpoint interval elapsed (force skips the throttle).
  void maybe_journal_checkpoint(const std::shared_ptr<Job>& job,
                                bool force = false);
  /// Rewrites the log as one snapshot when terminal records dominate.
  void maybe_compact();

  ServerConfig config_;
  obs::MetricsRegistry metrics_;
  std::unique_ptr<core::DeviceFleet> fleet_;  // owns the devices
  std::unique_ptr<vgpu::FaultInjector> injector_;
  std::atomic<bool> fault_armed_{false};
  JobQueue queue_;
  std::unique_ptr<JobJournal> journal_;  // null without journal_dir
  /// Set by a non-drain stop() before anything is cancelled: appends
  /// become no-ops, so the shutdown is journal-indistinguishable from a
  /// crash and unfinished jobs replay next life.
  std::atomic<bool> journal_frozen_{false};
  std::atomic<bool> drain_requested_{false};
  std::int64_t replayed_jobs_ = 0;  // written once, before start()
  comm::TcpListener listener_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;
  std::vector<std::thread> scheduler_threads_;
  std::mutex connections_mu_;
  std::vector<Connection> connections_;
  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
};

}  // namespace mgpusw::serve
