#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "base/error.hpp"
#include "base/log.hpp"
#include "core/report.hpp"
#include "seq/synth.hpp"
#include "vgpu/spec.hpp"

namespace mgpusw::serve {

namespace {

/// How often a PROGRESS stream samples the job snapshot.
constexpr auto kProgressPollInterval = std::chrono::milliseconds(20);

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

AlignServer::AlignServer(ServerConfig config)
    : config_(std::move(config)),
      queue_(config_.quota),
      listener_(config_.port) {
  MGPUSW_REQUIRE(config_.devices >= 1, "server needs at least one device");
  MGPUSW_REQUIRE(config_.scheduler_threads >= 1,
                 "server needs at least one scheduler thread");
  const std::vector<vgpu::DeviceSpec> env = vgpu::environment1();
  std::vector<std::unique_ptr<vgpu::Device>> devices;
  for (int d = 0; d < config_.devices; ++d) {
    devices.push_back(std::make_unique<vgpu::Device>(
        env[static_cast<std::size_t>(d) % env.size()]));
  }
  fleet_ = std::make_unique<core::DeviceFleet>(std::move(devices));
  // Lease waits, grants and device health land in the shared registry,
  // so a METRICS scrape shows fleet.* next to batch.*/recovery.*/serve.*.
  obs::Scope fleet_scope;
  fleet_scope.metrics = &metrics_;
  fleet_->set_obs(fleet_scope);
  if (!config_.fault_plan.empty()) {
    injector_ = std::make_unique<vgpu::FaultInjector>(
        vgpu::parse_fault_plan(config_.fault_plan));
  }
  // Touch every serve.* metric so a scrape shows zeros from the first
  // request on, not only after the counter first fires.
  metrics_.counter("serve.jobs_accepted");
  metrics_.counter("serve.jobs_rejected");
  metrics_.counter("serve.jobs_deduped");
  metrics_.counter("serve.jobs_completed");
  metrics_.counter("serve.jobs_failed");
  metrics_.counter("serve.jobs_cancelled");
  metrics_.gauge("serve.queue_depth");
  metrics_.histogram("serve.submit_to_done_ms");
  if (!config_.journal_dir.empty()) {
    metrics_.counter("serve.journal_appends");
    metrics_.counter("serve.journal_replayed_jobs");
    metrics_.counter("serve.journal_truncated_bytes");
    metrics_.counter("serve.journal_compactions");
    metrics_.counter("serve.journal_checkpoints");
    journal_ = std::make_unique<JobJournal>(config_.journal_dir,
                                            config_.journal_fsync);
    replay_journal();
  }
}

AlignServer::~AlignServer() { stop(); }

void AlignServer::request_drain() {
  drain_requested_.store(true, std::memory_order_release);
  queue_.drain();
}

std::uint16_t AlignServer::port() const { return listener_.port(); }

void AlignServer::start() {
  if (started_.exchange(true)) return;
  accept_thread_ = std::thread([this] { accept_loop(); });
  for (int t = 0; t < config_.scheduler_threads; ++t) {
    scheduler_threads_.emplace_back([this] { scheduler_loop(); });
  }
}

void AlignServer::run() {
  start();
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  shutdown_cv_.wait(lock, [this] {
    return shutdown_requested_ || stopping_.load(std::memory_order_acquire);
  });
  lock.unlock();
  stop();
}

void AlignServer::stop() {
  if (stopping_.exchange(true)) {
    // A concurrent/second stop still waits for the joins below to have
    // happened — but those only run once; the first caller owns them.
    // Idempotent calls from the destructor after an explicit stop() see
    // already-joined (unjoinable) threads and fall through.
  }
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
  listener_.close();
  if (drain_requested_.load(std::memory_order_acquire)) {
    // Graceful drain: running jobs finish (and journal their
    // terminals) before the queue closes. next() hands out nothing
    // once the queue is draining, so the joins terminate; queued jobs
    // stay SUBMIT-only in the journal and re-enqueue next life.
    queue_.drain();
    for (std::thread& thread : scheduler_threads_) {
      if (thread.joinable()) thread.join();
    }
    scheduler_threads_.clear();
    queue_.close();  // wake RESULT waiters on still-queued jobs
  } else {
    // Hard stop. Freeze the journal FIRST: everything after this
    // instant — close()'s in-memory cancels included — is deliberately
    // not journaled, so on disk this shutdown is indistinguishable
    // from a crash and unfinished jobs replay in the next life.
    journal_frozen_.store(true, std::memory_order_release);
    queue_.close();
    // Schedulers drain: queue_.close() raised every running job's
    // cancel flag, so each current job reaches a terminal state and
    // next() returns null.
    for (std::thread& thread : scheduler_threads_) {
      if (thread.joinable()) thread.join();
    }
    scheduler_threads_.clear();
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Connection handlers may be blocked in recv; shut their sockets so
  // the reads return EOF. The streams are shared_ptr-owned here so the
  // descriptor numbers cannot be recycled before the shutdown call.
  std::vector<Connection> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    connections.swap(connections_);
  }
  for (Connection& connection : connections) {
    connection.stream->shutdown();
  }
  for (Connection& connection : connections) {
    if (connection.thread.joinable()) connection.thread.join();
  }
}

std::string AlignServer::metrics_json() {
  metrics_.gauge("serve.queue_depth").set(queue_.depth());
  return metrics_.to_json();
}

void AlignServer::make_sequences(const SubmitRequest& request,
                                 seq::Sequence& query,
                                 seq::Sequence& subject) const {
  try {
    if (!request.query.empty()) {
      if (static_cast<std::int64_t>(request.query.size()) >
              config_.max_job_bases ||
          static_cast<std::int64_t>(request.subject.size()) >
              config_.max_job_bases) {
        throw ServeError("bad-request",
                         "job exceeds the per-job base cap of " +
                             std::to_string(config_.max_job_bases));
      }
      query = seq::Sequence(request.label + ".q", request.query);
      subject = seq::Sequence(request.label + ".s", request.subject);
    } else {
      if (request.rows > config_.max_job_bases ||
          request.cols > config_.max_job_bases) {
        throw ServeError("bad-request",
                         "job exceeds the per-job base cap of " +
                             std::to_string(config_.max_job_bases));
      }
      query = seq::generate_chromosome(
          request.label + ".q", request.rows,
          static_cast<std::uint64_t>(request.seed));
      subject = seq::generate_chromosome(
          request.label + ".s", request.cols,
          static_cast<std::uint64_t>(request.seed) + 1);
    }
  } catch (const InvalidArgument& e) {
    throw ServeError("bad-request", e.what());
  }
}

void AlignServer::replay_journal() {
  const ReplayResult replayed = journal_->replay();
  metrics_.counter("serve.journal_truncated_bytes")
      .add(replayed.truncated_bytes);
  for (const ReplayedJob& record : replayed.jobs) {
    auto job = std::make_shared<Job>();
    job->id = record.job_id;
    job->spec = record.spec;
    job->tenant = record.spec.tenant;
    job->label = record.spec.label.empty()
                     ? "job-" + std::to_string(job->id)
                     : record.spec.label;
    job->priority = record.spec.priority;
    if (record.terminal) {
      // Terminal: re-serve the journaled outcome, recompute nothing.
      const JournalRecord& outcome = record.outcome;
      switch (outcome.kind) {
        case JournalRecord::Kind::kDone:
          job->state = JobState::kDone;
          break;
        case JournalRecord::Kind::kFailed:
          job->state = JobState::kFailed;
          break;
        default:
          job->state = JobState::kCancelled;
          break;
      }
      job->replayed = true;
      job->replayed_result_json = outcome.result_json;
      job->error = outcome.error;
      job->resumed_row = outcome.resumed_row;
      job->entry.label = job->label;
      job->entry.restarts = outcome.restarts;
      job->entry.lost_devices = outcome.lost_devices;
      if (outcome.score >= 0) {
        job->entry.result.best.score =
            static_cast<sw::Score>(outcome.score);
      }
      queue_.restore(job);
      // Left behind if the last life died between the terminal record
      // and the directory's removal.
      journal_->remove_job_checkpoints(job->id);
    } else if (record.cancel_requested) {
      // The cancel intent was journaled but the terminal never was (the
      // daemon died first). Honour it now, durably — the job never ran
      // to completion, so cancelled is the truthful terminal.
      job->state = JobState::kCancelled;
      job->replayed = true;
      queue_.restore(job);
      JournalRecord terminal;
      terminal.kind = JournalRecord::Kind::kCancelled;
      terminal.job_id = job->id;
      journal_terminal(*job, terminal);
      metrics_.counter("serve.jobs_cancelled").increment();
    } else {
      // Queued or mid-flight: rebuild the sequences from the spec and
      // re-enqueue. A mid-flight job additionally probes its checkpoint
      // store for the newest restart-safe row at or below the journaled
      // pair — recomputing from there is bit-identical because the
      // journaled best already covers every cell at or below the row.
      try {
        make_sequences(job->spec, job->query, job->subject);
      } catch (const ServeError& e) {
        job->state = JobState::kFailed;
        job->replayed = true;
        job->error = std::string("replay rejected: ") + e.what();
        queue_.restore(job);
        JournalRecord terminal;
        terminal.kind = JournalRecord::Kind::kFailed;
        terminal.job_id = job->id;
        terminal.error = job->error;
        journal_terminal(*job, terminal);
        metrics_.counter("serve.jobs_failed").increment();
        ++replayed_jobs_;
        continue;
      }
      job->checkpoints = std::make_unique<core::SpecialRowStore>(
          journal_->job_checkpoint_dir(job->id));
      const core::SpecialRowStore::RecoveryReport report =
          job->checkpoints->recover_existing();
      metrics_.counter("serve.journal_truncated_bytes")
          .add(report.truncated_bytes);
      if (record.checkpoint_row >= 0) {
        const auto rows = static_cast<std::int64_t>(job->query.size());
        const auto cols = static_cast<std::int64_t>(job->subject.size());
        // last_restartable_row's limit is exclusive; the journaled row
        // itself must stay eligible, and the engine requires a resume
        // row to leave at least one row to compute.
        const std::int64_t limit =
            std::min(record.checkpoint_row + 1, rows - 1);
        job->resume.row =
            job->checkpoints->last_restartable_row(cols, limit);
        job->resume.carried_best.score =
            static_cast<sw::Score>(record.best_score);
        job->resume.carried_best.end.row = record.best_row;
        job->resume.carried_best.end.col = record.best_col;
        job->resumed_row = job->resume.row;
        std::lock_guard<std::mutex> lock(job->progress.mu);
        job->progress.durable_row = job->resume.row;
        job->progress.durable_best = job->resume.carried_best;
        job->progress.journaled_row = record.checkpoint_row;
      }
      queue_.restore(job);
    }
    ++replayed_jobs_;
  }
  metrics_.counter("serve.journal_replayed_jobs").add(replayed_jobs_);
  metrics_.gauge("serve.queue_depth").set(queue_.depth());
}

bool AlignServer::journal_append(const JournalRecord& record) {
  if (journal_ == nullptr ||
      journal_frozen_.load(std::memory_order_acquire)) {
    return false;
  }
  journal_->append(record);
  metrics_.counter("serve.journal_appends").increment();
  return true;
}

void AlignServer::journal_terminal(Job& job, const JournalRecord& terminal) {
  // Replay re-serves a journaled terminal from the log alone, so the
  // checkpoints only matter while the terminal is not yet durable.
  if (!journal_append(terminal)) return;
  job.checkpoints.reset();
  journal_->remove_job_checkpoints(job.id);
}

void AlignServer::maybe_journal_checkpoint(
    const std::shared_ptr<Job>& job, bool force) {
  if (journal_ == nullptr ||
      journal_frozen_.load(std::memory_order_acquire)) {
    return;
  }
  JournalRecord record;
  record.kind = JournalRecord::Kind::kCheckpoint;
  record.job_id = job->id;
  {
    // Decide and claim under the progress lock, append outside it — a
    // progress event must never wait on the journal's file write (and
    // compaction takes these locks in the opposite order).
    std::lock_guard<std::mutex> lock(job->progress.mu);
    if (job->progress.durable_row <= job->progress.journaled_row) {
      return;
    }
    const std::int64_t now = steady_ns();
    const std::int64_t interval_ns =
        config_.journal_checkpoint_interval_ms * 1'000'000;
    if (!force && job->progress.last_checkpoint_ns != 0 &&
        now - job->progress.last_checkpoint_ns < interval_ns) {
      return;
    }
    job->progress.last_checkpoint_ns = now;
    job->progress.journaled_row = job->progress.durable_row;
    record.row = job->progress.durable_row;
    record.best_score = job->progress.durable_best.score;
    record.best_row = job->progress.durable_best.end.row;
    record.best_col = job->progress.durable_best.end.col;
  }
  journal_append(record);
  metrics_.counter("serve.journal_checkpoints").increment();
}

void AlignServer::maybe_compact() {
  if (journal_ == nullptr ||
      journal_frozen_.load(std::memory_order_acquire)) {
    return;
  }
  if (journal_->appends_since_compact() <
      config_.journal_compact_min_appends) {
    return;
  }
  const std::vector<std::shared_ptr<Job>> jobs = queue_.all_jobs();
  // Only worth the rewrite when most of the log is settled history;
  // running jobs count as reclaimable too (their records re-shrink).
  std::int64_t settled = 0;
  for (const std::shared_ptr<Job>& job : jobs) {
    if (queue_.status(job).state != JobState::kQueued) ++settled;
  }
  if (settled * 2 < static_cast<std::int64_t>(jobs.size())) return;

  // The snapshot is produced one job at a time while the journal writes
  // it, so a compaction holds one job's records, not the whole history.
  const auto job_records = [this](const std::shared_ptr<Job>& job,
                                  std::vector<JournalRecord>& out) {
    // Spec before status: finish() releases the inline bases as the job
    // turns terminal, so a spec without them always pairs with a
    // terminal status below, whose replay needs no bases.
    JournalRecord submit;
    submit.kind = JournalRecord::Kind::kSubmit;
    submit.job_id = job->id;
    submit.spec = queue_.spec(job);
    const JobStatus status = queue_.status(job);
    out.push_back(std::move(submit));
    JournalRecord fact;
    fact.job_id = job->id;
    switch (status.state) {
      case JobState::kQueued:
        return;  // the SUBMIT alone re-enqueues it
      case JobState::kRunning:
      case JobState::kCompleting: {
        fact.kind = JournalRecord::Kind::kStart;
        out.push_back(fact);
        JournalRecord checkpoint;
        checkpoint.kind = JournalRecord::Kind::kCheckpoint;
        checkpoint.job_id = job->id;
        {
          std::lock_guard<std::mutex> lock(job->progress.mu);
          checkpoint.row = job->progress.durable_row;
          checkpoint.best_score = job->progress.durable_best.score;
          checkpoint.best_row = job->progress.durable_best.end.row;
          checkpoint.best_col = job->progress.durable_best.end.col;
        }
        if (checkpoint.row >= 0) out.push_back(std::move(checkpoint));
        if (job->cancel.load(std::memory_order_relaxed)) {
          JournalRecord intent;
          intent.kind = JournalRecord::Kind::kCancel;
          intent.job_id = job->id;
          out.push_back(std::move(intent));
        }
        return;
      }
      case JobState::kDone:
        fact.kind = JournalRecord::Kind::kDone;
        fact.score = status.score;
        fact.result_json = job->replayed
                               ? job->replayed_result_json
                               : core::to_json(job->entry.result);
        break;
      case JobState::kFailed:
        fact.kind = JournalRecord::Kind::kFailed;
        fact.error = job->error;
        break;
      case JobState::kCancelled:
        fact.kind = JournalRecord::Kind::kCancelled;
        break;
    }
    fact.restarts = status.restarts;
    fact.lost_devices = status.lost_devices;
    fact.resumed_row = status.resumed_row;
    out.push_back(std::move(fact));
  };
  std::size_t next_job = 0;
  std::vector<JournalRecord> pending;
  std::size_t next_pending = 0;
  journal_->compact([&](JournalRecord& record) {
    while (next_pending == pending.size()) {
      if (next_job == jobs.size()) return false;
      pending.clear();
      next_pending = 0;
      job_records(jobs[next_job++], pending);
    }
    record = std::move(pending[next_pending++]);
    return true;
  });
  metrics_.counter("serve.journal_compactions").increment();
}

void AlignServer::accept_loop() {
  for (;;) {
    std::optional<comm::TcpStream> accepted = listener_.accept();
    if (!accepted.has_value()) return;  // listener closed: shutting down
    auto stream = std::make_shared<comm::TcpStream>(std::move(*accepted));
    std::lock_guard<std::mutex> lock(connections_mu_);
    if (stopping_.load(std::memory_order_acquire)) return;
    // Reap the connections that have ended since the last accept, so a
    // daemon serving one-command clients holds a descriptor and a
    // thread per *open* connection, not per connection ever made.
    std::erase_if(connections_, [](Connection& done) {
      if (!done.finished->load(std::memory_order_acquire)) return false;
      done.thread.join();
      return true;
    });
    Connection connection;
    connection.stream = stream;
    connection.finished = std::make_shared<std::atomic<bool>>(false);
    connection.thread = std::thread([this, stream,
                                     finished = connection.finished] {
      try {
        handle_connection(*stream);
      } catch (const std::exception& e) {
        // A torn connection is the client's problem, not the daemon's.
        MGPUSW_LOG(kWarn) << "serve: connection dropped: " << e.what();
      } catch (...) {
        MGPUSW_LOG(kWarn) << "serve: connection dropped";
      }
      finished->store(true, std::memory_order_release);
    });
    connections_.push_back(std::move(connection));
  }
}

void AlignServer::handle_http_scrape(comm::TcpStream& stream) {
  // Drain the request head (best effort — we answer any GET with the
  // metrics snapshot), then speak just enough HTTP/1.0 for curl and
  // Prometheus-style scrapers.
  char buffer[512];
  for (int i = 0; i < 64; ++i) {
    const std::size_t got = stream.read_some(buffer, sizeof(buffer));
    if (got == 0) break;
    if (got >= 4 && std::memcmp(buffer + got - 4, "\r\n\r\n", 4) == 0) {
      break;
    }
    if (got < sizeof(buffer)) break;  // short read: head is drained
  }
  const std::string body = metrics_json();
  std::string head =
      "HTTP/1.0 200 OK\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: " +
      std::to_string(body.size()) + "\r\n\r\n";
  stream.write_all(head.data(), head.size());
  stream.write_all(body.data(), body.size());
  stream.shutdown();
}

void AlignServer::handle_connection(comm::TcpStream& stream) {
  // Protocol sniff: a framed message starts with its u32 length prefix,
  // an HTTP scrape starts with "GET ". Read the first four bytes by
  // hand, then either answer the scrape or finish reading the frame.
  std::uint8_t prefix[4];
  std::size_t have = 0;
  while (have < sizeof(prefix)) {
    const std::size_t got =
        stream.read_some(prefix + have, sizeof(prefix) - have);
    if (got == 0) {
      if (have == 0) return;  // clean disconnect, nothing sent
      throw ProtocolError("connection closed inside the first frame");
    }
    have += got;
  }
  if (std::memcmp(prefix, "GET ", 4) == 0) {
    handle_http_scrape(stream);
    return;
  }

  // First frame: the length prefix is already consumed.
  std::uint32_t length = 0;
  std::memcpy(&length, prefix, sizeof(length));
  std::optional<Message> first;
  try {
    if (length > comm::kMaxFrameBytes) {
      throw ProtocolError("frame length " + std::to_string(length) +
                          " exceeds the frame cap");
    }
    std::vector<std::uint8_t> payload(length);
    if (length > 0) stream.read_all(payload.data(), payload.size());
    const comm::MessageFrame frame =
        comm::deserialize_message(payload.data(), payload.size());
    Message message;
    message.type = static_cast<FrameType>(frame.type);
    message.body.assign(frame.body.begin(), frame.body.end());
    first = std::move(message);
  } catch (const ProtocolError& e) {
    send_message(stream, FrameType::kError,
                 encode_error("bad-request", e.what()));
    stream.shutdown();
    return;
  }

  bool first_pending = true;
  for (;;) {
    std::optional<Message> message;
    if (first_pending) {
      message = std::move(first);
      first_pending = false;
    } else {
      try {
        message = recv_message(stream);
      } catch (const ProtocolError& e) {
        // The stream position is untrustworthy after a framing error:
        // answer and drop the connection (never the daemon).
        send_message(stream, FrameType::kError,
                     encode_error("bad-request", e.what()));
        stream.shutdown();
        return;
      }
    }
    if (!message.has_value()) return;  // client closed
    if (!dispatch(stream, *message)) return;
  }
}

bool AlignServer::dispatch(comm::TcpStream& stream,
                           const Message& message) {
  try {
    switch (message.type) {
      case FrameType::kSubmit:
        handle_submit(stream, message.body);
        return true;
      case FrameType::kStatus: {
        const std::shared_ptr<Job> job =
            queue_.find(decode_job_id(message.body));
        send_message(stream, FrameType::kStatusOk,
                     encode_status(queue_.status(job)));
        return true;
      }
      case FrameType::kProgress: {
        const std::shared_ptr<Job> job =
            queue_.find(decode_job_id(message.body));
        handle_progress_stream(stream, job);
        return true;
      }
      case FrameType::kCancel: {
        const std::int64_t job_id = decode_job_id(message.body);
        const JobState after = queue_.cancel(job_id);
        JournalRecord record;
        record.job_id = job_id;
        if (after == JobState::kCancelled) {
          // Cancelled right in the queue; running jobs are counted by
          // the scheduler when they actually stop.
          metrics_.counter("serve.jobs_cancelled").increment();
          record.kind = JournalRecord::Kind::kCancelled;
          // A job replayed mid-flight still has its last life's
          // checkpoints on disk.
          if (journal_append(record)) {
            journal_->remove_job_checkpoints(job_id);
          }
        } else if (after == JobState::kRunning) {
          // Intent only: the scheduler journals the terminal when the
          // engine actually stops. If the daemon dies first, replay
          // honours the intent instead of re-running the job.
          record.kind = JournalRecord::Kind::kCancel;
          journal_append(record);
        }
        send_message(stream, FrameType::kCancelOk,
                     encode_status(queue_.status(queue_.find(job_id))));
        return true;
      }
      case FrameType::kResult: {
        const std::int64_t job_id = decode_job_id(message.body);
        const bool wait = decode_wait_flag(message.body);
        const std::shared_ptr<Job> job = queue_.find(job_id);
        if (wait) queue_.wait_terminal(job);
        JobStatus status = queue_.status(job);
        if (!is_terminal(status.state)) {
          throw ServeError("not-ready",
                           "job " + std::to_string(job_id) + " is " +
                               job_state_name(status.state));
        }
        if (status.state == JobState::kDone) {
          // Safe to read entry: terminal states are published under the
          // queue mutex after the run finished. A replayed job never
          // ran in this daemon life — its result body comes verbatim
          // from the journal instead.
          status.result_json = job->replayed
                                   ? job->replayed_result_json
                                   : core::to_json(job->entry.result);
        }
        send_message(stream, FrameType::kResultOk, encode_status(status));
        return true;
      }
      case FrameType::kMetrics:
        send_message(stream, FrameType::kMetricsOk, metrics_json());
        return true;
      case FrameType::kShutdown: {
        if (decode_shutdown_drain(message.body)) {
          // Drain before acknowledging: once the flag is up, stop()
          // lets running jobs finish and journal their terminals.
          request_drain();
        }
        send_message(stream, FrameType::kShutdownOk, "{}");
        {
          std::lock_guard<std::mutex> lock(shutdown_mu_);
          shutdown_requested_ = true;
        }
        // stop() must not run on this thread (it joins it); run() or
        // the owner reacts to the flag.
        shutdown_cv_.notify_all();
        return false;
      }
      default:
        throw ServeError("bad-request",
                         "frame type " +
                             std::to_string(static_cast<int>(message.type)) +
                             " is not a request");
    }
  } catch (const ServeError& e) {
    send_message(stream, FrameType::kError,
                 encode_error(e.code(), e.what()));
    return true;
  } catch (const ProtocolError& e) {
    send_message(stream, FrameType::kError,
                 encode_error("bad-request", e.what()));
    stream.shutdown();
    return false;
  } catch (const Error& e) {
    send_message(stream, FrameType::kError,
                 encode_error("internal", e.what()));
    return true;
  }
}

void AlignServer::handle_submit(comm::TcpStream& stream,
                                const std::string& body) {
  const SubmitRequest request = decode_submit(body);
  seq::Sequence query;
  seq::Sequence subject;
  make_sequences(request, query, subject);
  std::shared_ptr<Job> job;
  bool deduped = false;
  try {
    job = queue_.submit(request, std::move(query), std::move(subject),
                        &deduped);
  } catch (const ServeError&) {
    metrics_.counter("serve.jobs_rejected").increment();
    throw;
  }
  if (deduped) {
    // The idempotency key matched an existing job (possibly replayed
    // from the journal after a restart): hand back its id, whatever
    // state it is in — nothing new to journal or schedule.
    metrics_.counter("serve.jobs_deduped").increment();
    send_message(stream, FrameType::kSubmitOk, encode_job_ref(job->id));
    return;
  }
  // Write-ahead: the SUBMIT record hits the log before the client sees
  // SUBMIT_OK, so an acknowledged job can never vanish in a crash.
  // The request, not job->spec: a scheduler may already have run the
  // job to its end and released the spec's bases.
  JournalRecord record;
  record.kind = JournalRecord::Kind::kSubmit;
  record.job_id = job->id;
  record.spec = request;
  record.spec.label = job->label;  // journal the defaulted label
  journal_append(record);
  metrics_.counter("serve.jobs_accepted").increment();
  metrics_.gauge("serve.queue_depth").set(queue_.depth());
  send_message(stream, FrameType::kSubmitOk, encode_job_ref(job->id));
}

void AlignServer::handle_progress_stream(
    comm::TcpStream& stream, const std::shared_ptr<Job>& job) {
  ProgressUpdate last;
  last.completed_units = -1;  // force the first event out
  for (;;) {
    const JobStatus status = queue_.status(job);
    ProgressUpdate update = job->progress_update();
    if (is_terminal(status.state)) {
      send_message(stream, FrameType::kProgressDone,
                   encode_status(status));
      return;
    }
    if (update.completed_units != last.completed_units ||
        update.restarts != last.restarts) {
      send_message(stream, FrameType::kProgressEvent,
                   encode_progress(update));
      last = update;
    }
    std::this_thread::sleep_for(kProgressPollInterval);
  }
}

void AlignServer::scheduler_loop() {
  for (;;) {
    const std::shared_ptr<Job> job = queue_.next();
    if (job == nullptr) return;  // queue closed and drained
    metrics_.gauge("serve.queue_depth").set(queue_.depth());
    run_job(job);
  }
}

void AlignServer::run_job(const std::shared_ptr<Job>& job) {
  core::BatchConfig batch;
  batch.engine.scheme = config_.scheme;
  batch.engine.block_rows = config_.block;
  batch.engine.block_cols = config_.block;
  batch.engine.obs.metrics = &metrics_;
  batch.devices_per_item = config_.devices_per_job;
  batch.enable_recovery = config_.enable_recovery;
  batch.recovery = config_.recovery;
  const bool journaling = journal_ != nullptr;
  // Device threads stream progress into the job's snapshot; a restart
  // resets the per-device table (the engine re-plans from scratch, so
  // stale device rows would double-count). In journal mode the same
  // events also advance the durable (row, best) cursor: once every
  // device of the attempt reported, min(safe_row) bounds the rows whose
  // cells are all settled, and the merged bests cover them — that pair
  // is what a CHECKPOINT record may persist.
  batch.engine.progress = [this, job,
                           journaling](const core::ProgressEvent& event) {
    bool checkpoint = false;
    {
      std::lock_guard<std::mutex> lock(job->progress.mu);
      if (event.restarts != job->progress.restarts) {
        job->progress.device_units.clear();
        job->progress.device_safe.clear();
        job->progress.restarts = event.restarts;
      }
      job->progress.device_units[event.device_index] = {
          event.completed_units, event.total_units};
      if (journaling) {
        job->progress.device_safe[event.device_index] = {event.safe_row,
                                                         event.best};
        if (static_cast<int>(job->progress.device_safe.size()) >=
            event.device_count) {
          std::int64_t row = event.safe_row;
          sw::ScoreResult best = job->progress.durable_best;
          for (const auto& [device, pair] : job->progress.device_safe) {
            row = std::min(row, pair.first);
            if (sw::improves(pair.second, best)) best = pair.second;
          }
          if (row > job->progress.durable_row) {
            // Merging bests that may cover cells above `row` is safe:
            // a resumed run recomputes those cells and re-merges the
            // same values (sw::improves is a total order), so the
            // journaled pair still recovers bit-identically.
            job->progress.durable_row = row;
            job->progress.durable_best = best;
            checkpoint = true;
          }
        }
      }
    }
    if (checkpoint) maybe_journal_checkpoint(job);
  };
  // Injected faults arm on the first job only: injector ordinals are
  // lease-local, so sharing one injector across concurrent jobs would
  // replay a death into every job's device 0.
  if (injector_ != nullptr && !fault_armed_.exchange(true)) {
    batch.engine.fault = injector_.get();
  }

  core::BatchItem item;
  item.label = job->label;
  item.query = job->query;
  item.subject = job->subject;
  item.priority = job->priority;
  item.cancel = &job->cancel;
  if (journaling) {
    // Checkpoints go to the job's directory under the journal so the
    // next daemon life can find them; the resume seed is non-trivial
    // only for jobs replayed mid-flight.
    if (job->checkpoints == nullptr) {
      job->checkpoints = std::make_unique<core::SpecialRowStore>(
          journal_->job_checkpoint_dir(job->id));
    }
    item.checkpoints = job->checkpoints.get();
    item.resume = job->resume;
    // Before each in-process restart, recovery hands us the exact
    // (resume row, carried best) it will seed the next attempt with —
    // a restart-grade pair by construction, so journal it eagerly and
    // rebase the durability cursor on it.
    item.on_restart = [this, job](const core::ResumeSpec& spec) {
      {
        std::lock_guard<std::mutex> lock(job->progress.mu);
        job->progress.device_safe.clear();
        job->progress.durable_row = spec.row;
        job->progress.durable_best = spec.carried_best;
        job->progress.journaled_row =
            std::min(job->progress.journaled_row, spec.row);
      }
      maybe_journal_checkpoint(job, /*force=*/true);
    };
    JournalRecord start;
    start.kind = JournalRecord::Kind::kStart;
    start.job_id = job->id;
    journal_append(start);
  }

  JournalRecord terminal;
  terminal.job_id = job->id;
  terminal.resumed_row = job->resumed_row;
  // Compaction runs between the job turning terminal (its bases
  // released) and its RESULT waiters waking: a stop() that follows a
  // client's RESULT then finds the job's bases already out of the log.
  const auto compact = [this] { maybe_compact(); };
  try {
    core::run_batch_item(batch, *fleet_, item, job->entry);
  } catch (const std::exception& e) {
    terminal.restarts = job->entry.restarts;
    terminal.lost_devices = job->entry.lost_devices;
    if (job->cancel.load(std::memory_order_relaxed)) {
      terminal.kind = JournalRecord::Kind::kCancelled;
      journal_terminal(*job, terminal);
      metrics_.counter("serve.jobs_cancelled").increment();
      queue_.finish(job, JobState::kCancelled, {}, compact);
    } else {
      terminal.kind = JournalRecord::Kind::kFailed;
      terminal.error = e.what();
      journal_terminal(*job, terminal);
      metrics_.counter("serve.jobs_failed").increment();
      queue_.finish(job, JobState::kFailed, e.what(), compact);
    }
    return;
  }
  queue_.mark_completing(job);
  // Write-ahead: the DONE record (with the full result body) is on
  // disk before the job turns terminal, so no client can observe a
  // result the journal could still lose.
  terminal.kind = JournalRecord::Kind::kDone;
  terminal.score = job->entry.result.best.score;
  terminal.restarts = job->entry.restarts;
  terminal.lost_devices = job->entry.lost_devices;
  terminal.result_json = core::to_json(job->entry.result);
  journal_terminal(*job, terminal);
  metrics_.counter("serve.jobs_completed").increment();
  queue_.finish(job, JobState::kDone, {}, compact);
  metrics_.histogram("serve.submit_to_done_ms")
      .observe(static_cast<double>(job->done_ns - job->submit_ns) / 1e6);
}

}  // namespace mgpusw::serve
