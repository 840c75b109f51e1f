#include "serve/job_queue.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

#include "base/error.hpp"

namespace mgpusw::serve {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ProgressUpdate Job::progress_update() {
  ProgressUpdate update;
  update.job_id = id;
  std::lock_guard<std::mutex> lock(progress.mu);
  for (const auto& [device, units] : progress.device_units) {
    update.completed_units += units.first;
    update.total_units += units.second;
  }
  update.restarts = progress.restarts;
  return update;
}

JobQueue::JobQueue(QuotaPolicy policy)
    : quota_(policy), epoch_ns_(steady_ns()) {}

std::shared_ptr<Job> JobQueue::submit(std::string tenant, std::string label,
                                      int priority, seq::Sequence query,
                                      seq::Sequence subject) {
  SubmitRequest spec;
  spec.tenant = std::move(tenant);
  spec.label = std::move(label);
  spec.priority = priority;
  return submit(std::move(spec), std::move(query), std::move(subject));
}

std::shared_ptr<Job> JobQueue::submit(SubmitRequest spec,
                                      seq::Sequence query,
                                      seq::Sequence subject,
                                      bool* deduped) {
  if (deduped != nullptr) *deduped = false;
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || draining_) {
    throw ServeError("shutting-down",
                     "the server is shutting down; submit refused");
  }
  if (!spec.idempotency_key.empty()) {
    const auto it =
        by_key_.find(spec.tenant + "\n" + spec.idempotency_key);
    if (it != by_key_.end()) {
      if (deduped != nullptr) *deduped = true;
      return it->second;
    }
  }
  if (quota_.pending_full(spec.tenant)) {
    throw ServeError(
        "quota-exceeded",
        "tenant \"" + spec.tenant + "\" already has " +
            std::to_string(quota_.pending_count(spec.tenant)) +
            " queued job(s), the per-tenant cap");
  }
  auto job = std::make_shared<Job>();
  job->id = next_id_++;
  job->tenant = spec.tenant;
  job->label = spec.label;
  if (job->label.empty()) job->label = "job-" + std::to_string(job->id);
  job->priority = spec.priority;
  job->query = std::move(query);
  job->subject = std::move(subject);
  job->spec = std::move(spec);
  job->spec.label = job->label;  // journal the defaulted label
  job->submit_ns = steady_ns() - epoch_ns_;
  quota_.on_submit(job->tenant);
  jobs_.emplace(job->id, job);
  if (!job->spec.idempotency_key.empty()) {
    by_key_.emplace(job->tenant + "\n" + job->spec.idempotency_key, job);
  }
  pending_.push_back(job);
  runnable_cv_.notify_all();
  return job;
}

void JobQueue::restore(const std::shared_ptr<Job>& job) {
  std::lock_guard<std::mutex> lock(mu_);
  MGPUSW_REQUIRE(!closed_ && !draining_,
                 "restore() must run before shutdown begins");
  MGPUSW_REQUIRE(job->id >= 1, "restored job needs its journaled id");
  MGPUSW_REQUIRE(jobs_.find(job->id) == jobs_.end(),
                 "restored job id already in the table");
  if (job->id >= next_id_) next_id_ = job->id + 1;
  jobs_.emplace(job->id, job);
  if (!job->spec.idempotency_key.empty()) {
    by_key_.emplace(job->tenant + "\n" + job->spec.idempotency_key, job);
  }
  if (job->state == JobState::kQueued) {
    job->submit_ns = steady_ns() - epoch_ns_;
    quota_.on_submit(job->tenant);
    pending_.push_back(job);
    runnable_cv_.notify_all();
  } else {
    MGPUSW_REQUIRE(is_terminal(job->state),
                   "a restored job is either queued or terminal");
  }
}

void JobQueue::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || draining_) return;
  draining_ = true;
  // Wake schedulers blocked in next() so they observe the drain and
  // exit once their current jobs are finished.
  runnable_cv_.notify_all();
}

bool JobQueue::draining() const {
  std::lock_guard<std::mutex> lock(mu_);
  return draining_;
}

std::vector<std::shared_ptr<Job>> JobQueue::all_jobs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::shared_ptr<Job>> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(job);
  return out;
}

std::shared_ptr<Job> JobQueue::next() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Highest priority wins; FIFO within a priority (pending_ keeps
    // admission order, stable scan). Tenants at their running quota are
    // passed over — their jobs stay queued and a quota slot freeing up
    // re-wakes this scan.
    auto best = pending_.end();
    for (auto it = pending_.begin(); it != pending_.end(); ++it) {
      if (!quota_.can_start((*it)->tenant)) continue;
      if (best == pending_.end() ||
          (*it)->priority > (*best)->priority) {
        best = it;
      }
    }
    // Draining: hand out nothing more; pending jobs stay queued (their
    // journal SUBMITs carry them into the next daemon life).
    if (draining_) return nullptr;
    if (best != pending_.end()) {
      std::shared_ptr<Job> job = *best;
      pending_.erase(best);
      quota_.on_start(job->tenant);
      job->state = JobState::kRunning;
      return job;
    }
    if (closed_) return nullptr;
    runnable_cv_.wait(lock);
  }
}

void JobQueue::mark_completing(const std::shared_ptr<Job>& job) {
  std::lock_guard<std::mutex> lock(mu_);
  if (job->state == JobState::kRunning) {
    job->state = JobState::kCompleting;
  }
}

void JobQueue::finish(const std::shared_ptr<Job>& job, JobState state,
                      std::string error_message,
                      const std::function<void()>& before_wake) {
  MGPUSW_REQUIRE(is_terminal(state), "finish() needs a terminal state");
  std::unique_lock<std::mutex> lock(mu_);
  job->state = state;
  job->error = std::move(error_message);
  job->done_ns = steady_ns() - epoch_ns_;
  // A daemon keeps every job it has served, so a finished job must not
  // keep bases: they would grow memory, and each journal compaction,
  // with the number of jobs served.
  job->query = seq::Sequence{};
  job->subject = seq::Sequence{};
  std::string().swap(job->spec.query);
  std::string().swap(job->spec.subject);
  quota_.on_finish(job->tenant);
  // The freed running slot may make another of this tenant's jobs
  // runnable.
  runnable_cv_.notify_all();
  if (before_wake) {
    job->settling = true;
    lock.unlock();
    before_wake();
    lock.lock();
    job->settling = false;
  }
  terminal_cv_.notify_all();
}

JobState JobQueue::cancel(std::int64_t job_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    throw ServeError("not-found",
                     "no job with id " + std::to_string(job_id));
  }
  const std::shared_ptr<Job>& job = it->second;
  switch (job->state) {
    case JobState::kQueued: {
      const auto pos =
          std::find(pending_.begin(), pending_.end(), job);
      if (pos != pending_.end()) pending_.erase(pos);
      quota_.on_cancel_queued(job->tenant);
      job->state = JobState::kCancelled;
      job->done_ns = steady_ns() - epoch_ns_;
      terminal_cv_.notify_all();
      break;
    }
    case JobState::kRunning:
      // Cooperative: the engine observes the flag at the next
      // scheduling-unit boundary; the scheduler thread then calls
      // finish(kCancelled). The state reported here is still kRunning.
      job->cancel.store(true, std::memory_order_relaxed);
      break;
    case JobState::kCompleting:
    case JobState::kDone:
    case JobState::kFailed:
    case JobState::kCancelled:
      break;  // too late (or already done) — a no-op, not an error
  }
  return job->state;
}

std::shared_ptr<Job> JobQueue::find(std::int64_t job_id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(job_id);
  if (it == jobs_.end()) {
    throw ServeError("not-found",
                     "no job with id " + std::to_string(job_id));
  }
  return it->second;
}

void JobQueue::wait_terminal(const std::shared_ptr<Job>& job) {
  std::unique_lock<std::mutex> lock(mu_);
  terminal_cv_.wait(lock,
                    [&] { return is_terminal(job->state) && !job->settling; });
}

SubmitRequest JobQueue::spec(const std::shared_ptr<Job>& job) {
  std::lock_guard<std::mutex> lock(mu_);
  return job->spec;
}

JobStatus JobQueue::status(const std::shared_ptr<Job>& job) {
  std::lock_guard<std::mutex> lock(mu_);
  JobStatus status;
  status.job_id = job->id;
  status.state = job->state;
  status.tenant = job->tenant;
  status.label = job->label;
  status.error = job->error;
  status.resumed_row = job->resumed_row;
  // `entry` is written by the scheduler thread during the run; it is
  // safe to read only for states the scheduler publishes under mu_
  // *after* the run (completing and terminal). Live runs report the
  // progress snapshot instead, which has its own lock.
  if (job->state == JobState::kQueued ||
      job->state == JobState::kRunning) {
    std::lock_guard<std::mutex> progress_lock(job->progress.mu);
    status.restarts = job->progress.restarts;
  } else {
    status.restarts = job->entry.restarts;
    status.lost_devices = job->entry.lost_devices;
    if (job->state == JobState::kDone) {
      status.score = job->entry.result.best.score;
    }
  }
  return status;
}

void JobQueue::close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return;
  closed_ = true;
  // Queued jobs will never run; running jobs are asked to stop so the
  // scheduler threads can unwind promptly.
  for (const std::shared_ptr<Job>& job : pending_) {
    quota_.on_cancel_queued(job->tenant);
    job->state = JobState::kCancelled;
    job->done_ns = steady_ns() - epoch_ns_;
  }
  pending_.clear();
  for (const auto& [id, job] : jobs_) {
    if (job->state == JobState::kRunning) {
      job->cancel.store(true, std::memory_order_relaxed);
    }
  }
  runnable_cv_.notify_all();
  terminal_cv_.notify_all();
}

bool JobQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::int64_t JobQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<std::int64_t>(pending_.size());
}

}  // namespace mgpusw::serve
