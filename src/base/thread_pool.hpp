// Fixed-size worker pool.
//
// Used by vgpu::Device to emulate a GPU's streaming multiprocessors: the
// device submits block-kernel tasks and the pool executes them on a fixed
// set of threads. The pool is deliberately simple (single shared queue,
// condition-variable wakeups) — block kernels are large enough (>=64k
// cells) that queue contention is negligible.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "base/error.hpp"

namespace mgpusw::base {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads) {
    MGPUSW_REQUIRE(num_threads > 0, "thread pool needs at least one thread");
    workers_.reserve(num_threads);
    for (std::size_t i = 0; i < num_threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  ~ThreadPool() { shutdown(); }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues a task for execution. Throws if the pool is shut down.
  void submit(std::function<void()> task) {
    {
      std::lock_guard lock(mu_);
      if (stopping_) throw Error("submit on stopped ThreadPool");
      tasks_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

  /// Blocks until every submitted task has finished executing.
  void wait_idle() {
    std::unique_lock lock(mu_);
    idle_cv_.wait(lock, [this] { return tasks_.empty() && active_ == 0; });
  }

  /// Stops accepting work, drains the queue, joins all workers.
  void shutdown() {
    {
      std::lock_guard lock(mu_);
      if (stopping_) return;
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  }

  /// Runs fn(i) for i in [0, count) across the pool and waits for
  /// completion. fn must be safe to call concurrently.
  template <typename Fn>
  void parallel_for(std::size_t count, Fn&& fn) {
    if (count == 0) return;
    std::atomic<std::size_t> next{0};
    std::mutex done_mu;
    std::condition_variable done_cv;
    std::size_t shards_done = 0;  // guarded by done_mu
    const std::size_t shards = std::min(count, size());
    for (std::size_t s = 0; s < shards; ++s) {
      submit([&, count] {
        for (std::size_t i = next.fetch_add(1); i < count;
             i = next.fetch_add(1)) {
          fn(i);
        }
        // The shards share this frame's locals, so the call may return
        // only once every shard is past its last use of them: wait for
        // shards, not items, and signal under the lock.
        std::lock_guard lock(done_mu);
        ++shards_done;
        done_cv.notify_one();
      });
    }
    std::unique_lock lock(done_mu);
    done_cv.wait(lock, [&] { return shards_done == shards; });
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
        if (tasks_.empty()) {
          if (stopping_) return;
          continue;
        }
        task = std::move(tasks_.front());
        tasks_.pop_front();
        ++active_;
      }
      task();
      {
        std::lock_guard lock(mu_);
        --active_;
        if (tasks_.empty() && active_ == 0) idle_cv_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  std::size_t active_ = 0;
  bool stopping_ = false;
};

}  // namespace mgpusw::base
