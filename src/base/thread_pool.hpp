// Fixed-size worker pool.
//
// Used by vgpu::Device to emulate a GPU's streaming multiprocessors: the
// diagonal schedule submits the blocks of one anti-diagonal through
// Device::execute and waits for them with Device::synchronize
// (wait_idle). The pool is deliberately simple (single shared queue,
// condition-variable wakeups): each task is a whole block kernel, so
// queue contention is negligible.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
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
