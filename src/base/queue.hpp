// Bounded blocking queue with stall-time accounting.
//
// This is the concurrency primitive behind the paper's circular buffer:
// a fixed-capacity channel between a producer GPU (pushing border column
// chunks) and a consumer GPU (pulling them). The capacity bound provides
// the back-pressure that the paper's circular buffer mechanism relies on,
// and the stall counters let benchmarks measure how well communication is
// hidden behind computation.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "base/error.hpp"
#include "base/time.hpp"

namespace mgpusw::base {

/// Multi-producer multi-consumer bounded blocking queue.
///
/// close() wakes all waiters; after close, push() throws and pop() drains
/// remaining elements then returns std::nullopt.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    MGPUSW_REQUIRE(capacity > 0, "queue capacity must be positive");
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full. Throws TransientError if the queue
  /// was closed — a consumer closing mid-stream is a peer failure the
  /// producer can survive (restart from a checkpoint), not a bug in the
  /// producer.
  void push(T value) {
    WallTimer stall;
    std::unique_lock lock(mu_);
    not_full_.wait(lock,
                   [this] { return items_.size() < capacity_ || closed_; });
    producer_stall_ns_.fetch_add(stall.elapsed_ns(),
                                 std::memory_order_relaxed);
    if (closed_) throw TransientError("push on closed BoundedQueue");
    items_.push_back(std::move(value));
    total_pushed_.fetch_add(1, std::memory_order_relaxed);
    lock.unlock();
    not_empty_.notify_one();
  }

  /// Blocks while the queue is empty. Returns nullopt once the queue is
  /// closed and fully drained.
  [[nodiscard]] std::optional<T> pop() {
    WallTimer stall;
    std::unique_lock lock(mu_);
    not_empty_.wait(lock, [this] { return !items_.empty() || closed_; });
    consumer_stall_ns_.fetch_add(stall.elapsed_ns(),
                                 std::memory_order_relaxed);
    if (items_.empty()) return std::nullopt;  // closed and drained
    T value = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return value;
  }

  /// Closes the queue: producers fail, consumers drain then stop.
  void close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard lock(mu_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  /// Total nanoseconds producers spent blocked on a full queue.
  [[nodiscard]] std::int64_t producer_stall_ns() const {
    return producer_stall_ns_.load(std::memory_order_relaxed);
  }

  /// Total nanoseconds consumers spent blocked on an empty queue.
  [[nodiscard]] std::int64_t consumer_stall_ns() const {
    return consumer_stall_ns_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::int64_t total_pushed() const {
    return total_pushed_.load(std::memory_order_relaxed);
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
  std::atomic<std::int64_t> producer_stall_ns_{0};
  std::atomic<std::int64_t> consumer_stall_ns_{0};
  std::atomic<std::int64_t> total_pushed_{0};
};

}  // namespace mgpusw::base
