// Loopback TCP transport.
//
// The paper's engine runs one process per GPU connected by sockets; this
// transport reproduces that path. Chunks are framed (u32 length +
// serialized payload) and the circular-buffer capacity is enforced as an
// acknowledgement window: the sender blocks once `capacity` chunks are
// unacknowledged, which gives the same back-pressure semantics as the
// in-process ring buffer. The raw socket plumbing (read/write loops,
// connect timeout, per-socket timeouts) lives in comm/tcp_stream and is
// shared with the service daemon's listener.

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>

#include "base/error.hpp"
#include "base/time.hpp"
#include "comm/channel.hpp"
#include "comm/serialize.hpp"
#include "comm/tcp_stream.hpp"
#include "obs/metrics.hpp"

namespace mgpusw::comm {

namespace {

constexpr std::uint32_t kCloseSentinel = 0xFFFFFFFFu;

struct TcpState {
  int producer_fd = -1;
  int consumer_fd = -1;
  std::size_t capacity = 0;
  std::atomic<std::int64_t> chunks_sent{0};
  std::atomic<std::int64_t> bytes_sent{0};
  std::atomic<std::int64_t> producer_stall_ns{0};
  std::atomic<std::int64_t> consumer_stall_ns{0};
  std::atomic<std::int64_t> acks_seen{0};
  obs::Histogram* ack_wait_ms = nullptr;  // null when obs is disabled

  ~TcpState() {
    if (producer_fd >= 0) ::close(producer_fd);
    if (consumer_fd >= 0) ::close(consumer_fd);
  }

  [[nodiscard]] ChannelStats stats() const {
    return ChannelStats{
        chunks_sent.load(std::memory_order_relaxed),
        bytes_sent.load(std::memory_order_relaxed),
        producer_stall_ns.load(std::memory_order_relaxed),
        consumer_stall_ns.load(std::memory_order_relaxed),
    };
  }
};

class TcpSink final : public BorderSink {
 public:
  explicit TcpSink(std::shared_ptr<TcpState> state)
      : state_(std::move(state)) {}

  void send(BorderChunk chunk) override {
    MGPUSW_CHECK(!closed_);
    // Acknowledgement window: wait until fewer than `capacity` chunks are
    // in flight. Each ack is one byte on the same duplex connection.
    if (in_flight_ >= state_->capacity) {
      base::WallTimer stall;
      while (in_flight_ >= state_->capacity) {
        std::uint8_t ack = 0;
        read_fd_all(state_->producer_fd, &ack, 1);
        --in_flight_;
        state_->acks_seen.fetch_add(1, std::memory_order_relaxed);
      }
      state_->producer_stall_ns.fetch_add(stall.elapsed_ns(),
                                          std::memory_order_relaxed);
      if (state_->ack_wait_ms != nullptr) {
        state_->ack_wait_ms->observe(stall.elapsed_seconds() * 1e3);
      }
    }
    const std::vector<std::uint8_t> frame = serialize_chunk(chunk);
    const auto length = static_cast<std::uint32_t>(frame.size());
    write_fd_all(state_->producer_fd, &length, sizeof(length));
    write_fd_all(state_->producer_fd, frame.data(), frame.size());
    ++in_flight_;
    state_->chunks_sent.fetch_add(1, std::memory_order_relaxed);
    state_->bytes_sent.fetch_add(static_cast<std::int64_t>(frame.size()),
                                 std::memory_order_relaxed);
  }

  void close() override {
    if (closed_) return;
    closed_ = true;
    write_fd_all(state_->producer_fd, &kCloseSentinel,
                 sizeof(kCloseSentinel));
    ::shutdown(state_->producer_fd, SHUT_WR);
  }

  [[nodiscard]] ChannelStats stats() const override {
    return state_->stats();
  }

 private:
  std::shared_ptr<TcpState> state_;
  std::size_t in_flight_ = 0;
  bool closed_ = false;
};

class TcpSource final : public BorderSource {
 public:
  explicit TcpSource(std::shared_ptr<TcpState> state)
      : state_(std::move(state)) {}

  [[nodiscard]] std::optional<BorderChunk> recv() override {
    if (done_) return std::nullopt;
    base::WallTimer stall;
    std::uint32_t length = 0;
    read_fd_all(state_->consumer_fd, &length, sizeof(length));
    state_->consumer_stall_ns.fetch_add(stall.elapsed_ns(),
                                        std::memory_order_relaxed);
    if (length == kCloseSentinel) {
      done_ = true;
      return std::nullopt;
    }
    buffer_.resize(length);
    read_fd_all(state_->consumer_fd, buffer_.data(), buffer_.size());
    BorderChunk chunk = deserialize_chunk(buffer_.data(), buffer_.size());
    // Acknowledge so the producer's window opens one slot.
    const std::uint8_t ack = 1;
    write_fd_all(state_->consumer_fd, &ack, 1);
    return chunk;
  }

  void close() override {
    if (done_) return;
    done_ = true;
    // Both directions: no more acks will be sent (the producer's blocked
    // ack read sees EOF and throws instead of hanging), and any frame
    // still in flight is discarded. The producer's next write gets EPIPE.
    ::shutdown(state_->consumer_fd, SHUT_RDWR);
  }

  [[nodiscard]] ChannelStats stats() const override {
    return state_->stats();
  }

 private:
  std::shared_ptr<TcpState> state_;
  std::vector<std::uint8_t> buffer_;
  bool done_ = false;
};

}  // namespace

ChannelPair make_tcp_channel(std::size_t capacity_chunks,
                             std::int64_t timeout_ms,
                             const obs::Scope& obs) {
  MGPUSW_REQUIRE(capacity_chunks > 0, "channel capacity must be positive");
  MGPUSW_REQUIRE(timeout_ms >= 0, "comm timeout must be non-negative");

  // One-shot rendezvous: an ephemeral listener pairs the two loopback
  // sockets, then goes away. TcpListener brings SO_REUSEADDR and the
  // hardened accept with it.
  TcpListener listener(0, /*backlog=*/1);

  // Border chunks are latency-sensitive (they gate the downstream
  // device's wavefront): both ends get TCP_NODELAY, from connect() and
  // from the listener.
  TcpStream producer =
      TcpStream::connect("127.0.0.1", listener.port(), timeout_ms);
  std::optional<TcpStream> accepted = listener.accept();
  if (!accepted.has_value()) {
    throw IoError("tcp channel rendezvous: listener closed");
  }

  auto state = std::make_shared<TcpState>();
  // TcpState owns both descriptors from here.
  state->producer_fd = producer.release();
  state->consumer_fd = accepted->release();
  set_socket_timeouts(state->consumer_fd, timeout_ms);
  state->capacity = capacity_chunks;
  if (obs.metrics != nullptr) {
    state->ack_wait_ms = &obs.metrics->histogram("comm.tcp.ack_wait_ms");
  }

  ChannelPair pair;
  pair.sink = std::make_unique<TcpSink>(state);
  pair.source = std::make_unique<TcpSource>(state);
  return pair;
}

}  // namespace mgpusw::comm
