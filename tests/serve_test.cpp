// Tests for the alignment service: protocol framing (round-trips and
// malformed-frame hardening), the quota-aware job queue, the batch
// scheduler's priority/callback hooks, and the daemon end to end
// (concurrent tenants, quotas, progress streaming, cancel at every
// state, injected device death with a bit-identical final score).
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "gtest/gtest.h"
#include "seq/synth.hpp"
#include "serve/client_lib.hpp"
#include "serve/job_queue.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sw/linear.hpp"
#include "tests/test_util.hpp"
#include "vgpu/device.hpp"
#include "vgpu/spec.hpp"

namespace mgpusw::serve {
namespace {

// --- message frame envelope ------------------------------------------------

TEST(MessageFrame, RoundTripsEveryFrameType) {
  for (int type = static_cast<int>(FrameType::kSubmit);
       type <= static_cast<int>(FrameType::kShutdownOk); ++type) {
    comm::MessageFrame frame;
    frame.type = static_cast<std::uint8_t>(type);
    const std::string body =
        R"({"job_id": )" + std::to_string(type) + "}";
    frame.body.assign(body.begin(), body.end());
    const std::vector<std::uint8_t> wire =
        comm::serialize_message(frame);
    const comm::MessageFrame back =
        comm::deserialize_message(wire.data(), wire.size());
    EXPECT_EQ(back.type, frame.type);
    EXPECT_EQ(back.body, frame.body);
  }
}

TEST(MessageFrame, RoundTripsEmptyBody) {
  comm::MessageFrame frame;
  frame.type = static_cast<std::uint8_t>(FrameType::kMetrics);
  const std::vector<std::uint8_t> wire = comm::serialize_message(frame);
  EXPECT_EQ(wire.size(), comm::kMessageHeaderBytes);
  const comm::MessageFrame back =
      comm::deserialize_message(wire.data(), wire.size());
  EXPECT_TRUE(back.body.empty());
}

TEST(MessageFrame, TruncatedEnvelopeThrowsProtocolError) {
  comm::MessageFrame frame;
  frame.type = 1;
  frame.body = {1, 2, 3};
  const std::vector<std::uint8_t> wire = comm::serialize_message(frame);
  for (std::size_t cut = 0; cut < comm::kMessageHeaderBytes; ++cut) {
    EXPECT_THROW(comm::deserialize_message(wire.data(), cut),
                 ProtocolError)
        << "cut at " << cut;
  }
}

TEST(MessageFrame, CorruptedBodyFailsCrc) {
  comm::MessageFrame frame;
  frame.type = 1;
  frame.body = {10, 20, 30, 40};
  std::vector<std::uint8_t> wire = comm::serialize_message(frame);
  wire.back() ^= 0xFF;
  EXPECT_THROW(comm::deserialize_message(wire.data(), wire.size()),
               ProtocolError);
}

TEST(MessageFrame, BadMagicThrowsProtocolError) {
  comm::MessageFrame frame;
  frame.type = 1;
  std::vector<std::uint8_t> wire = comm::serialize_message(frame);
  wire[0] ^= 0xFF;
  EXPECT_THROW(comm::deserialize_message(wire.data(), wire.size()),
               ProtocolError);
}

TEST(MessageFrame, NonzeroReservedBytesThrowProtocolError) {
  comm::MessageFrame frame;
  frame.type = 1;
  std::vector<std::uint8_t> wire = comm::serialize_message(frame);
  wire[6] = 1;
  EXPECT_THROW(comm::deserialize_message(wire.data(), wire.size()),
               ProtocolError);
}

TEST(MessageFrame, OversizedBodyThrowsProtocolError) {
  // Just past the cap: the size check fires before any CRC work.
  const std::vector<std::uint8_t> wire(
      comm::kMaxMessageBytes + comm::kMessageHeaderBytes + 1, 0);
  EXPECT_THROW(comm::deserialize_message(wire.data(), wire.size()),
               ProtocolError);
}

// --- length-prefixed stream framing over a socketpair ----------------------

struct StreamPair {
  comm::TcpStream a;
  comm::TcpStream b;

  StreamPair() {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw IoError("socketpair failed");
    }
    a = comm::TcpStream(fds[0]);
    b = comm::TcpStream(fds[1]);
  }
};

TEST(TcpStreamFraming, FrameRoundTrip) {
  StreamPair pair;
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  pair.a.send_frame(payload);
  const auto got = pair.b.recv_frame();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, payload);
}

TEST(TcpStreamFraming, CleanEofAtFrameBoundaryReturnsNullopt) {
  StreamPair pair;
  pair.a.send_frame({9, 9});
  pair.a.close();
  EXPECT_TRUE(pair.b.recv_frame().has_value());
  EXPECT_FALSE(pair.b.recv_frame().has_value());
}

TEST(TcpStreamFraming, OversizedLengthPrefixThrowsProtocolError) {
  StreamPair pair;
  const std::uint32_t huge = (64u << 20) + 1;
  pair.a.write_all(&huge, sizeof(huge));
  EXPECT_THROW((void)pair.b.recv_frame(), ProtocolError);
}

TEST(TcpStreamFraming, TornFrameThrowsIoErrorNotHang) {
  StreamPair pair;
  const std::uint32_t length = 100;  // promised, never delivered
  pair.a.write_all(&length, sizeof(length));
  pair.a.close();
  EXPECT_THROW((void)pair.b.recv_frame(), IoError);
}

TEST(TcpListener, CloseWakesBlockedAccept) {
  comm::TcpListener listener(0);
  std::thread closer([&listener] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    listener.close();
  });
  EXPECT_FALSE(listener.accept().has_value());
  closer.join();
}

// --- protocol bodies -------------------------------------------------------

TEST(ProtocolBodies, SubmitRoundTrip) {
  SubmitRequest request;
  request.tenant = "alice";
  request.label = "chr21";
  request.priority = 3;
  request.rows = 4096;
  request.cols = 2048;
  request.seed = 7;
  const SubmitRequest back = decode_submit(encode_submit(request));
  EXPECT_EQ(back.tenant, "alice");
  EXPECT_EQ(back.label, "chr21");
  EXPECT_EQ(back.priority, 3);
  EXPECT_EQ(back.rows, 4096);
  EXPECT_EQ(back.cols, 2048);
  EXPECT_EQ(back.seed, 7);
}

TEST(ProtocolBodies, SubmitNeedsExactlyOnePairSpec) {
  SubmitRequest inline_and_synth;
  inline_and_synth.tenant = "t";
  inline_and_synth.query = "ACGT";
  inline_and_synth.subject = "ACGT";
  inline_and_synth.rows = 10;
  inline_and_synth.cols = 10;
  EXPECT_THROW((void)decode_submit(encode_submit(inline_and_synth)),
               ProtocolError);
  EXPECT_THROW((void)decode_submit(R"({"tenant": "t"})"), ProtocolError);
}

TEST(ProtocolBodies, MalformedJsonThrowsProtocolError) {
  EXPECT_THROW((void)decode_submit("{not json"), ProtocolError);
  EXPECT_THROW((void)decode_job_id("[1, 2"), ProtocolError);
  EXPECT_THROW((void)decode_status("42"), ProtocolError);
  EXPECT_THROW((void)decode_progress("{}"), ProtocolError);
}

TEST(ProtocolBodies, StatusRoundTripWithResult) {
  JobStatus status;
  status.job_id = 12;
  status.state = JobState::kDone;
  status.tenant = "bob";
  status.label = "j";
  status.restarts = 1;
  status.lost_devices = {"GTX 580"};
  status.score = 777;
  status.result_json = R"({"score": 777, "gcups": 1.5})";
  const JobStatus back = decode_status(encode_status(status));
  EXPECT_EQ(back.job_id, 12);
  EXPECT_EQ(back.state, JobState::kDone);
  EXPECT_EQ(back.restarts, 1);
  ASSERT_EQ(back.lost_devices.size(), 1u);
  EXPECT_EQ(back.lost_devices[0], "GTX 580");
  EXPECT_EQ(back.score, 777);
  // The nested report survives as parseable JSON with its fields.
  const base::json::Value report = base::json::parse(back.result_json);
  EXPECT_EQ(report.at("score").as_int(), 777);

  // Older daemons also sent a "rebalances" counter; a body that still
  // holds it decodes to the same status.
  const JobStatus old = decode_status(
      R"({"job_id":12,"state":"done","tenant":"bob","label":"j",)"
      R"("restarts":1,"rebalances":1,"lost_devices":["GTX 580"],)"
      R"("score":777,"resumed_row":3,)"
      R"("result":{"score":777,"gcups":1.5}})");
  EXPECT_EQ(old.job_id, 12);
  EXPECT_EQ(old.state, JobState::kDone);
  EXPECT_EQ(old.tenant, "bob");
  EXPECT_EQ(old.label, "j");
  EXPECT_EQ(old.restarts, 1);
  EXPECT_EQ(old.lost_devices, std::vector<std::string>{"GTX 580"});
  EXPECT_EQ(old.score, 777);
  EXPECT_EQ(old.resumed_row, 3);
  EXPECT_TRUE(old.error.empty());
  EXPECT_DOUBLE_EQ(base::json::parse(old.result_json).at("gcups").number,
                   1.5);
}

TEST(ProtocolBodies, ErrorRoundTripThrowsServeError) {
  try {
    throw_decoded_error(encode_error("quota-exceeded", "too many jobs"));
    FAIL() << "throw_decoded_error returned";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), "quota-exceeded");
    EXPECT_STREQ(e.what(), "too many jobs");
  }
}

// --- quota ledger and job queue --------------------------------------------

seq::Sequence tiny_seq(const char* name) {
  return seq::generate_chromosome(name, 64, 3);
}

TEST(QuotaLedger, PendingAndRunningCaps) {
  QuotaPolicy policy;
  policy.max_running_per_tenant = 1;
  policy.max_pending_per_tenant = 2;
  QuotaLedger ledger(policy);
  EXPECT_FALSE(ledger.pending_full("t"));
  ledger.on_submit("t");
  ledger.on_submit("t");
  EXPECT_TRUE(ledger.pending_full("t"));
  EXPECT_FALSE(ledger.pending_full("other"));
  EXPECT_TRUE(ledger.can_start("t"));
  ledger.on_start("t");
  EXPECT_FALSE(ledger.can_start("t"));
  EXPECT_FALSE(ledger.pending_full("t"));  // one slot freed
  ledger.on_finish("t");
  EXPECT_TRUE(ledger.can_start("t"));
}

TEST(JobQueue, RejectsOverPendingQuota) {
  QuotaPolicy policy;
  policy.max_pending_per_tenant = 1;
  JobQueue queue(policy);
  (void)queue.submit("t", "a", 0, tiny_seq("q"), tiny_seq("s"));
  try {
    (void)queue.submit("t", "b", 0, tiny_seq("q"), tiny_seq("s"));
    FAIL() << "expected quota rejection";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), "quota-exceeded");
  }
  // Another tenant is unaffected.
  (void)queue.submit("u", "c", 0, tiny_seq("q"), tiny_seq("s"));
}

TEST(JobQueue, RunningQuotaSkipsTenantNotQueue) {
  QuotaPolicy policy;
  policy.max_running_per_tenant = 1;
  policy.max_pending_per_tenant = 0;  // uncapped
  JobQueue queue(policy);
  const auto a1 = queue.submit("a", "a1", 0, tiny_seq("q"), tiny_seq("s"));
  const auto a2 = queue.submit("a", "a2", 0, tiny_seq("q"), tiny_seq("s"));
  const auto b1 = queue.submit("b", "b1", 0, tiny_seq("q"), tiny_seq("s"));
  EXPECT_EQ(queue.next(), a1);
  // Tenant a is at its running cap: a2 is passed over for b1.
  EXPECT_EQ(queue.next(), b1);
  queue.finish(a1, JobState::kDone);
  EXPECT_EQ(queue.next(), a2);
}

TEST(JobQueue, PriorityBeatsFifo) {
  JobQueue queue(QuotaPolicy{0, 0, false});
  const auto low = queue.submit("t", "low", 0, tiny_seq("q"), tiny_seq("s"));
  const auto high =
      queue.submit("t", "high", 5, tiny_seq("q"), tiny_seq("s"));
  const auto low2 =
      queue.submit("t", "low2", 0, tiny_seq("q"), tiny_seq("s"));
  EXPECT_EQ(queue.next(), high);
  EXPECT_EQ(queue.next(), low);  // FIFO among equals
  EXPECT_EQ(queue.next(), low2);
}

TEST(JobQueue, CancelAtEveryState) {
  JobQueue queue(QuotaPolicy{0, 0, false});
  // Queued: cancelled immediately, leaves the queue.
  const auto queued =
      queue.submit("t", "queued", 0, tiny_seq("q"), tiny_seq("s"));
  EXPECT_EQ(queue.cancel(queued->id), JobState::kCancelled);
  EXPECT_EQ(queue.depth(), 0);

  // Running: the flag is raised; the scheduler settles the state.
  const auto running =
      queue.submit("t", "running", 0, tiny_seq("q"), tiny_seq("s"));
  EXPECT_EQ(queue.next(), running);
  EXPECT_EQ(queue.cancel(running->id), JobState::kRunning);
  EXPECT_TRUE(running->cancel.load());
  queue.finish(running, JobState::kCancelled);

  // Completing: too late, a no-op.
  const auto completing =
      queue.submit("t", "completing", 0, tiny_seq("q"), tiny_seq("s"));
  EXPECT_EQ(queue.next(), completing);
  queue.mark_completing(completing);
  EXPECT_EQ(queue.cancel(completing->id), JobState::kCompleting);
  EXPECT_FALSE(completing->cancel.load());
  queue.finish(completing, JobState::kDone);

  // Terminal: still a no-op, state reported back.
  EXPECT_EQ(queue.cancel(completing->id), JobState::kDone);
  EXPECT_THROW((void)queue.cancel(999), ServeError);
}

TEST(JobQueue, CloseCancelsPendingAndUnblocksNext) {
  JobQueue queue(QuotaPolicy{0, 0, false});
  const auto job =
      queue.submit("t", "doomed", 0, tiny_seq("q"), tiny_seq("s"));
  std::thread closer([&queue] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    queue.close();
  });
  EXPECT_EQ(queue.next(), job);  // still runnable before close
  EXPECT_EQ(queue.next(), nullptr);
  closer.join();
  EXPECT_THROW((void)queue.submit("t", "late", 0, tiny_seq("q"),
                                  tiny_seq("s")),
               ServeError);
}

// --- batch scheduler hooks -------------------------------------------------

core::DeviceFleet make_fleet(int n) {
  std::vector<std::unique_ptr<vgpu::Device>> devices;
  for (int d = 0; d < n; ++d) {
    devices.push_back(
        std::make_unique<vgpu::Device>(vgpu::toy_device(1.0)));
  }
  return core::DeviceFleet(std::move(devices));
}

TEST(BatchHooks, PriorityOrdersAdmissionAndCallbackFires) {
  core::DeviceFleet fleet = make_fleet(1);
  std::vector<core::BatchItem> items;
  for (int i = 0; i < 3; ++i) {
    core::BatchItem item;
    item.label = "item" + std::to_string(i);
    item.query = tiny_seq("q");
    item.subject = tiny_seq("s");
    item.priority = i;  // later items have higher priority
    items.push_back(std::move(item));
  }
  std::vector<std::size_t> done_order;
  core::BatchConfig config;
  config.engine.block_rows = 32;
  config.engine.block_cols = 32;
  config.max_in_flight = 1;
  config.on_item_done = [&done_order](std::size_t index,
                                      const core::BatchItemResult&,
                                      std::exception_ptr error) {
    EXPECT_EQ(error, nullptr);
    done_order.push_back(index);
  };
  const core::BatchResult result = core::run_batch(config, fleet, items);
  EXPECT_EQ(result.items.size(), 3u);
  ASSERT_EQ(done_order.size(), 3u);
  EXPECT_EQ(done_order, (std::vector<std::size_t>{2, 1, 0}));
}

TEST(BatchHooks, CancelFlagStopsItemWithInterruptedError) {
  core::DeviceFleet fleet = make_fleet(1);
  std::atomic<bool> cancel{true};  // pre-raised: stops at the first unit
  core::BatchItem item;
  item.label = "cancelled";
  item.query = seq::generate_chromosome("q", 2048, 5);
  item.subject = seq::generate_chromosome("s", 2048, 6);
  item.cancel = &cancel;
  core::BatchItemResult entry;
  core::BatchConfig config;
  config.engine.block_rows = 64;
  config.engine.block_cols = 64;
  EXPECT_THROW(core::run_batch_item(config, fleet, item, entry),
               InterruptedError);
  // The lease was released by the unwind: the fleet can serve again.
  core::BatchItem ok;
  ok.label = "after";
  ok.query = tiny_seq("q");
  ok.subject = tiny_seq("s");
  core::BatchItemResult after;
  core::run_batch_item(config, fleet, ok, after);
  EXPECT_GE(after.result.best.score, 0);
}

TEST(BatchHooks, CancelUnderRecoveryDoesNotRestart) {
  core::DeviceFleet fleet = make_fleet(2);
  std::atomic<bool> cancel{true};
  core::BatchItem item;
  item.label = "cancelled";
  item.query = seq::generate_chromosome("q", 2048, 5);
  item.subject = seq::generate_chromosome("s", 2048, 6);
  item.cancel = &cancel;
  core::BatchItemResult entry;
  core::BatchConfig config;
  config.engine.block_rows = 64;
  config.engine.block_cols = 64;
  config.enable_recovery = true;
  // Recovery must rethrow the cancel instead of burning restarts on it.
  EXPECT_THROW(core::run_batch_item(config, fleet, item, entry),
               InterruptedError);
  EXPECT_EQ(entry.restarts, 0);
}

// --- the daemon end to end -------------------------------------------------

ServerConfig small_server_config() {
  ServerConfig config;
  config.port = 0;
  config.devices = 3;
  config.scheduler_threads = 2;
  config.devices_per_job = 1;
  config.block = 64;
  config.quota.max_running_per_tenant = 1;
  config.quota.max_pending_per_tenant = 8;
  return config;
}

TEST(ServeEndToEnd, TwoTenantsRunConcurrentJobsToCompletion) {
  AlignServer server(small_server_config());
  server.start();
  ServeClient alice = ServeClient::connect("127.0.0.1", server.port());
  ServeClient bob = ServeClient::connect("127.0.0.1", server.port());
  std::vector<std::int64_t> jobs;
  for (int i = 0; i < 2; ++i) {
    SubmitRequest request;
    request.tenant = "alice";
    request.label = "a" + std::to_string(i);
    request.rows = 1024;
    request.cols = 1024;
    request.seed = 10 + i;
    jobs.push_back(alice.submit(request));
    request.tenant = "bob";
    request.label = "b" + std::to_string(i);
    jobs.push_back(bob.submit(request));
  }
  for (const std::int64_t id : jobs) {
    const JobStatus status = alice.result(id);
    EXPECT_EQ(status.state, JobState::kDone) << "job " << id;
    EXPECT_GE(status.score, 0);
    EXPECT_FALSE(status.result_json.empty());
  }
  // Same seed, same spec -> alice's and bob's runs score identically.
  EXPECT_EQ(alice.result(jobs[0]).score, bob.result(jobs[1]).score);
  server.stop();
}

TEST(ServeEndToEnd, PendingQuotaRejectsWithProtocolError) {
  ServerConfig config = small_server_config();
  config.scheduler_threads = 1;
  config.quota.max_pending_per_tenant = 1;
  AlignServer server(config);
  server.start();
  ServeClient client = ServeClient::connect("127.0.0.1", server.port());
  SubmitRequest request;
  request.tenant = "greedy";
  request.rows = 8192;
  request.cols = 8192;
  const std::int64_t running = client.submit(request);
  // Wait until the first job leaves the queue so the pending count is
  // deterministic.
  while (client.status(running).state == JobState::kQueued) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  request.rows = 1024;
  request.cols = 1024;
  (void)client.submit(request);  // fills the single pending slot
  try {
    (void)client.submit(request);
    FAIL() << "expected quota rejection";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), "quota-exceeded");
  }
  // Another tenant still gets in.
  request.tenant = "patient";
  const std::int64_t other = client.submit(request);
  EXPECT_EQ(client.result(other).state, JobState::kDone);
  server.stop();
}

TEST(ServeEndToEnd, ProgressStreamsThenReportsDone) {
  AlignServer server(small_server_config());
  server.start();
  ServeClient submitter = ServeClient::connect("127.0.0.1", server.port());
  SubmitRequest request;
  request.tenant = "alice";
  request.rows = 8192;
  request.cols = 8192;
  const std::int64_t id = submitter.submit(request);
  ServeClient watcher = ServeClient::connect("127.0.0.1", server.port());
  int updates = 0;
  std::int64_t last_completed = -1;
  const JobStatus final_status = watcher.stream_progress(
      id, [&](const ProgressUpdate& update) {
        ++updates;
        EXPECT_GE(update.completed_units, last_completed);
        last_completed = update.completed_units;
        EXPECT_EQ(update.job_id, id);
      });
  EXPECT_GE(updates, 1);
  EXPECT_EQ(final_status.state, JobState::kDone);
  server.stop();
}

TEST(ServeEndToEnd, CancelRunningJobFreesTheFleet) {
  ServerConfig config = small_server_config();
  config.scheduler_threads = 1;
  AlignServer server(config);
  server.start();
  ServeClient client = ServeClient::connect("127.0.0.1", server.port());
  SubmitRequest request;
  request.tenant = "alice";
  request.label = "doomed";
  request.rows = 16384;
  request.cols = 16384;
  const std::int64_t id = client.submit(request);
  while (client.status(id).state != JobState::kRunning) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  (void)client.cancel(id);
  const JobStatus cancelled = client.result(id);
  EXPECT_EQ(cancelled.state, JobState::kCancelled);
  // The lease is back: the next job runs to completion.
  request.label = "after";
  request.rows = 1024;
  request.cols = 1024;
  const std::int64_t after = client.submit(request);
  EXPECT_EQ(client.result(after).state, JobState::kDone);
  // Cancel on a terminal job stays a no-op.
  EXPECT_EQ(client.cancel(after).state, JobState::kDone);
  server.stop();
}

TEST(ServeEndToEnd, DeviceDeathSurvivedBitIdentical) {
  ServerConfig config = small_server_config();
  config.scheduler_threads = 1;
  config.devices_per_job = 3;
  config.fault_plan = "dev0:die@kernel=40";
  AlignServer faulty_server(config);
  faulty_server.start();
  ServeClient faulty = ServeClient::connect("127.0.0.1", faulty_server.port());
  SubmitRequest request;
  request.tenant = "alice";
  request.rows = 8192;
  request.cols = 8192;
  request.seed = 21;
  const JobStatus hit = faulty.result(faulty.submit(request));
  EXPECT_EQ(hit.state, JobState::kDone);
  EXPECT_GE(hit.restarts, 1);
  EXPECT_FALSE(hit.lost_devices.empty());

  // Metrics: the merged registry shows every layer.
  const base::json::Value snapshot =
      base::json::parse(faulty.metrics_json());
  const base::json::Value& counters = snapshot.at("counters");
  for (const char* key :
       {"serve.jobs_accepted", "serve.jobs_completed",
        "serve.jobs_rejected", "serve.jobs_cancelled",
        "batch.items_completed", "recovery.restarts",
        "recovery.devices_lost", "fleet.leases_granted",
        "fleet.devices_unhealthy"}) {
    EXPECT_NE(counters.find(key), nullptr) << "missing counter " << key;
  }
  EXPECT_NE(snapshot.at("gauges").find("serve.queue_depth"), nullptr);
  faulty_server.stop();

  ServerConfig clean_config = small_server_config();
  clean_config.scheduler_threads = 1;
  clean_config.devices_per_job = 3;
  AlignServer clean_server(clean_config);
  clean_server.start();
  ServeClient clean = ServeClient::connect("127.0.0.1", clean_server.port());
  const JobStatus unfailed = clean.result(clean.submit(request));
  EXPECT_EQ(unfailed.state, JobState::kDone);
  EXPECT_EQ(unfailed.restarts, 0);
  EXPECT_EQ(hit.score, unfailed.score)
      << "device death changed the final score";
  clean_server.stop();
}

TEST(ServeEndToEnd, SingleDeviceLeaseDeathRetriesOnFreshLease) {
  // A job whose whole (1-device) lease dies exhausts recovery in place;
  // the batch layer must retry it on a fresh lease with the spent fault
  // plan disarmed — not remap the plan onto the replacement device and
  // cascade through the fleet.
  ServerConfig config = small_server_config();
  config.scheduler_threads = 1;
  config.devices_per_job = 1;
  config.fault_plan = "dev0:die@kernel=10";
  AlignServer server(config);
  server.start();
  ServeClient client = ServeClient::connect("127.0.0.1", server.port());
  SubmitRequest request;
  request.tenant = "alice";
  request.rows = 4096;
  request.cols = 4096;
  request.seed = 33;
  const JobStatus hit = client.result(client.submit(request));
  EXPECT_EQ(hit.state, JobState::kDone);
  EXPECT_GE(hit.restarts, 1);  // the fresh-lease rerun counts
  EXPECT_EQ(hit.lost_devices.size(), 1u);
  // run_with_recovery threw before booking recovery.* counters; the
  // batch retry must book them instead, so the death is visible in the
  // scraped registry on this path too.
  const base::json::Value snapshot = base::json::parse(client.metrics_json());
  const base::json::Value& counters = snapshot.at("counters");
  ASSERT_NE(counters.find("recovery.restarts"), nullptr);
  EXPECT_GE(counters.at("recovery.restarts").as_int(), 1);
  ASSERT_NE(counters.find("recovery.devices_lost"), nullptr);
  EXPECT_GE(counters.at("recovery.devices_lost").as_int(), 1);
  // Exactly one device died; later jobs still complete on the rest.
  const JobStatus after = client.result(client.submit(request));
  EXPECT_EQ(after.state, JobState::kDone);
  EXPECT_EQ(after.restarts, 0);
  EXPECT_EQ(after.score, hit.score) << "rerun changed the score";
  server.stop();
}

TEST(ServeEndToEnd, MalformedFramesGetErrorRepliesNotCrashes) {
  AlignServer server(small_server_config());
  server.start();
  // Garbage that parses as a frame length, then junk: the daemon must
  // answer with an ERROR frame and close, then keep serving others.
  comm::TcpStream raw =
      comm::TcpStream::connect("127.0.0.1", server.port());
  const std::vector<std::uint8_t> junk = {1, 2, 3, 4, 5, 6, 7, 8};
  raw.send_frame(junk);  // valid framing, invalid message envelope
  const auto reply = raw.recv_frame();
  ASSERT_TRUE(reply.has_value());
  const comm::MessageFrame frame =
      comm::deserialize_message(reply->data(), reply->size());
  EXPECT_EQ(frame.type, static_cast<std::uint8_t>(FrameType::kError));
  raw.close();

  // The daemon still answers a healthy client.
  ServeClient client = ServeClient::connect("127.0.0.1", server.port());
  SubmitRequest request;
  request.tenant = "alice";
  request.rows = 512;
  request.cols = 512;
  EXPECT_EQ(client.result(client.submit(request)).state, JobState::kDone);
  server.stop();
}

TEST(ServeEndToEnd, HttpGetScrapesMetrics) {
  AlignServer server(small_server_config());
  server.start();
  comm::TcpStream http = comm::TcpStream::connect("127.0.0.1", server.port());
  const std::string get = "GET /metrics HTTP/1.0\r\n\r\n";
  http.write_all(get.data(), get.size());
  std::string response;
  char buffer[4096];
  for (;;) {
    const std::size_t got = http.read_some(buffer, sizeof(buffer));
    if (got == 0) break;
    response.append(buffer, got);
  }
  EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
  const std::size_t body_at = response.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  const base::json::Value snapshot =
      base::json::parse(response.substr(body_at + 4));
  EXPECT_TRUE(snapshot.is_object());
  EXPECT_NE(snapshot.at("counters").find("serve.jobs_accepted"), nullptr);
  server.stop();
}

TEST(ServeEndToEnd, ShortPairOnWholeFleetLease) {
  // A 100-base subject has one 128-column block: a whole-fleet lease on
  // three devices must shrink to one device, not fail the job.
  ServerConfig config = small_server_config();
  config.devices_per_job = 0;
  config.block = 128;
  AlignServer server(config);
  server.start();
  ServeClient client = ServeClient::connect("127.0.0.1", server.port());
  const auto [query, subject] = testutil::related_pair(100, 81);
  SubmitRequest request;
  request.tenant = "alice";
  request.query = query.to_string();
  request.subject = subject.to_string();
  const JobStatus done = client.result(client.submit(request));
  ASSERT_EQ(done.state, JobState::kDone) << done.error;
  EXPECT_EQ(done.score,
            sw::linear_score(config.scheme, query, subject).score);
  server.stop();
}

/// Open descriptors of this process.
std::size_t open_fds() {
  return static_cast<std::size_t>(std::distance(
      std::filesystem::directory_iterator("/proc/self/fd"),
      std::filesystem::directory_iterator()));
}

TEST(ServeEndToEnd, ClosedConnectionsReleaseTheirDescriptors) {
  // One-command clients (connect, METRICS, close) must not leave a
  // descriptor and a thread behind per connection until stop().
  AlignServer server(small_server_config());
  server.start();
  const std::size_t before = open_fds();
  for (int i = 0; i < 200; ++i) {
    ServeClient client = ServeClient::connect("127.0.0.1", server.port());
    EXPECT_FALSE(client.metrics_json().empty());
  }
  // Each accept reaps the connections that have ended; the last few may
  // still be closing.
  EXPECT_LE(open_fds(), before + 16);
  server.stop();
}

}  // namespace
}  // namespace mgpusw::serve
