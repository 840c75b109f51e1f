// Durable job journal tests: record framing round-trips, the
// skip-corrupt-tail replay discipline, atomic compaction, idempotent
// resubmission, and the headline end-to-end property — a daemon killed
// hard with queued and running jobs restarts on the same journal,
// every job reaches a terminal state, the scores are bit-identical to
// an unfailed run, and the mid-flight job demonstrably resumes from a
// disk checkpoint instead of row zero.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "base/error.hpp"
#include "base/json.hpp"
#include "serve/client_lib.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "tests/test_util.hpp"

namespace mgpusw::serve {
namespace {

/// Fresh journal directory under the gtest temp root.
std::string make_journal_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "journal_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

SubmitRequest synthetic_spec(const std::string& tenant,
                             const std::string& label, std::int64_t rows,
                             std::int64_t cols, std::int64_t seed) {
  SubmitRequest spec;
  spec.tenant = tenant;
  spec.label = label;
  spec.rows = rows;
  spec.cols = cols;
  spec.seed = seed;
  return spec;
}

ServerConfig journal_server_config(const std::string& dir) {
  ServerConfig config;
  config.port = 0;
  config.devices = 2;
  config.scheduler_threads = 1;
  config.devices_per_job = 1;
  config.block = 64;
  config.quota.max_pending_per_tenant = 8;
  config.journal_dir = dir;
  config.journal_checkpoint_interval_ms = 0;  // journal every advance
  return config;
}

// --- record framing --------------------------------------------------------

TEST(JournalRecordCodec, SubmitRoundTripsSpec) {
  JournalRecord record;
  record.kind = JournalRecord::Kind::kSubmit;
  record.job_id = 7;
  record.spec = synthetic_spec("alice", "chr1-vs-chr2", 4096, 2048, 99);
  record.spec.priority = 3;
  record.spec.idempotency_key = "retry-42";
  const JournalRecord back = decode_record(encode_record(record));
  EXPECT_EQ(back.kind, JournalRecord::Kind::kSubmit);
  EXPECT_EQ(back.job_id, 7);
  EXPECT_EQ(back.spec.tenant, "alice");
  EXPECT_EQ(back.spec.label, "chr1-vs-chr2");
  EXPECT_EQ(back.spec.priority, 3);
  EXPECT_EQ(back.spec.rows, 4096);
  EXPECT_EQ(back.spec.cols, 2048);
  EXPECT_EQ(back.spec.seed, 99);
  EXPECT_EQ(back.spec.idempotency_key, "retry-42");
}

TEST(JournalRecordCodec, CheckpointRoundTripsPair) {
  JournalRecord record;
  record.kind = JournalRecord::Kind::kCheckpoint;
  record.job_id = 3;
  record.row = 511;
  record.best_score = 1234;
  record.best_row = 500;
  record.best_col = 77;
  const JournalRecord back = decode_record(encode_record(record));
  EXPECT_EQ(back.kind, JournalRecord::Kind::kCheckpoint);
  EXPECT_EQ(back.row, 511);
  EXPECT_EQ(back.best_score, 1234);
  EXPECT_EQ(back.best_row, 500);
  EXPECT_EQ(back.best_col, 77);
}

TEST(JournalRecordCodec, TerminalRecordsRoundTrip) {
  JournalRecord done;
  done.kind = JournalRecord::Kind::kDone;
  done.job_id = 9;
  done.score = 321;
  done.restarts = 2;
  done.lost_devices = {"dev1"};
  done.resumed_row = 255;
  done.result_json = R"({"best":{"score":321}})";
  JournalRecord back = decode_record(encode_record(done));
  EXPECT_EQ(back.kind, JournalRecord::Kind::kDone);
  EXPECT_EQ(back.score, 321);
  EXPECT_EQ(back.restarts, 2);
  EXPECT_EQ(back.lost_devices, std::vector<std::string>{"dev1"});
  EXPECT_EQ(back.resumed_row, 255);
  EXPECT_FALSE(back.result_json.empty());

  // Older daemons also journaled a "rebalances" counter in terminal
  // records; their journals must still replay, so the key is ignored.
  back = decode_record(
      R"({"kind":"done","job_id":9,"restarts":2,"rebalances":1,)"
      R"("lost":["dev1"],"resumed_row":255,"score":321,)"
      R"("result":{"best":{"score":321}}})");
  EXPECT_EQ(back.kind, JournalRecord::Kind::kDone);
  EXPECT_EQ(back.job_id, 9);
  EXPECT_EQ(back.score, 321);
  EXPECT_EQ(back.restarts, 2);
  EXPECT_EQ(back.lost_devices, std::vector<std::string>{"dev1"});
  EXPECT_EQ(back.resumed_row, 255);
  EXPECT_EQ(base::json::parse(back.result_json)
                .at("best").at("score").as_int(),
            321);

  JournalRecord failed;
  failed.kind = JournalRecord::Kind::kFailed;
  failed.job_id = 10;
  failed.error = "device pool exhausted";
  back = decode_record(encode_record(failed));
  EXPECT_EQ(back.kind, JournalRecord::Kind::kFailed);
  EXPECT_EQ(back.error, "device pool exhausted");
  EXPECT_EQ(back.resumed_row, -1);
}

TEST(JournalRecordCodec, MalformedPayloadThrowsProtocolError) {
  EXPECT_THROW((void)decode_record("not json"), ProtocolError);
  EXPECT_THROW((void)decode_record(R"({"kind":"nope","job_id":1})"),
               ProtocolError);
}

// --- append + replay -------------------------------------------------------

TEST(JobJournalTest, FreshDirectoryReplaysEmpty) {
  const std::string dir = make_journal_dir("fresh");
  JobJournal journal(dir);
  const ReplayResult replayed = journal.replay();
  EXPECT_TRUE(replayed.jobs.empty());
  EXPECT_EQ(replayed.next_job_id, 1);
  EXPECT_EQ(replayed.truncated_bytes, 0);
}

TEST(JobJournalTest, AppendedRecordsFoldIntoJobs) {
  const std::string dir = make_journal_dir("fold");
  {
    JobJournal journal(dir);
    (void)journal.replay();
    JournalRecord submit;
    submit.kind = JournalRecord::Kind::kSubmit;
    submit.job_id = 1;
    submit.spec = synthetic_spec("t", "a", 512, 512, 1);
    journal.append(submit);
    JournalRecord start;
    start.kind = JournalRecord::Kind::kStart;
    start.job_id = 1;
    journal.append(start);
    JournalRecord checkpoint;
    checkpoint.kind = JournalRecord::Kind::kCheckpoint;
    checkpoint.job_id = 1;
    checkpoint.row = 127;
    checkpoint.best_score = 55;
    journal.append(checkpoint);
    // A newer checkpoint supersedes the older one.
    checkpoint.row = 255;
    checkpoint.best_score = 80;
    journal.append(checkpoint);
    submit.job_id = 2;
    submit.spec.label = "b";
    journal.append(submit);
    JournalRecord done;
    done.kind = JournalRecord::Kind::kDone;
    done.job_id = 2;
    done.score = 42;
    journal.append(done);
    EXPECT_EQ(journal.appends(), 6);
  }
  JobJournal reopened(dir);
  const ReplayResult replayed = reopened.replay();
  ASSERT_EQ(replayed.jobs.size(), 2u);
  EXPECT_EQ(replayed.records, 6);
  EXPECT_EQ(replayed.next_job_id, 3);
  const ReplayedJob& first = replayed.jobs[0];
  EXPECT_EQ(first.job_id, 1);
  EXPECT_TRUE(first.started);
  EXPECT_FALSE(first.terminal);
  EXPECT_EQ(first.checkpoint_row, 255);
  EXPECT_EQ(first.best_score, 80);
  const ReplayedJob& second = replayed.jobs[1];
  EXPECT_TRUE(second.terminal);
  EXPECT_EQ(second.outcome.kind, JournalRecord::Kind::kDone);
  EXPECT_EQ(second.outcome.score, 42);
}

TEST(JobJournalTest, TornTailIsTruncatedNotFatal) {
  const std::string dir = make_journal_dir("torn");
  {
    JobJournal journal(dir);
    (void)journal.replay();
    JournalRecord submit;
    submit.kind = JournalRecord::Kind::kSubmit;
    submit.job_id = 1;
    submit.spec = synthetic_spec("t", "a", 512, 512, 1);
    journal.append(submit);
  }
  // A crash mid-append: a frame header promising more bytes than exist.
  {
    std::ofstream log(dir + "/journal.log",
                      std::ios::binary | std::ios::app);
    const std::uint32_t length = 4096;
    const std::uint32_t crc = 0;
    log.write(reinterpret_cast<const char*>(&length), sizeof(length));
    log.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
    log.write("torn", 4);
  }
  JobJournal reopened(dir);
  const ReplayResult replayed = reopened.replay();
  ASSERT_EQ(replayed.jobs.size(), 1u);
  EXPECT_EQ(replayed.records, 1);
  EXPECT_EQ(replayed.truncated_bytes, 12);
  // The truncation happened in place: appending then replaying again
  // sees a clean log plus the new record.
  JournalRecord start;
  start.kind = JournalRecord::Kind::kStart;
  start.job_id = 1;
  reopened.append(start);
  JobJournal again(dir);
  const ReplayResult second = again.replay();
  EXPECT_EQ(second.records, 2);
  EXPECT_EQ(second.truncated_bytes, 0);
  EXPECT_TRUE(second.jobs[0].started);
}

TEST(JobJournalTest, CorruptTailRecordIsDropped) {
  const std::string dir = make_journal_dir("corrupt");
  {
    JobJournal journal(dir);
    (void)journal.replay();
    JournalRecord submit;
    submit.kind = JournalRecord::Kind::kSubmit;
    submit.job_id = 1;
    submit.spec = synthetic_spec("t", "a", 512, 512, 1);
    journal.append(submit);
    JournalRecord start;
    start.kind = JournalRecord::Kind::kStart;
    start.job_id = 1;
    journal.append(start);
  }
  // Flip the last payload byte: the CRC no longer matches, so the last
  // record is a corrupt tail.
  const std::string path = dir + "/journal.log";
  const auto size =
      static_cast<std::int64_t>(std::filesystem::file_size(path));
  {
    std::fstream log(path, std::ios::binary | std::ios::in | std::ios::out);
    log.seekg(size - 1);
    char byte = 0;
    log.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);
    log.seekp(size - 1);
    log.write(&byte, 1);
  }
  JobJournal reopened(dir);
  const ReplayResult replayed = reopened.replay();
  EXPECT_EQ(replayed.records, 1);
  EXPECT_GT(replayed.truncated_bytes, 0);
  ASSERT_EQ(replayed.jobs.size(), 1u);
  EXPECT_FALSE(replayed.jobs[0].started);  // the START record was cut
}

TEST(JobJournalTest, NonJournalFileIsRejected) {
  const std::string dir = make_journal_dir("notajournal");
  {
    std::ofstream log(dir + "/journal.log", std::ios::binary);
    log << "GARBAGEGARBAGE";
  }
  JobJournal journal(dir);
  EXPECT_THROW((void)journal.replay(), IoError);
}

TEST(JobJournalTest, TornHeaderIsRecreated) {
  const std::string dir = make_journal_dir("tornheader");
  {
    std::ofstream log(dir + "/journal.log", std::ios::binary);
    log << "MG";  // died two bytes into the 8-byte header
  }
  JobJournal journal(dir);
  const ReplayResult replayed = journal.replay();
  EXPECT_TRUE(replayed.jobs.empty());
  EXPECT_EQ(replayed.truncated_bytes, 2);
  JournalRecord submit;
  submit.kind = JournalRecord::Kind::kSubmit;
  submit.job_id = 1;
  submit.spec = synthetic_spec("t", "a", 512, 512, 1);
  journal.append(submit);  // the recreated log accepts appends
}

TEST(JobJournalTest, CompactionShrinksAndPreservesFacts) {
  const std::string dir = make_journal_dir("compact");
  JobJournal journal(dir);
  (void)journal.replay();
  JournalRecord submit;
  submit.kind = JournalRecord::Kind::kSubmit;
  submit.job_id = 1;
  submit.spec = synthetic_spec("t", "a", 512, 512, 1);
  journal.append(submit);
  JournalRecord start;
  start.kind = JournalRecord::Kind::kStart;
  start.job_id = 1;
  journal.append(start);
  JournalRecord checkpoint;
  checkpoint.kind = JournalRecord::Kind::kCheckpoint;
  checkpoint.job_id = 1;
  for (std::int64_t row = 63; row < 512; row += 64) {
    checkpoint.row = row;
    journal.append(checkpoint);
  }
  JournalRecord done;
  done.kind = JournalRecord::Kind::kDone;
  done.job_id = 1;
  done.score = 17;
  journal.append(done);
  EXPECT_EQ(journal.appends_since_compact(), 11);
  const auto before =
      std::filesystem::file_size(dir + "/journal.log");

  // Snapshot: the terminal job shrinks to SUBMIT + DONE.
  journal.compact({submit, done});
  EXPECT_EQ(journal.compactions(), 1);
  EXPECT_EQ(journal.appends_since_compact(), 0);
  EXPECT_LT(std::filesystem::file_size(dir + "/journal.log"), before);

  // The compacted log keeps accepting appends...
  submit.job_id = 2;
  submit.spec.label = "late";
  journal.append(submit);

  // ...and a fresh replay sees the snapshot facts plus the new record.
  JobJournal reopened(dir);
  const ReplayResult replayed = reopened.replay();
  ASSERT_EQ(replayed.jobs.size(), 2u);
  EXPECT_TRUE(replayed.jobs[0].terminal);
  EXPECT_EQ(replayed.jobs[0].outcome.score, 17);
  EXPECT_FALSE(replayed.jobs[1].terminal);
  EXPECT_EQ(replayed.next_job_id, 3);
}

// --- daemon end to end -----------------------------------------------------

TEST(JournalEndToEnd, TerminalResultsSurviveRestart) {
  const std::string dir = make_journal_dir("e2e_terminal");
  std::int64_t id = -1;
  std::int64_t score = -1;
  {
    AlignServer server(journal_server_config(dir));
    server.start();
    ServeClient client = ServeClient::connect("127.0.0.1", server.port());
    SubmitRequest request = synthetic_spec("alice", "small", 512, 512, 5);
    id = client.submit(request);
    const JobStatus done = client.result(id);
    ASSERT_EQ(done.state, JobState::kDone);
    score = done.score;
    ASSERT_FALSE(done.result_json.empty());
    server.stop();
  }
  AlignServer restarted(journal_server_config(dir));
  EXPECT_EQ(restarted.replayed_jobs(), 1);
  restarted.start();
  ServeClient client = ServeClient::connect("127.0.0.1", restarted.port());
  const JobStatus replayed = client.result(id);
  EXPECT_EQ(replayed.state, JobState::kDone);
  EXPECT_EQ(replayed.score, score);
  // The result body is served verbatim from the journal.
  EXPECT_FALSE(replayed.result_json.empty());
  restarted.stop();
}

TEST(JournalEndToEnd, FinishedJobCheckpointsAreRemoved) {
  // A journaled job's checkpoint spills live in <journal>/jobs/job_<id>
  // only until its terminal record is durable; the RESULT is still
  // re-served verbatim from the log by the next life.
  const std::string dir = make_journal_dir("e2e_cleanup");
  const auto job_dir = [&dir](std::int64_t id) {
    return dir + "/jobs/job_" + std::to_string(id);
  };
  std::int64_t id = -1;
  std::string result_json;
  {
    AlignServer server(journal_server_config(dir));
    server.start();
    ServeClient client = ServeClient::connect("127.0.0.1", server.port());
    id = client.submit(synthetic_spec("alice", "spill", 2048, 2048, 9));
    const JobStatus done = client.result(id);
    ASSERT_EQ(done.state, JobState::kDone);
    result_json = done.result_json;
    ASSERT_FALSE(result_json.empty());
    EXPECT_FALSE(std::filesystem::exists(job_dir(id)));
    server.stop();
  }
  AlignServer restarted(journal_server_config(dir));
  EXPECT_EQ(restarted.replayed_jobs(), 1);
  restarted.start();
  ServeClient client = ServeClient::connect("127.0.0.1", restarted.port());
  const JobStatus replayed = client.result(id);
  EXPECT_EQ(replayed.state, JobState::kDone);
  EXPECT_EQ(replayed.result_json, result_json);
  EXPECT_FALSE(std::filesystem::exists(job_dir(id)));
  restarted.stop();
}

TEST(JournalEndToEnd, CompactedFinishedJobsKeepNoBases) {
  // A finished job's inputs are released; a compaction then journals
  // its SUBMIT without bases, and the next life still re-serves every
  // RESULT verbatim from the compacted log.
  const std::string dir = make_journal_dir("e2e_compact_bases");
  ServerConfig config = journal_server_config(dir);
  config.journal_compact_min_appends = 1;  // compact after every job
  constexpr std::int64_t kBases = 2000;
  std::vector<std::int64_t> ids;
  std::vector<std::string> results;
  {
    AlignServer server(config);
    server.start();
    ServeClient client = ServeClient::connect("127.0.0.1", server.port());
    for (int i = 0; i < 3; ++i) {
      SubmitRequest request;
      request.tenant = "alice";
      request.query = testutil::random_sequence(kBases, 40 + i).to_string();
      request.subject =
          testutil::random_sequence(kBases, 50 + i).to_string();
      ids.push_back(client.submit(request));
      const JobStatus done = client.result(ids.back());
      ASSERT_EQ(done.state, JobState::kDone);
      results.push_back(done.result_json);
    }
    EXPECT_GE(server.metrics().counter("serve.journal_compactions").value(),
              1);
    server.stop();
  }
  // The compacted log is smaller than one job's inline bases.
  EXPECT_LT(std::filesystem::file_size(dir + "/journal.log"),
            static_cast<std::uintmax_t>(2 * kBases));
  AlignServer restarted(config);
  EXPECT_EQ(restarted.replayed_jobs(), 3);
  restarted.start();
  ServeClient client = ServeClient::connect("127.0.0.1", restarted.port());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const JobStatus replayed = client.result(ids[i]);
    EXPECT_EQ(replayed.state, JobState::kDone);
    EXPECT_EQ(replayed.result_json, results[i]);
  }
  restarted.stop();
}

TEST(JournalEndToEnd, IdempotencyKeyDedupesWithinAndAcrossLives) {
  const std::string dir = make_journal_dir("e2e_idem");
  std::int64_t id = -1;
  std::int64_t score = -1;
  SubmitRequest request = synthetic_spec("alice", "idem", 512, 512, 9);
  request.idempotency_key = "once";
  {
    AlignServer server(journal_server_config(dir));
    server.start();
    ServeClient client = ServeClient::connect("127.0.0.1", server.port());
    id = client.submit(request);
    EXPECT_EQ(client.submit(request), id);  // same key -> same job
    EXPECT_EQ(
        server.metrics().counter("serve.jobs_deduped").value(), 1);
    score = client.result(id).score;
    server.stop();
  }
  AlignServer restarted(journal_server_config(dir));
  restarted.start();
  ServeClient client = ServeClient::connect("127.0.0.1", restarted.port());
  // Resubmitting after the restart lands on the replayed job — the
  // daemon returns its finished result instead of recomputing.
  EXPECT_EQ(client.submit(request), id);
  EXPECT_EQ(client.result(id).score, score);
  EXPECT_EQ(
      restarted.metrics().counter("serve.jobs_deduped").value(), 1);
  restarted.stop();
}

TEST(JournalEndToEnd, CancelIntentIsHonouredOnReplay) {
  const std::string dir = make_journal_dir("e2e_cancel");
  {
    // Hand-author the journal of a daemon that accepted a cancel for a
    // running job and died before the engine stopped.
    JobJournal journal(dir);
    (void)journal.replay();
    JournalRecord submit;
    submit.kind = JournalRecord::Kind::kSubmit;
    submit.job_id = 1;
    submit.spec = synthetic_spec("alice", "doomed", 1024, 1024, 3);
    journal.append(submit);
    JournalRecord start;
    start.kind = JournalRecord::Kind::kStart;
    start.job_id = 1;
    journal.append(start);
    JournalRecord cancel;
    cancel.kind = JournalRecord::Kind::kCancel;
    cancel.job_id = 1;
    journal.append(cancel);
  }
  AlignServer server(journal_server_config(dir));
  EXPECT_EQ(server.replayed_jobs(), 1);
  server.start();
  ServeClient client = ServeClient::connect("127.0.0.1", server.port());
  const JobStatus status = client.result(1, /*wait=*/false);
  EXPECT_EQ(status.state, JobState::kCancelled);
  server.stop();
}

TEST(JournalEndToEnd, DrainShutdownFinishesRunningKeepsQueued) {
  const std::string dir = make_journal_dir("e2e_drain");
  std::int64_t running_id = -1;
  std::int64_t queued_id = -1;
  std::int64_t score = -1;
  {
    AlignServer server(journal_server_config(dir));
    server.start();
    ServeClient client = ServeClient::connect("127.0.0.1", server.port());
    running_id =
        client.submit(synthetic_spec("alice", "drains", 2048, 2048, 11));
    queued_id =
        client.submit(synthetic_spec("alice", "waits", 1024, 1024, 12));
    while (client.status(running_id).state == JobState::kQueued) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    server.request_drain();
    server.stop();  // drains: the running job finishes and journals DONE
    score = 0;
  }
  AlignServer restarted(journal_server_config(dir));
  EXPECT_EQ(restarted.replayed_jobs(), 2);
  restarted.start();
  ServeClient client = ServeClient::connect("127.0.0.1", restarted.port());
  const JobStatus drained = client.result(running_id, /*wait=*/false);
  // The drained job is terminal without having re-run in this life.
  EXPECT_EQ(drained.state, JobState::kDone);
  EXPECT_GE(drained.score, score);
  // The queued job replays as queued and completes normally.
  const JobStatus waited = client.result(queued_id);
  EXPECT_EQ(waited.state, JobState::kDone);
  restarted.stop();
}

// The acceptance scenario: a daemon killed hard with one running and
// two queued jobs restarts on the same journal; every job reaches DONE,
// all scores agree with an unfailed run of the same spec (the queued
// jobs run fresh, so they ARE the reference), and the mid-flight job
// resumed from a disk checkpoint rather than recomputing row zero.
TEST(JournalEndToEnd, HardStopMidJobResumesFromCheckpointBitIdentical) {
  const std::string dir = make_journal_dir("e2e_crash");
  ServerConfig config = journal_server_config(dir);
  std::vector<std::int64_t> ids;
  std::uint16_t port = 0;
  {
    AlignServer server(config);
    server.start();
    port = server.port();
    ServeClient client = ServeClient::connect("127.0.0.1", port);
    // Three identical specs: one runs, two stay queued behind the
    // single scheduler thread (same tenant, running quota default).
    for (int i = 0; i < 3; ++i) {
      ids.push_back(client.submit(
          synthetic_spec("alice", "crash-" + std::to_string(i), 8192,
                         8192, 77)));
    }
    // Wait until the running job has journaled a checkpoint row past
    // the first disk special row (rows land every
    // recovery.checkpoint_interval * block = 256 rows; checkpoints are
    // journaled every settled block row of 64, so the 6th covers row
    // 383 > 255), then kill the daemon without drain: stop() freezes
    // the journal first, so on disk this is a crash.
    obs::Counter& checkpoints =
        server.metrics().counter("serve.journal_checkpoints");
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (checkpoints.value() < 6 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_GE(checkpoints.value(), 6) << "no resumable checkpoint journaled";
    ASSERT_EQ(client.status(ids[0]).state, JobState::kRunning);
    server.stop();
  }

  AlignServer restarted(journal_server_config(dir));
  ASSERT_EQ(restarted.replayed_jobs(), 3);
  restarted.start();
  ServeClient client = ServeClient::connect("127.0.0.1", restarted.port());
  std::vector<std::int64_t> scores;
  for (const std::int64_t id : ids) {
    const JobStatus done = client.result(id);
    ASSERT_EQ(done.state, JobState::kDone) << "job " << id;
    scores.push_back(done.score);
  }
  // The two fresh jobs are the unfailed reference; the resumed job must
  // match them bit-identically.
  EXPECT_EQ(scores[0], scores[1]);
  EXPECT_EQ(scores[1], scores[2]);
  // And it really resumed: the run restarted from a positive
  // checkpoint row, not from scratch.
  EXPECT_GT(client.status(ids[0]).resumed_row, 0);
  EXPECT_GE(
      restarted.metrics().counter("serve.journal_replayed_jobs").value(),
      3);
  restarted.stop();
}

TEST(JournalEndToEnd, ClientRidesThroughRestartWithBackoff) {
  const std::string dir = make_journal_dir("e2e_reconnect");
  ServerConfig config = journal_server_config(dir);
  std::int64_t id = -1;
  std::int64_t score = -1;
  std::uint16_t port = 0;
  ReconnectPolicy policy;
  policy.max_attempts = 40;
  policy.initial_backoff_ms = 5;
  policy.max_backoff_ms = 50;
  auto first = std::make_unique<AlignServer>(config);
  first->start();
  port = first->port();
  ServeClient client =
      ServeClient::connect("127.0.0.1", port, /*timeout_ms=*/0, policy);
  SubmitRequest request = synthetic_spec("alice", "sticky", 512, 512, 21);
  request.idempotency_key = "sticky-1";
  id = client.submit(request);
  score = client.result(id).score;
  first->stop();
  first.reset();

  // Same port, same journal: the client's next request reconnects on
  // the backoff schedule and lands on the restarted daemon.
  config.port = port;
  AlignServer second(config);
  second.start();
  const JobStatus status = client.result(id);
  EXPECT_EQ(status.state, JobState::kDone);
  EXPECT_EQ(status.score, score);
  // A retried submit with the same key dedupes instead of re-running.
  EXPECT_EQ(client.submit(request), id);
  second.stop();
}

TEST(JournalEndToEnd, MetricsExposeJournalCounters) {
  const std::string dir = make_journal_dir("e2e_metrics");
  AlignServer server(journal_server_config(dir));
  server.start();
  ServeClient client = ServeClient::connect("127.0.0.1", server.port());
  const std::int64_t id =
      client.submit(synthetic_spec("alice", "m", 512, 512, 2));
  (void)client.result(id);
  const std::string json = client.metrics_json();
  EXPECT_NE(json.find("serve.journal_appends"), std::string::npos);
  EXPECT_NE(json.find("serve.journal_replayed_jobs"), std::string::npos);
  EXPECT_NE(json.find("serve.journal_truncated_bytes"), std::string::npos);
  EXPECT_NE(json.find("serve.journal_compactions"), std::string::npos);
  EXPECT_NE(json.find("serve.journal_checkpoints"), std::string::npos);
  // SUBMIT + START + DONE at minimum.
  EXPECT_GE(server.metrics().counter("serve.journal_appends").value(), 3);
  server.stop();
}

}  // namespace
}  // namespace mgpusw::serve
