// Write-ahead job journal: the durability layer under the alignment
// service. Every job state transition the daemon commits to — SUBMIT,
// START, CANCEL intent, a resumable CHECKPOINT pair, and the terminal
// DONE / FAILED / CANCELLED — is appended to one log file before the
// transition is acknowledged, so a SIGKILL'd daemon restarts with its
// queue intact.
//
// On-disk format (`<dir>/journal.log`):
//
//   [8-byte header "MGJL" + version]
//   record*  where record = [u32 payload_len][u32 crc32(payload)][payload]
//
// The payload is a compact JSON object (base::JsonWriter / base::json —
// the same single JSON implementation the wire protocol uses). Replay
// applies the SpecialRowStore skip-corrupt-tail discipline: the log is
// the longest prefix of records that parse and pass their CRC; a torn
// or corrupt tail is truncated in place, never fatal. A record after a
// bad one is unreachable by the sequential reader anyway — exactly the
// semantics of a crashed append.
//
// Compaction rewrites the log as one snapshot record per live fact
// (terminal jobs shrink to SUBMIT + terminal; running jobs keep their
// newest CHECKPOINT) into `journal.log.tmp`, fsyncs, and renames over
// the old log — atomic on POSIX, so a crash mid-compaction leaves
// either the old or the new log, never a mix.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace mgpusw::serve {

/// One journal record. `kind` selects which fields are meaningful.
struct JournalRecord {
  enum class Kind : std::uint8_t {
    kSubmit,      // spec (full SubmitRequest), job_id
    kStart,       // job_id
    kCancel,      // job_id — client intent, job may still be running
    kCheckpoint,  // job_id, row, best_* — crash-resumable pair
    kDone,        // job_id, score, restarts, lost, resumed_row, result
    kFailed,      // job_id, error, restarts, lost, resumed_row
    kCancelled,   // job_id
  };

  Kind kind = Kind::kSubmit;
  std::int64_t job_id = -1;

  // kSubmit
  SubmitRequest spec;

  // kCheckpoint: the highest matrix row settled across every device of
  // the run plus the best over all cells at or below it — the pair a
  // restarted daemon seeds core::ResumeSpec from.
  std::int64_t row = -1;
  std::int64_t best_score = 0;
  std::int64_t best_row = -1;
  std::int64_t best_col = -1;

  // kDone / kFailed
  std::int64_t score = -1;
  int restarts = 0;
  std::vector<std::string> lost_devices;
  std::int64_t resumed_row = -1;
  std::string result_json;  // core::to_json run report (kDone)
  std::string error;        // failure message (kFailed)
};

[[nodiscard]] std::string encode_record(const JournalRecord& record);
/// Throws ProtocolError on malformed JSON or an unknown kind.
[[nodiscard]] JournalRecord decode_record(const std::string& payload);

/// A job reconstructed by replay: its submit spec plus the newest fact
/// of each kind that referred to it, in log order.
struct ReplayedJob {
  std::int64_t job_id = -1;
  SubmitRequest spec;
  bool started = false;           // a START record exists
  bool cancel_requested = false;  // a CANCEL intent exists
  /// Newest CHECKPOINT (row = -1: none). The checkpoint row is what the
  /// journal *saw* settled; the actual resume row is probed against the
  /// job's SpecialRowStore at restore time.
  std::int64_t checkpoint_row = -1;
  std::int64_t best_score = 0;
  std::int64_t best_row = -1;
  std::int64_t best_col = -1;
  /// Terminal record, if any (kind is kDone / kFailed / kCancelled and
  /// the payload fields are filled from it).
  bool terminal = false;
  JournalRecord outcome;
};

struct ReplayResult {
  std::vector<ReplayedJob> jobs;   // in first-SUBMIT order
  std::int64_t next_job_id = 1;    // max journaled id + 1
  std::int64_t records = 0;        // intact records replayed
  std::int64_t truncated_bytes = 0;  // torn/corrupt tail cut away
};

/// Append-only journal over `<directory>/journal.log`. Thread-safe: one
/// internal mutex orders appends, compaction, and the stats reads.
class JobJournal {
 public:
  /// Creates `directory` (and parents) if missing. Call replay() before
  /// the first append — it opens the log.
  explicit JobJournal(std::string directory, bool fsync_each = false);
  ~JobJournal();

  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  /// Reads the existing log (if any), truncates any torn tail in place,
  /// folds the intact records into per-job replay state, and opens the
  /// log for appending. Must be called exactly once, before append().
  [[nodiscard]] ReplayResult replay();

  /// Appends one record (length + CRC framing + payload, one write()).
  /// With fsync_each, fdatasyncs before returning — a crash after
  /// append() then cannot lose the record, only tear a later one.
  void append(const JournalRecord& record);

  /// Atomically replaces the log with a snapshot (tmp + fsync + rename)
  /// and resets the appends-since-compaction counter. `next` produces
  /// the snapshot one record at a time — it fills its argument and
  /// returns true, or returns false after the last record — so the
  /// rewrite holds one record however long the history. The journal
  /// mutex is held for the whole rewrite, production included, so
  /// concurrent appends queue behind it; `next` must not append.
  void compact(const std::function<bool(JournalRecord&)>& next);
  /// The same from a materialized snapshot.
  void compact(const std::vector<JournalRecord>& snapshot);

  [[nodiscard]] const std::string& directory() const { return directory_; }
  /// Directory for one job's special-row checkpoint files (created on
  /// demand): `<directory>/jobs/job_<id>`.
  [[nodiscard]] std::string job_checkpoint_dir(std::int64_t job_id) const;

  /// Deletes one job's checkpoint directory, if any. Called once the
  /// job's terminal record is journaled: replay re-serves a terminal job
  /// from the log alone, so its checkpoints are dead weight.
  void remove_job_checkpoints(std::int64_t job_id) const;

  [[nodiscard]] std::int64_t appends() const;
  [[nodiscard]] std::int64_t appends_since_compact() const;
  [[nodiscard]] std::int64_t compactions() const;

 private:
  void open_for_append();
  void write_header(int fd) const;

  mutable std::mutex mu_;
  std::string directory_;
  bool fsync_each_ = false;
  int fd_ = -1;
  bool replayed_ = false;
  std::int64_t appends_ = 0;
  std::int64_t appends_since_compact_ = 0;
  std::int64_t compactions_ = 0;
};

}  // namespace mgpusw::serve
