// Wire protocol of the alignment service (mgpusw-serve).
//
// Every message is one comm::MessageFrame (CRC-protected envelope, see
// comm/serialize.hpp) carried in one length-prefixed TCP frame
// (comm/tcp_stream.hpp). The frame type selects the request/reply kind;
// bodies are JSON documents written with base::JsonWriter and parsed
// with base::json — the same single implementation every other emitter
// in the tree uses, so client and server cannot drift apart.
//
//   request            reply
//   ───────            ─────
//   SUBMIT             SUBMIT_OK { job_id } | ERROR (quota, bad spec)
//   STATUS             STATUS_OK { job status }
//   PROGRESS           PROGRESS_EVENT* then PROGRESS_DONE (a stream)
//   CANCEL             CANCEL_OK { job status after the cancel }
//   RESULT             RESULT_OK { job status + result JSON }
//   METRICS            METRICS_OK (body = registry snapshot JSON)
//   SHUTDOWN           SHUTDOWN_OK
//
// Malformed frames and bodies throw ProtocolError on the decoding side;
// the server answers with ERROR and drops the connection (the stream
// position is untrustworthy after a framing error), it never dies.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "base/json.hpp"
#include "comm/serialize.hpp"
#include "comm/tcp_stream.hpp"

namespace mgpusw::serve {

enum class FrameType : std::uint8_t {
  kSubmit = 1,
  kSubmitOk = 2,
  kStatus = 3,
  kStatusOk = 4,
  kProgress = 5,
  kProgressEvent = 6,
  kProgressDone = 7,
  kCancel = 8,
  kCancelOk = 9,
  kResult = 10,
  kResultOk = 11,
  kMetrics = 12,
  kMetricsOk = 13,
  kError = 14,
  kShutdown = 15,
  kShutdownOk = 16,
};

/// Lifecycle of a job inside the daemon. Queued and running jobs can be
/// cancelled; completing means the engine finished and the result is
/// being published (a cancel arriving now is a no-op); done / failed /
/// cancelled are terminal.
enum class JobState : std::uint8_t {
  kQueued,
  kRunning,
  kCompleting,
  kDone,
  kFailed,
  kCancelled,
};

[[nodiscard]] const char* job_state_name(JobState state);
/// Throws ProtocolError on an unknown name.
[[nodiscard]] JobState job_state_from_name(std::string_view name);
[[nodiscard]] inline bool is_terminal(JobState state) {
  return state == JobState::kDone || state == JobState::kFailed ||
         state == JobState::kCancelled;
}

/// An ERROR reply, rethrown client-side as ServeError. Codes:
///   bad-request     malformed frame or body
///   quota-exceeded  tenant's pending quota full and policy rejects
///   not-found       unknown job id
///   not-ready       RESULT with wait=false on a non-terminal job
///   job-failed      RESULT for a job that failed
///   shutting-down   submit refused during shutdown
///   internal        anything else
class ServeError : public Error {
 public:
  ServeError(std::string code, const std::string& message)
      : Error(message), code_(std::move(code)) {}
  [[nodiscard]] const std::string& code() const { return code_; }

 private:
  std::string code_;
};

/// SUBMIT body. The comparison is either inline (ACGT strings) or a
/// synthetic spec (rows x cols generated server-side from `seed` — the
/// cheap way to ship a megabase benchmark job in a 40-byte request).
struct SubmitRequest {
  std::string tenant;
  std::string label;
  int priority = 0;
  std::string query;    // inline bases; empty = synthetic
  std::string subject;  // inline bases; empty = synthetic
  std::int64_t rows = 0;  // synthetic query length
  std::int64_t cols = 0;  // synthetic subject length
  std::int64_t seed = 1;  // synthetic generator seed
  /// Client-chosen dedupe token, scoped per tenant. A resubmission with
  /// the same key (e.g. after a reconnect, or to a restarted daemon
  /// that replayed its journal) returns the original job instead of
  /// queueing a duplicate. Empty = no deduplication.
  std::string idempotency_key;
};

/// The job-status object shared by STATUS_OK / CANCEL_OK / RESULT_OK /
/// PROGRESS_DONE bodies. `result_json` (the core::to_json run report)
/// is only present on RESULT_OK of a done job.
struct JobStatus {
  std::int64_t job_id = -1;
  JobState state = JobState::kQueued;
  std::string tenant;
  std::string label;
  int restarts = 0;
  std::vector<std::string> lost_devices;
  std::string error;        // failure message (failed jobs)
  std::int64_t score = -1;  // best score (done jobs)
  std::string result_json;  // full run report (RESULT_OK only)
  /// Checkpoint row this job's run resumed from after a daemon restart
  /// (journal replay); -1 when the job ran start to finish in one
  /// daemon life.
  std::int64_t resumed_row = -1;
};

/// One PROGRESS_EVENT body: job-level totals aggregated over devices.
struct ProgressUpdate {
  std::int64_t job_id = -1;
  std::int64_t completed_units = 0;
  std::int64_t total_units = 0;
  int restarts = 0;
};

// --- body encoding (JSON) --------------------------------------------------
// Decoders throw ProtocolError on malformed JSON or missing fields.

[[nodiscard]] std::string encode_submit(const SubmitRequest& request);
[[nodiscard]] SubmitRequest decode_submit(const std::string& body);
/// decode_submit without its pair check (inline bases XOR a synthetic
/// rows+cols spec). The journal reads specs through it: a finished
/// job's compacted SUBMIT carries no bases.
[[nodiscard]] SubmitRequest decode_submit_fields(const std::string& body);

/// {"job_id": N} — the body of STATUS / PROGRESS / CANCEL / SUBMIT_OK;
/// RESULT adds {"wait": bool}.
[[nodiscard]] std::string encode_job_ref(std::int64_t job_id);
[[nodiscard]] std::string encode_result_request(std::int64_t job_id,
                                                bool wait);
[[nodiscard]] std::int64_t decode_job_id(const std::string& body);
[[nodiscard]] bool decode_wait_flag(const std::string& body);

[[nodiscard]] std::string encode_status(const JobStatus& status);
[[nodiscard]] JobStatus decode_status(const std::string& body);

[[nodiscard]] std::string encode_progress(const ProgressUpdate& update);
[[nodiscard]] ProgressUpdate decode_progress(const std::string& body);

/// SHUTDOWN body: {"drain": bool}. Draining stops admission, lets
/// running jobs finish (journaling their terminal records), and leaves
/// queued jobs journaled for the next daemon life; non-drain stops hard
/// (crash-equivalent for the journal). Decoding defaults to false so
/// pre-drain clients keep their immediate-stop behaviour.
[[nodiscard]] std::string encode_shutdown(bool drain);
[[nodiscard]] bool decode_shutdown_drain(const std::string& body);

[[nodiscard]] std::string encode_error(const std::string& code,
                                       const std::string& message);
/// Throws the decoded ServeError (never returns normally).
[[noreturn]] void throw_decoded_error(const std::string& body);

// --- framing ---------------------------------------------------------------

/// Sends one protocol message: MessageFrame envelope in one TCP frame.
void send_message(comm::TcpStream& stream, FrameType type,
                  const std::string& body);

struct Message {
  FrameType type = FrameType::kError;
  std::string body;
};

/// Receives one message; nullopt on clean disconnect. Throws
/// ProtocolError on framing violations (oversized, bad magic, bad CRC,
/// unknown frame type).
[[nodiscard]] std::optional<Message> recv_message(comm::TcpStream& stream);

}  // namespace mgpusw::serve
