#include "serve/protocol.hpp"

#include <utility>

#include "base/error.hpp"

namespace mgpusw::serve {

namespace {

/// Parses a JSON body, mapping parser failures (InvalidArgument with an
/// offset) to ProtocolError — on the wire, malformed JSON is protocol
/// corruption, not caller misuse.
base::json::Value parse_body(const std::string& body) {
  try {
    return base::json::parse(body);
  } catch (const InvalidArgument& e) {
    throw ProtocolError(std::string("malformed message body: ") + e.what());
  }
}

const base::json::Value& require(const base::json::Value& object,
                                 std::string_view key) {
  const base::json::Value* member = object.find(key);
  if (member == nullptr) {
    throw ProtocolError("message body is missing \"" + std::string(key) +
                        "\"");
  }
  return *member;
}

std::string require_string(const base::json::Value& object,
                           std::string_view key) {
  const base::json::Value& member = require(object, key);
  if (!member.is_string()) {
    throw ProtocolError("\"" + std::string(key) + "\" must be a string");
  }
  return member.string;
}

std::int64_t require_int(const base::json::Value& object,
                         std::string_view key) {
  const base::json::Value& member = require(object, key);
  if (!member.is_number()) {
    throw ProtocolError("\"" + std::string(key) + "\" must be a number");
  }
  return member.as_int();
}

std::int64_t optional_int(const base::json::Value& object,
                          std::string_view key, std::int64_t fallback) {
  const base::json::Value* member = object.find(key);
  if (member == nullptr) return fallback;
  if (!member->is_number()) {
    throw ProtocolError("\"" + std::string(key) + "\" must be a number");
  }
  return member->as_int();
}

std::string optional_string(const base::json::Value& object,
                            std::string_view key) {
  const base::json::Value* member = object.find(key);
  if (member == nullptr) return {};
  if (!member->is_string()) {
    throw ProtocolError("\"" + std::string(key) + "\" must be a string");
  }
  return member->string;
}

}  // namespace

const char* job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kCompleting: return "completing";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
  }
  return "unknown";
}

JobState job_state_from_name(std::string_view name) {
  if (name == "queued") return JobState::kQueued;
  if (name == "running") return JobState::kRunning;
  if (name == "completing") return JobState::kCompleting;
  if (name == "done") return JobState::kDone;
  if (name == "failed") return JobState::kFailed;
  if (name == "cancelled") return JobState::kCancelled;
  throw ProtocolError("unknown job state \"" + std::string(name) + "\"");
}

std::string encode_submit(const SubmitRequest& request) {
  base::JsonWriter w;
  w.begin_object(base::JsonWriter::kCompact);
  w.key("tenant").value(request.tenant);
  w.key("label").value(request.label);
  w.key("priority").value(request.priority);
  if (!request.query.empty()) w.key("query").value(request.query);
  if (!request.subject.empty()) w.key("subject").value(request.subject);
  if (request.rows > 0) w.key("rows").value(request.rows);
  if (request.cols > 0) w.key("cols").value(request.cols);
  w.key("seed").value(request.seed);
  if (!request.idempotency_key.empty()) {
    w.key("key").value(request.idempotency_key);
  }
  w.end_object();
  return w.str();
}

SubmitRequest decode_submit_fields(const std::string& body) {
  const base::json::Value doc = parse_body(body);
  if (!doc.is_object()) throw ProtocolError("SUBMIT body must be an object");
  SubmitRequest request;
  request.tenant = require_string(doc, "tenant");
  if (request.tenant.empty()) {
    throw ProtocolError("SUBMIT needs a non-empty \"tenant\"");
  }
  request.label = optional_string(doc, "label");
  request.priority = static_cast<int>(optional_int(doc, "priority", 0));
  request.query = optional_string(doc, "query");
  request.subject = optional_string(doc, "subject");
  request.rows = optional_int(doc, "rows", 0);
  request.cols = optional_int(doc, "cols", 0);
  request.seed = optional_int(doc, "seed", 1);
  request.idempotency_key = optional_string(doc, "key");
  return request;
}

SubmitRequest decode_submit(const std::string& body) {
  SubmitRequest request = decode_submit_fields(body);
  const bool inline_pair = !request.query.empty() && !request.subject.empty();
  const bool synth_pair = request.rows > 0 && request.cols > 0;
  if (inline_pair == synth_pair) {
    throw ProtocolError(
        "SUBMIT needs either inline \"query\"+\"subject\" bases or a "
        "synthetic \"rows\"+\"cols\" spec (exactly one of the two)");
  }
  return request;
}

std::string encode_job_ref(std::int64_t job_id) {
  base::JsonWriter w;
  w.begin_object(base::JsonWriter::kCompact);
  w.key("job_id").value(job_id);
  w.end_object();
  return w.str();
}

std::string encode_result_request(std::int64_t job_id, bool wait) {
  base::JsonWriter w;
  w.begin_object(base::JsonWriter::kCompact);
  w.key("job_id").value(job_id);
  w.key("wait").value(wait);
  w.end_object();
  return w.str();
}

std::int64_t decode_job_id(const std::string& body) {
  const base::json::Value doc = parse_body(body);
  if (!doc.is_object()) throw ProtocolError("body must be an object");
  return require_int(doc, "job_id");
}

bool decode_wait_flag(const std::string& body) {
  const base::json::Value doc = parse_body(body);
  if (!doc.is_object()) throw ProtocolError("body must be an object");
  const base::json::Value* wait = doc.find("wait");
  if (wait == nullptr) return true;
  if (wait->type != base::json::Value::kBool) {
    throw ProtocolError("\"wait\" must be a boolean");
  }
  return wait->boolean;
}

std::string encode_status(const JobStatus& status) {
  base::JsonWriter w;
  w.begin_object(base::JsonWriter::kCompact);
  w.key("job_id").value(status.job_id);
  w.key("state").value(job_state_name(status.state));
  w.key("tenant").value(status.tenant);
  w.key("label").value(status.label);
  w.key("restarts").value(status.restarts);
  w.key("lost_devices").begin_array(base::JsonWriter::kCompact);
  for (const std::string& name : status.lost_devices) w.value(name);
  w.end_array();
  if (!status.error.empty()) w.key("error").value(status.error);
  if (status.score >= 0) w.key("score").value(status.score);
  if (status.resumed_row >= 0) {
    w.key("resumed_row").value(status.resumed_row);
  }
  if (!status.result_json.empty()) {
    w.key("result").raw_value(status.result_json);
  }
  w.end_object();
  return w.str();
}

JobStatus decode_status(const std::string& body) {
  const base::json::Value doc = parse_body(body);
  if (!doc.is_object()) throw ProtocolError("status body must be an object");
  JobStatus status;
  status.job_id = require_int(doc, "job_id");
  status.state = job_state_from_name(require_string(doc, "state"));
  status.tenant = optional_string(doc, "tenant");
  status.label = optional_string(doc, "label");
  status.restarts = static_cast<int>(optional_int(doc, "restarts", 0));
  if (const base::json::Value* lost = doc.find("lost_devices")) {
    if (!lost->is_array()) {
      throw ProtocolError("\"lost_devices\" must be an array");
    }
    for (const base::json::Value& name : lost->array) {
      if (!name.is_string()) {
        throw ProtocolError("\"lost_devices\" entries must be strings");
      }
      status.lost_devices.push_back(name.string);
    }
  }
  status.error = optional_string(doc, "error");
  status.score = optional_int(doc, "score", -1);
  status.resumed_row = optional_int(doc, "resumed_row", -1);
  // The nested run report round-trips as text so the client can pretty-
  // print or archive it without knowing its schema.
  if (const base::json::Value* result = doc.find("result")) {
    if (!result->is_object()) {
      throw ProtocolError("\"result\" must be an object");
    }
    status.result_json = base::json::dump(*result);
  }
  return status;
}

std::string encode_progress(const ProgressUpdate& update) {
  base::JsonWriter w;
  w.begin_object(base::JsonWriter::kCompact);
  w.key("job_id").value(update.job_id);
  w.key("completed_units").value(update.completed_units);
  w.key("total_units").value(update.total_units);
  w.key("restarts").value(update.restarts);
  w.end_object();
  return w.str();
}

ProgressUpdate decode_progress(const std::string& body) {
  const base::json::Value doc = parse_body(body);
  if (!doc.is_object()) {
    throw ProtocolError("progress body must be an object");
  }
  ProgressUpdate update;
  update.job_id = require_int(doc, "job_id");
  update.completed_units = require_int(doc, "completed_units");
  update.total_units = require_int(doc, "total_units");
  update.restarts = static_cast<int>(optional_int(doc, "restarts", 0));
  return update;
}

std::string encode_shutdown(bool drain) {
  base::JsonWriter w;
  w.begin_object(base::JsonWriter::kCompact);
  w.key("drain").value(drain);
  w.end_object();
  return w.str();
}

bool decode_shutdown_drain(const std::string& body) {
  if (body.empty()) return false;
  const base::json::Value doc = parse_body(body);
  if (!doc.is_object()) throw ProtocolError("body must be an object");
  const base::json::Value* drain = doc.find("drain");
  if (drain == nullptr) return false;
  if (drain->type != base::json::Value::kBool) {
    throw ProtocolError("\"drain\" must be a boolean");
  }
  return drain->boolean;
}

std::string encode_error(const std::string& code,
                         const std::string& message) {
  base::JsonWriter w;
  w.begin_object(base::JsonWriter::kCompact);
  w.key("code").value(code);
  w.key("message").value(message);
  w.end_object();
  return w.str();
}

void throw_decoded_error(const std::string& body) {
  std::string code = "internal";
  std::string message = "unspecified server error";
  try {
    const base::json::Value doc = parse_body(body);
    if (doc.is_object()) {
      code = optional_string(doc, "code");
      message = optional_string(doc, "message");
    }
  } catch (const ProtocolError&) {
    // An unparseable ERROR body still surfaces as a ServeError.
  }
  throw ServeError(code, message);
}

void send_message(comm::TcpStream& stream, FrameType type,
                  const std::string& body) {
  comm::MessageFrame frame;
  frame.type = static_cast<std::uint8_t>(type);
  frame.body.assign(body.begin(), body.end());
  stream.send_frame(comm::serialize_message(frame));
}

std::optional<Message> recv_message(comm::TcpStream& stream) {
  std::optional<std::vector<std::uint8_t>> raw = stream.recv_frame();
  if (!raw.has_value()) return std::nullopt;
  const comm::MessageFrame frame =
      comm::deserialize_message(raw->data(), raw->size());
  if (frame.type < static_cast<std::uint8_t>(FrameType::kSubmit) ||
      frame.type > static_cast<std::uint8_t>(FrameType::kShutdownOk)) {
    throw ProtocolError("unknown frame type " +
                        std::to_string(static_cast<int>(frame.type)));
  }
  Message message;
  message.type = static_cast<FrameType>(frame.type);
  message.body.assign(frame.body.begin(), frame.body.end());
  return message;
}

}  // namespace mgpusw::serve
