#include "serve/journal.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <utility>

#include "base/crc32.hpp"
#include "base/error.hpp"
#include "base/json.hpp"
#include "base/log.hpp"

namespace mgpusw::serve {

namespace {

constexpr char kMagic[8] = {'M', 'G', 'J', 'L', 1, 0, 0, 0};
/// A single record is one JSON object; anything claiming to be larger
/// than this is a torn length word, not a record.
constexpr std::uint32_t kMaxRecordBytes = 64u << 20;

struct RecordFrame {
  std::uint32_t length;
  std::uint32_t crc;
};

const char* kind_name(JournalRecord::Kind kind) {
  switch (kind) {
    case JournalRecord::Kind::kSubmit: return "submit";
    case JournalRecord::Kind::kStart: return "start";
    case JournalRecord::Kind::kCancel: return "cancel";
    case JournalRecord::Kind::kCheckpoint: return "checkpoint";
    case JournalRecord::Kind::kDone: return "done";
    case JournalRecord::Kind::kFailed: return "failed";
    case JournalRecord::Kind::kCancelled: return "cancelled";
  }
  return "unknown";
}

JournalRecord::Kind kind_from_name(std::string_view name) {
  if (name == "submit") return JournalRecord::Kind::kSubmit;
  if (name == "start") return JournalRecord::Kind::kStart;
  if (name == "cancel") return JournalRecord::Kind::kCancel;
  if (name == "checkpoint") return JournalRecord::Kind::kCheckpoint;
  if (name == "done") return JournalRecord::Kind::kDone;
  if (name == "failed") return JournalRecord::Kind::kFailed;
  if (name == "cancelled") return JournalRecord::Kind::kCancelled;
  throw ProtocolError("unknown journal record kind \"" +
                      std::string(name) + "\"");
}

std::string require_string(const base::json::Value& object,
                           std::string_view key) {
  const base::json::Value* member = object.find(key);
  if (member == nullptr || !member->is_string()) {
    throw ProtocolError("journal record needs string \"" +
                        std::string(key) + "\"");
  }
  return member->string;
}

std::int64_t require_int(const base::json::Value& object,
                         std::string_view key) {
  const base::json::Value* member = object.find(key);
  if (member == nullptr || !member->is_number()) {
    throw ProtocolError("journal record needs number \"" +
                        std::string(key) + "\"");
  }
  return member->as_int();
}

std::int64_t optional_int(const base::json::Value& object,
                          std::string_view key, std::int64_t fallback) {
  const base::json::Value* member = object.find(key);
  if (member == nullptr) return fallback;
  if (!member->is_number()) {
    throw ProtocolError("journal \"" + std::string(key) +
                        "\" must be a number");
  }
  return member->as_int();
}

std::string optional_string(const base::json::Value& object,
                            std::string_view key) {
  const base::json::Value* member = object.find(key);
  if (member == nullptr) return {};
  if (!member->is_string()) {
    throw ProtocolError("journal \"" + std::string(key) +
                        "\" must be a string");
  }
  return member->string;
}

}  // namespace

std::string encode_record(const JournalRecord& record) {
  base::JsonWriter w;
  w.begin_object(base::JsonWriter::kCompact);
  w.key("kind").value(kind_name(record.kind));
  w.key("job_id").value(record.job_id);
  switch (record.kind) {
    case JournalRecord::Kind::kSubmit:
      w.key("spec").raw_value(encode_submit(record.spec));
      break;
    case JournalRecord::Kind::kStart:
    case JournalRecord::Kind::kCancel:
    case JournalRecord::Kind::kCancelled:
      break;
    case JournalRecord::Kind::kCheckpoint:
      w.key("row").value(record.row);
      w.key("best_score").value(record.best_score);
      w.key("best_row").value(record.best_row);
      w.key("best_col").value(record.best_col);
      break;
    case JournalRecord::Kind::kDone:
    case JournalRecord::Kind::kFailed:
      w.key("restarts").value(record.restarts);
      w.key("lost").begin_array(base::JsonWriter::kCompact);
      for (const std::string& name : record.lost_devices) w.value(name);
      w.end_array();
      if (record.resumed_row >= 0) {
        w.key("resumed_row").value(record.resumed_row);
      }
      if (record.kind == JournalRecord::Kind::kDone) {
        w.key("score").value(record.score);
        if (!record.result_json.empty()) {
          w.key("result").raw_value(record.result_json);
        }
      } else {
        w.key("error").value(record.error);
      }
      break;
  }
  w.end_object();
  return w.str();
}

JournalRecord decode_record(const std::string& payload) {
  base::json::Value doc;
  try {
    doc = base::json::parse(payload);
  } catch (const InvalidArgument& e) {
    throw ProtocolError(std::string("malformed journal record: ") +
                        e.what());
  }
  if (!doc.is_object()) {
    throw ProtocolError("journal record must be an object");
  }
  JournalRecord record;
  record.kind = kind_from_name(require_string(doc, "kind"));
  record.job_id = require_int(doc, "job_id");
  switch (record.kind) {
    case JournalRecord::Kind::kSubmit: {
      const base::json::Value* spec = doc.find("spec");
      if (spec == nullptr || !spec->is_object()) {
        throw ProtocolError("journal submit record needs \"spec\"");
      }
      record.spec = decode_submit_fields(base::json::dump(*spec));
      break;
    }
    case JournalRecord::Kind::kStart:
    case JournalRecord::Kind::kCancel:
    case JournalRecord::Kind::kCancelled:
      break;
    case JournalRecord::Kind::kCheckpoint:
      record.row = require_int(doc, "row");
      record.best_score = require_int(doc, "best_score");
      record.best_row = optional_int(doc, "best_row", -1);
      record.best_col = optional_int(doc, "best_col", -1);
      break;
    case JournalRecord::Kind::kDone:
    case JournalRecord::Kind::kFailed:
      record.restarts =
          static_cast<int>(optional_int(doc, "restarts", 0));
      if (const base::json::Value* lost = doc.find("lost")) {
        if (!lost->is_array()) {
          throw ProtocolError("journal \"lost\" must be an array");
        }
        for (const base::json::Value& name : lost->array) {
          if (!name.is_string()) {
            throw ProtocolError("journal \"lost\" entries must be strings");
          }
          record.lost_devices.push_back(name.string);
        }
      }
      record.resumed_row = optional_int(doc, "resumed_row", -1);
      if (record.kind == JournalRecord::Kind::kDone) {
        record.score = require_int(doc, "score");
        if (const base::json::Value* result = doc.find("result")) {
          if (!result->is_object()) {
            throw ProtocolError("journal \"result\" must be an object");
          }
          record.result_json = base::json::dump(*result);
        }
      } else {
        record.error = optional_string(doc, "error");
      }
      break;
  }
  return record;
}

JobJournal::JobJournal(std::string directory, bool fsync_each)
    : directory_(std::move(directory)), fsync_each_(fsync_each) {
  MGPUSW_REQUIRE(!directory_.empty(),
                 "journal directory must be non-empty");
  std::filesystem::create_directories(directory_);
}

JobJournal::~JobJournal() {
  if (fd_ >= 0) ::close(fd_);
}

std::string JobJournal::job_checkpoint_dir(std::int64_t job_id) const {
  const std::string dir =
      directory_ + "/jobs/job_" + std::to_string(job_id);
  std::filesystem::create_directories(dir);
  return dir;
}

void JobJournal::remove_job_checkpoints(std::int64_t job_id) const {
  std::error_code error;
  std::filesystem::remove_all(
      directory_ + "/jobs/job_" + std::to_string(job_id), error);
  if (error) {
    // The terminal record is already durable; a leftover directory only
    // costs disk, so report it and carry on.
    MGPUSW_LOG(kWarn) << "journal: cannot remove checkpoints of job "
                      << job_id << ": " << error.message();
  }
}

void JobJournal::write_header(int fd) const {
  if (::write(fd, kMagic, sizeof(kMagic)) !=
      static_cast<ssize_t>(sizeof(kMagic))) {
    throw IoError("cannot write journal header in " + directory_);
  }
}

void JobJournal::open_for_append() {
  const std::string path = directory_ + "/journal.log";
  fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT, 0644);
  if (fd_ < 0) throw IoError("cannot open journal " + path);
}

ReplayResult JobJournal::replay() {
  std::lock_guard lock(mu_);
  MGPUSW_REQUIRE(!replayed_, "journal already replayed");
  const std::string path = directory_ + "/journal.log";
  ReplayResult out;

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    // Fresh journal: create the log with its header.
    const int create =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (create < 0) throw IoError("cannot create journal " + path);
    write_header(create);
    if (fsync_each_) ::fdatasync(create);
    ::close(create);
    open_for_append();
    replayed_ = true;
    return out;
  }

  // Sequential scan: every record must frame, CRC and parse; the log's
  // content is the longest prefix that does. good_end chases it.
  char magic[sizeof(kMagic)];
  const ssize_t header_read = ::read(fd, magic, sizeof(magic));
  std::int64_t good_end = 0;
  bool header_ok = header_read == static_cast<ssize_t>(sizeof(magic)) &&
                   std::memcmp(magic, kMagic, 4) == 0;
  if (header_read >= 4 && std::memcmp(magic, kMagic, 4) != 0) {
    ::close(fd);
    throw IoError(path + " is not a journal (bad magic)");
  }
  std::map<std::int64_t, std::size_t> by_id;
  if (header_ok) {
    good_end = sizeof(kMagic);
    for (;;) {
      RecordFrame frame;
      const ssize_t n = ::read(fd, &frame, sizeof(frame));
      if (n != static_cast<ssize_t>(sizeof(frame))) break;
      if (frame.length == 0 || frame.length > kMaxRecordBytes) break;
      std::string payload(frame.length, '\0');
      if (::read(fd, payload.data(), frame.length) !=
          static_cast<ssize_t>(frame.length)) {
        break;
      }
      if (base::crc32(payload.data(), payload.size()) != frame.crc) break;
      JournalRecord record;
      try {
        record = decode_record(payload);
      } catch (const ProtocolError&) {
        break;
      }
      good_end += static_cast<std::int64_t>(sizeof(frame) + frame.length);
      ++out.records;
      if (record.job_id >= out.next_job_id) {
        out.next_job_id = record.job_id + 1;
      }

      // Fold the record into per-job replay state (newest fact wins).
      auto it = by_id.find(record.job_id);
      if (record.kind == JournalRecord::Kind::kSubmit) {
        if (it == by_id.end()) {
          by_id[record.job_id] = out.jobs.size();
          ReplayedJob job;
          job.job_id = record.job_id;
          job.spec = record.spec;
          out.jobs.push_back(std::move(job));
        } else {
          out.jobs[it->second].spec = record.spec;
        }
        continue;
      }
      if (it == by_id.end()) continue;  // orphan: submit was lost
      ReplayedJob& job = out.jobs[it->second];
      switch (record.kind) {
        case JournalRecord::Kind::kStart:
          job.started = true;
          break;
        case JournalRecord::Kind::kCancel:
          job.cancel_requested = true;
          break;
        case JournalRecord::Kind::kCheckpoint:
          job.checkpoint_row = record.row;
          job.best_score = record.best_score;
          job.best_row = record.best_row;
          job.best_col = record.best_col;
          break;
        case JournalRecord::Kind::kDone:
        case JournalRecord::Kind::kFailed:
        case JournalRecord::Kind::kCancelled:
          job.terminal = true;
          job.outcome = record;
          break;
        case JournalRecord::Kind::kSubmit:
          break;  // handled above
      }
    }
  }
  struct stat st {};
  const std::int64_t file_size =
      ::fstat(fd, &st) == 0 ? static_cast<std::int64_t>(st.st_size) : 0;
  ::close(fd);

  if (!header_ok && file_size > 0) {
    // A header torn mid-write: nothing after it is trustworthy, but
    // nothing after it exists either (the header is the first write).
    out.truncated_bytes = file_size;
    const int create =
        ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (create < 0) throw IoError("cannot recreate journal " + path);
    write_header(create);
    ::close(create);
  } else if (file_size > good_end) {
    out.truncated_bytes = file_size - good_end;
    MGPUSW_LOG(kWarn) << "journal: truncating " << out.truncated_bytes
                      << " torn tail byte(s) from " << path;
    if (::truncate(path.c_str(), static_cast<off_t>(good_end)) != 0) {
      throw IoError("cannot truncate torn journal tail in " + path);
    }
  }

  open_for_append();
  replayed_ = true;
  return out;
}

void JobJournal::append(const JournalRecord& record) {
  const std::string payload = encode_record(record);
  MGPUSW_CHECK(payload.size() <= kMaxRecordBytes);
  std::string buffer(sizeof(RecordFrame) + payload.size(), '\0');
  RecordFrame frame;
  frame.length = static_cast<std::uint32_t>(payload.size());
  frame.crc = base::crc32(payload.data(), payload.size());
  std::memcpy(buffer.data(), &frame, sizeof(frame));
  std::memcpy(buffer.data() + sizeof(frame), payload.data(),
              payload.size());

  std::lock_guard lock(mu_);
  MGPUSW_REQUIRE(replayed_, "journal must be replayed before appending");
  // One write() per record: a crash can tear this record but cannot
  // interleave two, so replay's prefix discipline holds.
  if (::write(fd_, buffer.data(), buffer.size()) !=
      static_cast<ssize_t>(buffer.size())) {
    throw IoError("journal append failed in " + directory_);
  }
  if (fsync_each_) ::fdatasync(fd_);
  ++appends_;
  ++appends_since_compact_;
}

void JobJournal::compact(const std::vector<JournalRecord>& snapshot) {
  std::size_t next = 0;
  compact([&snapshot, &next](JournalRecord& record) {
    if (next == snapshot.size()) return false;
    record = snapshot[next++];
    return true;
  });
}

void JobJournal::compact(const std::function<bool(JournalRecord&)>& next) {
  std::lock_guard lock(mu_);
  MGPUSW_REQUIRE(replayed_, "journal must be replayed before compacting");
  const std::string path = directory_ + "/journal.log";
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw IoError("cannot open " + tmp);
  try {
    write_header(fd);
    JournalRecord record;
    while (next(record)) {
      const std::string payload = encode_record(record);
      RecordFrame frame;
      frame.length = static_cast<std::uint32_t>(payload.size());
      frame.crc = base::crc32(payload.data(), payload.size());
      std::string buffer(sizeof(frame) + payload.size(), '\0');
      std::memcpy(buffer.data(), &frame, sizeof(frame));
      std::memcpy(buffer.data() + sizeof(frame), payload.data(),
                  payload.size());
      if (::write(fd, buffer.data(), buffer.size()) !=
          static_cast<ssize_t>(buffer.size())) {
        throw IoError("cannot write compacted journal " + tmp);
      }
    }
    // The rename is only atomic-durable if the new content is on disk
    // first; a compaction that loses the log would defeat the journal.
    if (::fsync(fd) != 0) throw IoError("cannot fsync " + tmp);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    // The old log is still intact; reopen it and keep appending.
    open_for_append();
    throw IoError("cannot rename compacted journal over " + path);
  }
  open_for_append();
  ++compactions_;
  appends_since_compact_ = 0;
}

std::int64_t JobJournal::appends() const {
  std::lock_guard lock(mu_);
  return appends_;
}

std::int64_t JobJournal::appends_since_compact() const {
  std::lock_guard lock(mu_);
  return appends_since_compact_;
}

std::int64_t JobJournal::compactions() const {
  std::lock_guard lock(mu_);
  return compactions_;
}

}  // namespace mgpusw::serve
