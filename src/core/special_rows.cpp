#include "core/special_rows.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "base/crc32.hpp"
#include "base/error.hpp"
#include "base/log.hpp"

namespace mgpusw::core {

namespace {

struct RecordHeader {
  std::int64_t first_col;
  std::int64_t count;
  std::int64_t has_f;  // 1 when an F payload follows the H payload
  std::uint32_t crc;   // CRC-32 over the H payload then the F payload
  std::uint32_t reserved = 0;
};

/// CRC over a record's payloads in file order (H bytes, then F bytes).
std::uint32_t payload_crc(const std::vector<sw::Score>& h,
                          const std::vector<sw::Score>& f) {
  std::uint32_t crc =
      base::crc32_update(0, h.data(), h.size() * sizeof(sw::Score));
  return base::crc32_update(crc, f.data(), f.size() * sizeof(sw::Score));
}

/// The one parser of the spill format. Reads `in`'s records in order,
/// handing each intact one to visit(first_col, h, f), until the end of
/// the file or the first record that is torn, claims more payload than
/// the file has left, or fails its CRC. Returns that record's fault
/// ("" when every record parsed) and leaves in `intact_bytes` where the
/// intact prefix ends. A header's count is checked against the bytes
/// left before anything is allocated, so a corrupt count cannot ask for
/// more memory than the file holds.
template <typename Visit>
std::string read_records(std::istream& in, std::int64_t& intact_bytes,
                         Visit&& visit) {
  in.seekg(0, std::ios::end);
  const std::int64_t size = in.tellg();
  in.seekg(0);
  intact_bytes = 0;
  constexpr auto kHeaderBytes =
      static_cast<std::int64_t>(sizeof(RecordHeader));
  constexpr auto kScoreBytes = static_cast<std::int64_t>(sizeof(sw::Score));
  while (intact_bytes < size) {
    RecordHeader header;
    if (size - intact_bytes < kHeaderBytes ||
        !in.read(reinterpret_cast<char*>(&header), sizeof(header))) {
      return "truncated spill record header";
    }
    if (header.count < 0 || header.first_col < 0) {
      return "corrupt spill record header";
    }
    const std::int64_t payloads = header.has_f != 0 ? 2 : 1;
    const std::int64_t left = size - intact_bytes - kHeaderBytes;
    if (header.count > left / kScoreBytes / payloads) {
      return "truncated spill record (" + std::to_string(header.count) +
             " values, " + std::to_string(left) + " bytes left)";
    }
    std::vector<sw::Score> h(static_cast<std::size_t>(header.count));
    std::vector<sw::Score> f(
        static_cast<std::size_t>(header.has_f != 0 ? header.count : 0));
    in.read(reinterpret_cast<char*>(h.data()),
            static_cast<std::streamsize>(h.size() * sizeof(sw::Score)));
    in.read(reinterpret_cast<char*>(f.data()),
            static_cast<std::streamsize>(f.size() * sizeof(sw::Score)));
    if (!in) return "error reading spill record";
    if (payload_crc(h, f) != header.crc) {
      return "checksum mismatch (segment at column " +
             std::to_string(header.first_col) + ")";
    }
    intact_bytes += kHeaderBytes + header.count * payloads * kScoreBytes;
    visit(header.first_col, std::move(h), std::move(f));
  }
  return {};
}

}  // namespace

SpecialRowStore::SpecialRowStore(std::string directory)
    : directory_(std::move(directory)) {
  MGPUSW_REQUIRE(!directory_.empty(), "spill directory must be non-empty");
}

std::string SpecialRowStore::row_path(std::int64_t row) const {
  return directory_ + "/row_" + std::to_string(row) + ".srw";
}

void SpecialRowStore::append_to_disk(std::int64_t row,
                                     std::int64_t first_col,
                                     const std::vector<sw::Score>& h,
                                     const std::vector<sw::Score>& f) {
  std::ofstream out(row_path(row), std::ios::binary | std::ios::app);
  if (!out) throw IoError("cannot open spill file " + row_path(row));
  const RecordHeader header{first_col,
                            static_cast<std::int64_t>(h.size()),
                            f.empty() ? 0 : 1, payload_crc(h, f)};
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(reinterpret_cast<const char*>(h.data()),
            static_cast<std::streamsize>(h.size() * sizeof(sw::Score)));
  if (!f.empty()) {
    out.write(reinterpret_cast<const char*>(f.data()),
              static_cast<std::streamsize>(f.size() * sizeof(sw::Score)));
  }
  if (!out) throw IoError("error writing spill file " + row_path(row));
}

std::vector<SpecialRowStore::Segment> SpecialRowStore::read_from_disk(
    std::int64_t row) const {
  std::ifstream in(row_path(row), std::ios::binary);
  if (!in) throw IoError("cannot open spill file " + row_path(row));
  std::vector<Segment> segments;
  std::int64_t intact_bytes = 0;
  const std::string fault = read_records(
      in, intact_bytes,
      [&](std::int64_t first_col, std::vector<sw::Score> h,
          std::vector<sw::Score> f) {
        segments.push_back(Segment{first_col, std::move(h), std::move(f)});
      });
  if (!fault.empty()) throw IoError(fault + " in " + row_path(row));
  return segments;
}

void SpecialRowStore::save_segment(std::int64_t row, std::int64_t first_col,
                                   std::vector<sw::Score> h,
                                   std::vector<sw::Score> f) {
  MGPUSW_REQUIRE(row >= 0, "row must be non-negative");
  MGPUSW_REQUIRE(first_col >= 0, "first_col must be non-negative");
  MGPUSW_REQUIRE(f.empty() || f.size() == h.size(),
                 "F payload must be empty or match the H payload size");
  std::lock_guard lock(mu_);
  const auto payload = static_cast<std::int64_t>(
      (h.size() + f.size()) * sizeof(sw::Score));
  bytes_ += payload;
  if (spills_to_disk()) {
    // First segment of a row after clear(): truncate any stale file.
    if (disk_rows_.find(row) == disk_rows_.end()) {
      std::remove(row_path(row).c_str());
    }
    append_to_disk(row, first_col, h, f);
    disk_rows_[row] += payload;
  } else {
    rows_[row].push_back(Segment{first_col, std::move(h), std::move(f)});
  }
}

std::vector<std::int64_t> SpecialRowStore::rows() const {
  std::lock_guard lock(mu_);
  std::vector<std::int64_t> out;
  if (spills_to_disk()) {
    out.reserve(disk_rows_.size());
    for (const auto& [row, bytes] : disk_rows_) out.push_back(row);
  } else {
    out.reserve(rows_.size());
    for (const auto& [row, segments] : rows_) out.push_back(row);
  }
  return out;
}

std::vector<SpecialRowStore::Segment> SpecialRowStore::row_segments(
    std::int64_t row) const {
  if (spills_to_disk()) {
    MGPUSW_CHECK_MSG(disk_rows_.find(row) != disk_rows_.end(),
                     "special row " << row << " not saved");
    return read_from_disk(row);
  }
  const auto it = rows_.find(row);
  MGPUSW_CHECK_MSG(it != rows_.end(), "special row " << row << " not saved");
  return it->second;
}

std::vector<sw::Score> SpecialRowStore::assemble(
    std::int64_t row, std::int64_t expected_cols, bool want_f) const {
  std::lock_guard lock(mu_);
  // A resumed run re-saves the segments of rows it recomputes; the
  // latest write wins (CUDAlign overwrites its special-row files too).
  std::map<std::int64_t, Segment> by_col;
  std::vector<Segment> raw = row_segments(row);
  for (Segment& segment : raw) {
    by_col[segment.first_col] = std::move(segment);
  }
  std::vector<Segment> segments;
  segments.reserve(by_col.size());
  for (auto& [col, segment] : by_col) {
    segments.push_back(std::move(segment));
  }
  std::vector<sw::Score> out;
  out.reserve(static_cast<std::size_t>(expected_cols));
  std::int64_t next = 0;
  for (const Segment& segment : segments) {
    MGPUSW_CHECK_MSG(segment.first_col == next,
                     "special row " << row << " has a gap at column "
                                    << next);
    const std::vector<sw::Score>& payload =
        want_f ? segment.f : segment.h;
    MGPUSW_CHECK_MSG(!want_f || segment.f.size() == segment.h.size(),
                     "special row " << row
                                    << " was saved without F data; it "
                                       "cannot seed a restart");
    out.insert(out.end(), payload.begin(), payload.end());
    next += static_cast<std::int64_t>(segment.h.size());
  }
  MGPUSW_CHECK_MSG(next == expected_cols,
                   "special row " << row << " covers " << next
                                  << " columns, expected " << expected_cols);
  return out;
}

std::vector<sw::Score> SpecialRowStore::assemble_row(
    std::int64_t row, std::int64_t expected_cols) const {
  return assemble(row, expected_cols, /*want_f=*/false);
}

std::vector<sw::Score> SpecialRowStore::assemble_row_f(
    std::int64_t row, std::int64_t expected_cols) const {
  return assemble(row, expected_cols, /*want_f=*/true);
}

std::int64_t SpecialRowStore::last_restartable_row(
    std::int64_t expected_cols, std::int64_t limit_row) const {
  const std::vector<std::int64_t> saved = rows();
  for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
    if (*it >= limit_row) continue;
    try {
      (void)assemble_row_f(*it, expected_cols);
      return *it;
    } catch (const Error& e) {
      // Incomplete, F-less, or failing its CRC: fall back to an older
      // checkpoint instead of aborting the whole recovery. Incomplete
      // rows are normal after a device loss, so this is a debug note,
      // not a warning.
      MGPUSW_LOG(kDebug) << "skipping special row " << *it << ": "
                         << e.what();
    }
  }
  return -1;
}

SpecialRowStore::RecoveryReport SpecialRowStore::recover_existing() {
  MGPUSW_REQUIRE(spills_to_disk(),
                 "recover_existing applies to disk-spilling stores only");
  std::lock_guard lock(mu_);
  MGPUSW_REQUIRE(disk_rows_.empty(),
                 "recover_existing must run before any save_segment");
  RecoveryReport report;
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(directory_, ec)) {
    const std::string name = entry.path().filename().string();
    // Only row_<digits>.srw files belong to the store.
    if (name.size() <= 8 || name.rfind("row_", 0) != 0 ||
        name.substr(name.size() - 4) != ".srw") {
      continue;
    }
    const std::string digits = name.substr(4, name.size() - 8);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    const std::int64_t row = std::stoll(digits);

    // Keep the longest prefix of intact records; anything past it is
    // torn.
    const std::string path = entry.path().string();
    std::ifstream in(path, std::ios::binary);
    if (!in) continue;
    std::int64_t good_end = 0;
    std::int64_t payload_bytes = 0;
    std::int64_t segments = 0;
    (void)read_records(in, good_end,
                       [&](std::int64_t, const std::vector<sw::Score>& h,
                           const std::vector<sw::Score>& f) {
                         payload_bytes += static_cast<std::int64_t>(
                             (h.size() + f.size()) * sizeof(sw::Score));
                         ++segments;
                       });
    in.close();

    const std::int64_t file_size = static_cast<std::int64_t>(
        fs::file_size(fs::path(path), ec));
    if (!ec && file_size > good_end) {
      report.truncated_bytes += file_size - good_end;
      if (good_end == 0) {
        fs::remove(fs::path(path), ec);
      } else {
        fs::resize_file(fs::path(path),
                        static_cast<std::uintmax_t>(good_end), ec);
      }
    }
    if (good_end == 0) continue;
    disk_rows_[row] = payload_bytes;
    bytes_ += payload_bytes;
    ++report.rows;
    report.segments += segments;
  }
  return report;
}

std::int64_t SpecialRowStore::bytes() const {
  std::lock_guard lock(mu_);
  return bytes_;
}

void SpecialRowStore::clear() {
  std::lock_guard lock(mu_);
  if (spills_to_disk()) {
    for (const auto& [row, bytes] : disk_rows_) {
      std::remove(row_path(row).c_str());
    }
    disk_rows_.clear();
  }
  rows_.clear();
  bytes_ = 0;
}

}  // namespace mgpusw::core
