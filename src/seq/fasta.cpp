#include "seq/fasta.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "base/error.hpp"

namespace mgpusw::seq {

namespace {

bool is_iupac_or_base(char c) {
  switch (std::toupper(static_cast<unsigned char>(c))) {
    case 'A': case 'C': case 'G': case 'T':
    case 'N': case 'R': case 'Y': case 'S': case 'W':
    case 'K': case 'M': case 'B': case 'D': case 'H': case 'V':
    case 'U':  // RNA uracil, treated as T's ambiguity-free sibling
      return true;
    default:
      return false;
  }
}

}  // namespace

std::vector<Sequence> read_fasta(std::istream& in) {
  std::vector<Sequence> records;
  std::string name;
  std::string bases;
  bool have_record = false;
  std::int64_t line_number = 0;

  auto flush = [&] {
    if (have_record) {
      records.emplace_back(name, bases);
      bases.clear();
    }
  };

  std::string line;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (line[0] == '>') {
      flush();
      have_record = true;
      // The record name is the first token; the rest is description.
      const std::size_t name_end = line.find_first_of(" \t", 1);
      name = line.substr(1, name_end == std::string::npos
                                ? std::string::npos
                                : name_end - 1);
      continue;
    }
    if (line[0] == ';') continue;  // classic FASTA comment line
    if (!have_record) {
      throw IoError("FASTA: sequence data before first '>' header at line " +
                    std::to_string(line_number));
    }
    for (const char c : line) {
      if (std::isspace(static_cast<unsigned char>(c))) continue;
      if (!is_iupac_or_base(c)) {
        throw IoError(std::string("FASTA: illegal character '") + c +
                      "' at line " + std::to_string(line_number));
      }
      // 'U' behaves like 'T'; everything else non-strict is ambiguous and
      // resolved by Sequence's constructor.
      bases.push_back(std::toupper(static_cast<unsigned char>(c)) == 'U'
                          ? 'T'
                          : c);
    }
  }
  flush();
  return records;
}

std::vector<Sequence> read_fasta_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open FASTA file: " + path);
  return read_fasta(in);
}

void write_fasta(std::ostream& out, const std::vector<Sequence>& records,
                 int line_width) {
  MGPUSW_REQUIRE(line_width > 0, "line width must be positive");
  for (const Sequence& record : records) {
    out << '>' << record.name() << '\n';
    const std::int64_t n = record.size();
    std::string line;
    line.reserve(static_cast<std::size_t>(line_width));
    for (std::int64_t i = 0; i < n; i += line_width) {
      line.clear();
      const std::int64_t count = std::min<std::int64_t>(line_width, n - i);
      for (std::int64_t j = 0; j < count; ++j) {
        line.push_back(to_char(record.at(i + j)));
      }
      out << line << '\n';
    }
  }
}

}  // namespace mgpusw::seq
