#include "seq/sequence.hpp"

#include <algorithm>

namespace mgpusw::seq {

Sequence::Sequence(std::string name, std::string_view bases)
    : name_(std::move(name)) {
  reserve_bases(static_cast<std::int64_t>(bases.size()));
  std::uint64_t position = 0;
  for (const char c : bases) {
    if (is_strict_base(c)) {
      append(from_char(c));
    } else {
      append(resolve_ambiguous(position));
      ++ambiguous_;
    }
    ++position;
  }
}

Sequence::Sequence(std::string name, const std::vector<Nt>& bases)
    : name_(std::move(name)) {
  reserve_bases(static_cast<std::int64_t>(bases.size()));
  for (const Nt base : bases) append(base);
}

void Sequence::reserve_bases(std::int64_t count) {
  words_.reserve(static_cast<std::size_t>((count + 31) / 32));
}

void Sequence::append(Nt base) {
  const std::int64_t i = size_++;
  const std::size_t word_index = static_cast<std::size_t>(i >> 5);
  if (word_index == words_.size()) words_.push_back(0);
  words_[word_index] |= static_cast<std::uint64_t>(base) << ((i & 31) * 2);
}

void Sequence::extract(std::int64_t first, std::int64_t count,
                       Nt* out) const {
  MGPUSW_REQUIRE(first >= 0 && count >= 0 && first + count <= size_,
                 "extract range [" << first << ", " << first + count
                                   << ") out of bounds, size " << size_);
  for (std::int64_t i = 0; i < count; ++i) {
    out[i] = at(first + i);
  }
}

std::string Sequence::to_string() const {
  std::string out;
  out.reserve(static_cast<std::size_t>(size_));
  for (std::int64_t i = 0; i < size_; ++i) {
    out.push_back(to_char(at(i)));
  }
  return out;
}

Sequence Sequence::subsequence(std::int64_t first, std::int64_t count) const {
  MGPUSW_REQUIRE(first >= 0 && count >= 0 && first + count <= size_,
                 "subsequence range out of bounds");
  std::vector<Nt> bases(static_cast<std::size_t>(count));
  extract(first, count, bases.data());
  return Sequence(name_ + "[" + std::to_string(first) + ":" +
                      std::to_string(first + count) + "]",
                  bases);
}

std::array<std::int64_t, 4> Sequence::composition() const {
  std::array<std::int64_t, 4> counts{};
  for (std::int64_t i = 0; i < size_; ++i) {
    ++counts[static_cast<std::size_t>(at(i))];
  }
  return counts;
}

bool Sequence::operator==(const Sequence& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

}  // namespace mgpusw::seq
