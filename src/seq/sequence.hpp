// Packed DNA sequence container.
//
// Megabase comparisons keep two chromosomes resident; 2-bit packing keeps
// a 64 Mbp chromosome in 16 MiB. Random access decodes one base with a
// shift+mask; the inner DP kernels read bases through unpacked row/column
// caches (see sw::BlockKernel), so packed access is never on the critical
// path of a block.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "base/error.hpp"
#include "seq/alphabet.hpp"

namespace mgpusw::seq {

class Sequence {
 public:
  Sequence() = default;

  /// Builds a named sequence from characters; non-ACGT characters are
  /// resolved deterministically per position (see resolve_ambiguous) and
  /// counted in ambiguous_count().
  Sequence(std::string name, std::string_view bases);

  /// Builds from already-encoded nucleotides.
  Sequence(std::string name, const std::vector<Nt>& bases);

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Replaces the record name (contents unchanged).
  void rename(std::string name) { name_ = std::move(name); }
  [[nodiscard]] std::int64_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::int64_t ambiguous_count() const { return ambiguous_; }

  /// Base at position i (0-based).
  [[nodiscard]] Nt at(std::int64_t i) const {
    const std::uint64_t word = words_[static_cast<std::size_t>(i >> 5)];
    return static_cast<Nt>((word >> ((i & 31) * 2)) & 3);
  }

  /// Decodes [first, first+count) into out (must hold count entries).
  void extract(std::int64_t first, std::int64_t count, Nt* out) const;

  /// Decodes the whole sequence to an ACGT string (small sequences only).
  [[nodiscard]] std::string to_string() const;

  /// Copy of the subrange [first, first+count) as a new unnamed sequence.
  [[nodiscard]] Sequence subsequence(std::int64_t first,
                                     std::int64_t count) const;

  /// Count of each base, indexed by Nt code.
  [[nodiscard]] std::array<std::int64_t, 4> composition() const;

  /// Memory footprint of the packed payload in bytes.
  [[nodiscard]] std::int64_t packed_bytes() const {
    return static_cast<std::int64_t>(words_.size() * sizeof(std::uint64_t));
  }

  bool operator==(const Sequence& other) const;

 private:
  void append(Nt base);
  void reserve_bases(std::int64_t count);

  std::string name_;
  std::vector<std::uint64_t> words_;  // 32 bases per word, LSB-first
  std::int64_t size_ = 0;
  std::int64_t ambiguous_ = 0;
};

}  // namespace mgpusw::seq
