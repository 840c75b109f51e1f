// DNA alphabet: 2-bit nucleotide codes and conversions.
//
// The engine compares DNA only (as in the paper); the four bases are
// packed 2 bits each. IUPAC ambiguity codes and 'N' runs that appear in
// real chromosome files are resolved deterministically (seeded by
// position) so a FASTA file always loads to the same packed sequence.
#pragma once

#include <cstdint>

namespace mgpusw::seq {

/// 2-bit nucleotide code.
enum class Nt : std::uint8_t { A = 0, C = 1, G = 2, T = 3 };

constexpr int kAlphabetSize = 4;

/// Code -> character ('A','C','G','T').
[[nodiscard]] constexpr char to_char(Nt base) {
  constexpr char table[] = {'A', 'C', 'G', 'T'};
  return table[static_cast<std::uint8_t>(base)];
}

/// Whether c is one of acgtACGT.
[[nodiscard]] constexpr bool is_strict_base(char c) {
  switch (c) {
    case 'A': case 'C': case 'G': case 'T':
    case 'a': case 'c': case 'g': case 't':
      return true;
    default:
      return false;
  }
}

/// Strict character -> code; precondition: is_strict_base(c).
[[nodiscard]] constexpr Nt from_char(char c) {
  switch (c) {
    case 'A': case 'a': return Nt::A;
    case 'C': case 'c': return Nt::C;
    case 'G': case 'g': return Nt::G;
    case 'T': case 't': return Nt::T;
    default: return Nt::A;  // precondition violated; callers validate
  }
}

/// Deterministic stand-in base for an ambiguity code at a given sequence
/// position. Mixing the position through a 64-bit finalizer keeps long 'N'
/// runs from collapsing to a single letter (which would create artificial
/// perfect alignments between two masked regions).
[[nodiscard]] constexpr Nt resolve_ambiguous(std::uint64_t position) {
  std::uint64_t z = position + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<Nt>(z & 3);
}

}  // namespace mgpusw::seq
