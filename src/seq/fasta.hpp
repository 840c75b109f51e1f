// FASTA reading and writing.
//
// Supports multi-record files, arbitrary line wrapping, '>'-prefixed
// headers with description text, and IUPAC ambiguity codes (resolved
// deterministically per position — see seq/alphabet.hpp). Whitespace
// inside sequence lines is ignored; any other character is an error.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "seq/sequence.hpp"

namespace mgpusw::seq {

/// Reads every record from a FASTA stream. Throws IoError on malformed
/// input (content before the first header, illegal characters).
[[nodiscard]] std::vector<Sequence> read_fasta(std::istream& in);

/// Reads a FASTA file from disk.
[[nodiscard]] std::vector<Sequence> read_fasta_file(const std::string& path);

/// Writes records to a stream, wrapping sequence lines at line_width.
void write_fasta(std::ostream& out, const std::vector<Sequence>& records,
                 int line_width = 70);

}  // namespace mgpusw::seq
