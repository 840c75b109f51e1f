// Independent correctness oracle: a plain Gotoh local-alignment scorer.
//
// Written apart from the program's src/sw kernels on purpose — it shares
// no code with them, only the scoring parameters of the run it checks.
// One full-matrix sweep in linear memory, row by row:
//
//   F(i,j) = max(F(i-1,j) - ext, H(i-1,j) - open - ext)   vertical gap
//   E(i,j) = max(E(i,j-1) - ext, H(i,j-1) - open - ext)   horizontal gap
//   H(i,j) = max(0, H(i-1,j-1) + s(q_i, t_j), E(i,j), F(i,j))
//
// Tie-break (the program's documented order): highest score, then lowest
// row, then lowest column. The sweep moves the best only to a row whose
// maximum is strictly higher, and then to that row's first column holding
// it, which keeps exactly that cell.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

struct OracleScheme {
  int match = 1;
  int mismatch = -3;
  int gap_open = 3;    // extra cost of opening a gap
  int gap_extend = 2;  // cost per gap character
};

struct OracleResult {
  int score = 0;
  std::int64_t end_row = -1;  // 0-based query index; -1 when score == 0
  std::int64_t end_col = -1;  // 0-based subject index
};

/// Bases are codes 0..3 (A, C, G, T).
[[nodiscard]] OracleResult oracle_score(const std::vector<std::uint8_t>& query,
                                        const std::vector<std::uint8_t>& subject,
                                        const OracleScheme& scheme);

}  // namespace perfbench
