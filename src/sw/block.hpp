// The block kernel: computes one rectangular tile of the Smith-Waterman
// matrix from its borders.
//
// This single kernel definition is consumed by every execution strategy
// in the repo — the serial linear-memory scan (one block as wide as the
// matrix), the single-device block-wavefront schedule, the multi-device
// engine (where the left border of a device's first block column arrives
// from the neighbouring device through the circular buffer), and block
// pruning (which needs the border maxima the kernel reports).
//
// Border layout (matching the paper's communication pattern):
//   * a horizontal border row carries (H, F) per column — F is the
//     vertical-gap state that crosses row boundaries;
//   * a vertical border column carries (H, E) per row — E is the
//     horizontal-gap state that crosses column boundaries; this is the
//     (H, E) pair the paper's GPUs exchange;
//   * one scalar corner H value closes the diagonal dependency.
#pragma once

#include <cstdint>

#include "seq/alphabet.hpp"
#include "sw/scoring.hpp"

namespace mgpusw::sw {

/// Inputs/outputs of one block computation. Output pointers may alias the
/// corresponding input pointers (bottom over top, right over left); the
/// kernel is written to be alias-safe, which lets callers keep one border
/// array per block row/column for the whole sweep.
struct BlockArgs {
  // Geometry: the block covers `rows` query bases and `cols` subject
  // bases; global_row/global_col locate the block's first cell in the
  // full matrix (used only to report the best-cell position).
  const seq::Nt* query = nullptr;    // rows entries
  const seq::Nt* subject = nullptr;  // cols entries
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t global_row = 0;
  std::int64_t global_col = 0;

  // Borders (see file comment). All four input arrays must be non-null;
  // for matrix-edge blocks pass zero_h / neg-inf gap values.
  const Score* top_h = nullptr;    // cols entries: H(row-1, c)
  const Score* top_f = nullptr;    // cols entries: F(row-1, c)
  const Score* left_h = nullptr;   // rows entries: H(r, col-1)
  const Score* left_e = nullptr;   // rows entries: E(r, col-1)
  Score corner_h = 0;              // H(row-1, col-1)

  // Outputs; may alias the inputs as described above.
  Score* bottom_h = nullptr;  // cols entries: H(last row, c)
  Score* bottom_f = nullptr;  // cols entries: F(last row, c)
  Score* right_h = nullptr;   // rows entries: H(r, last col)
  Score* right_e = nullptr;   // rows entries: E(r, last col)
};

/// Per-block results fed to the best-score reduction and to pruning.
struct BlockResult {
  ScoreResult best;        // best cell inside the block (global coords)
  Score border_max = 0;    // max H over the block's bottom row + right col
  /// How many times a low-precision kernel hit its saturation watermark
  /// and re-ran this block at the next wider precision (0 for the full-
  /// precision kernels). Aggregated into the `kernel.overflow_reruns`
  /// metric by the engine.
  int overflow_reruns = 0;
};

/// Computes one block. args.bottom/right receive the outgoing borders.
/// The kernel performs rows*cols cell updates with the Gotoh recurrences
/// and no allocation.
BlockResult compute_block(const ScoreScheme& scheme, const BlockArgs& args);

/// Every block kernel is a pure function of (scheme, args) with
/// compute_block's contract (sw/kernel.hpp registers them by name).
using BlockKernelFn = BlockResult (*)(const ScoreScheme& scheme,
                                      const BlockArgs& args);

/// Number of cell updates compute_block performs for this geometry.
[[nodiscard]] constexpr std::int64_t block_cells(std::int64_t rows,
                                                 std::int64_t cols) {
  return rows * cols;
}

}  // namespace mgpusw::sw
