// Inter-sequence SIMD batch kernel: one short alignment per vector lane.
//
// The intra-block kernels parallelise *inside* one huge DP matrix; for
// batches of short pairs (reads, gene-scale slices) that is the wrong
// axis — the matrices are too small to fill a wavefront, but there are
// thousands of them. This kernel packs one independent pair per lane
// (16 pairs at int16, 32 at int8 per AVX2 register) and sweeps all of
// them row-by-row simultaneously: no cross-lane dependences, no skew, a
// dense multiply of the vector width by the batch size.
//
// Lanes are padded to the group's maximum query/subject length with
// sentinel codes that can never match (queries pad with code 4, subjects
// with code 5), so padded cells only ever apply mismatch/gap penalties;
// since every zero-cost DP step is a diagonal (gap steps cost at least
// gap_extend > 0), a padded cell can never strictly beat a lane's real
// maximum, and the strict '>' best tracking ignores them. Pairs are
// sorted by length before grouping to keep padding waste low; results
// are scattered back in input order.
//
// Precision follows the same saturating ladder as the narrow block
// kernels (sw/block_simd.hpp): each lane's maximum H is checked
// against the saturation watermark (kMax - match) and overflowing pairs
// are re-run at the next wider precision — int8 -> int16 -> exact
// full-precision fallback — so every reported ScoreResult is
// bit-identical to sw::linear_score / sw::reference_score, including
// the smallest-row-then-column tie-breaking of the end cell.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "seq/alphabet.hpp"
#include "sw/scoring.hpp"

namespace mgpusw::sw {

/// One alignment job: unpacked nucleotide views (not owned). Empty
/// sequences are legal and score 0.
struct PairView {
  const seq::Nt* query = nullptr;
  std::int64_t query_len = 0;
  const seq::Nt* subject = nullptr;
  std::int64_t subject_len = 0;
};

/// Counters batch_align_scores reports back to callers (core/batch wires
/// them into the `kernel.overflow_reruns` metric).
struct BatchStats {
  std::int64_t groups = 0;           // vector groups executed
  std::int64_t overflow_reruns = 0;  // pair re-runs at a wider precision
};

/// Batch kernel names accepted by batch_align_scores:
///   "interseq"    full ladder, int8 first — the default;
///   "interseq16"  int16 first (skips the int8 attempt);
///   "scalar"      exact per-pair fallback for every pair (the oracle).
[[nodiscard]] const std::vector<std::string>& batch_kernel_names();

/// Aligns every pair and returns one ScoreResult per pair, in input
/// order, bit-identical to linear_score on the same pair. Coordinates
/// are per-pair (row = query index, col = subject index). Throws
/// InvalidArgument for an unknown kernel name.
[[nodiscard]] std::vector<ScoreResult> batch_align_scores(
    const ScoreScheme& scheme, const std::vector<PairView>& pairs,
    const std::string& kernel = "interseq", BatchStats* stats = nullptr);

}  // namespace mgpusw::sw
