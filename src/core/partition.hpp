// Static column partitioning across devices (the paper's load balancing).
//
// The DP matrix is split column-wise: device d computes a contiguous
// range of subject columns. For heterogeneous devices the paper sizes
// each range proportionally to the device's speed so that all devices
// finish their share of every wavefront step at roughly the same time;
// partitioning granularity is one block column so that the block grid
// stays aligned.
#pragma once

#include <cstdint>
#include <vector>

namespace mgpusw::core {

struct ColumnRange {
  std::int64_t first_col = 0;
  std::int64_t cols = 0;

  [[nodiscard]] std::int64_t end_col() const { return first_col + cols; }
  bool operator==(const ColumnRange&) const = default;
};

/// Splits `total_cols` matrix columns into one contiguous range per
/// weight, proportional to the weights, rounded to multiples of
/// `granularity` (the block width) except that the final range absorbs
/// the remainder. Every range receives at least one granularity unit.
///
/// Preconditions: total_cols > 0, granularity > 0, all weights > 0, and
/// total_cols >= granularity * weights.size() units available — i.e.
/// ceil(total_cols / granularity) >= weights.size().
[[nodiscard]] std::vector<ColumnRange> partition_columns(
    std::int64_t total_cols, const std::vector<double>& weights,
    std::int64_t granularity);

}  // namespace mgpusw::core
