#include "core/partition.hpp"

#include <algorithm>
#include <numeric>

#include "base/error.hpp"
#include "base/math.hpp"

namespace mgpusw::core {

std::vector<ColumnRange> partition_columns(std::int64_t total_cols,
                                           const std::vector<double>& weights,
                                           std::int64_t granularity) {
  MGPUSW_REQUIRE(total_cols > 0, "total_cols must be positive");
  MGPUSW_REQUIRE(granularity > 0, "granularity must be positive");
  MGPUSW_REQUIRE(!weights.empty(), "need at least one weight");
  for (const double w : weights) {
    MGPUSW_REQUIRE(w > 0.0, "weights must be positive, got " << w);
  }

  const auto parts = static_cast<std::int64_t>(weights.size());
  const std::int64_t units = base::div_ceil(total_cols, granularity);
  MGPUSW_REQUIRE(units >= parts,
                 "matrix has only " << units << " block columns for "
                                    << parts << " devices");

  // Largest-remainder apportionment of `units` block columns, with a
  // floor of one unit per device.
  const double total_weight =
      std::accumulate(weights.begin(), weights.end(), 0.0);
  std::vector<std::int64_t> share(weights.size(), 1);
  std::int64_t assigned = parts;
  std::vector<std::pair<double, std::size_t>> remainders;
  remainders.reserve(weights.size());
  for (std::size_t d = 0; d < weights.size(); ++d) {
    const double exact =
        static_cast<double>(units) * (weights[d] / total_weight);
    const auto extra = static_cast<std::int64_t>(exact) - 1;
    if (extra > 0) {
      share[d] += extra;
      assigned += extra;
    }
    remainders.emplace_back(exact - static_cast<double>(share[d]), d);
  }
  std::sort(remainders.begin(), remainders.end(), [](auto& a, auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;  // deterministic tie-break
  });
  for (std::size_t k = 0; assigned < units; ++k) {
    ++share[remainders[k % remainders.size()].second];
    ++assigned;
  }
  // Over-assignment can only come from the per-device floor; shave the
  // largest shares back down (never below 1).
  for (std::size_t k = 0; assigned > units; ++k) {
    auto it = std::max_element(share.begin(), share.end());
    MGPUSW_CHECK(*it > 1);
    --*it;
    --assigned;
  }

  std::vector<ColumnRange> ranges(weights.size());
  std::int64_t col = 0;
  for (std::size_t d = 0; d < weights.size(); ++d) {
    const bool last = d + 1 == weights.size();
    const std::int64_t cols =
        last ? total_cols - col : std::min(share[d] * granularity,
                                           total_cols - col);
    ranges[d] = ColumnRange{col, cols};
    col += cols;
  }
  MGPUSW_CHECK(col == total_cols);
  for (const ColumnRange& range : ranges) {
    MGPUSW_CHECK_MSG(range.cols > 0, "a device received an empty slice");
  }
  return ranges;
}

}  // namespace mgpusw::core
