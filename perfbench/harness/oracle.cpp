#include "harness/oracle.hpp"

#include <algorithm>
#include <limits>

namespace perfbench {

OracleResult oracle_score(const std::vector<std::uint8_t>& query,
                          const std::vector<std::uint8_t>& subject,
                          const OracleScheme& scheme) {
  // Far below any reachable score, yet far enough from INT32_MIN that
  // subtracting gap costs cannot overflow.
  constexpr std::int32_t kMinusInf = std::numeric_limits<std::int32_t>::min() / 4;
  const std::size_t n = subject.size();
  const std::int32_t open_ext = scheme.gap_open + scheme.gap_extend;
  const std::int32_t ext = scheme.gap_extend;

  std::vector<std::int32_t> h(n + 1, 0);          // H of the previous row
  std::vector<std::int32_t> f(n + 1, kMinusInf);  // F of the previous row
  OracleResult best;
  for (std::size_t i = 1; i <= query.size(); ++i) {
    const std::uint8_t q = query[i - 1];
    std::int32_t diag = 0;  // H(i-1, j-1); column 0 is all zeros
    std::int32_t left = 0;  // H(i, j-1)
    std::int32_t e = kMinusInf;
    std::int32_t row_max = 0;
    for (std::size_t j = 1; j <= n; ++j) {
      const std::int32_t up = h[j];
      const std::int32_t fv = std::max(f[j] - ext, up - open_ext);
      e = std::max(e - ext, left - open_ext);
      std::int32_t hv =
          diag + (q == subject[j - 1] ? scheme.match : scheme.mismatch);
      hv = std::max(std::max(hv, 0), std::max(e, fv));
      f[j] = fv;
      h[j] = hv;
      diag = up;
      left = hv;
      row_max = std::max(row_max, hv);
    }
    // Only a strictly higher score moves the best to a later row; within
    // the row, the first column holding the maximum is the lowest.
    if (row_max > best.score) {
      const auto first = std::find(h.begin() + 1, h.end(), row_max);
      best.score = row_max;
      best.end_row = static_cast<std::int64_t>(i - 1);
      best.end_col = static_cast<std::int64_t>(first - h.begin() - 1);
    }
  }
  return best;
}

}  // namespace perfbench
