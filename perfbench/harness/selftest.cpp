// `selftest`: checks the oracle against a brute-force scorer and checks
// that the checker rejects wrong results. Exits non-zero on any failure.
#include <algorithm>
#include <cstdio>

#include "harness/common.hpp"

namespace perfbench {

namespace {

int failures = 0;

void require(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

/// Brute force with explicit gap lengths (no E/F recurrences):
/// H(i,j) = max(0, H(i-1,j-1) + s, max_k H(i-k,j) - open - k*ext,
///              max_k H(i,j-k) - open - k*ext). O(mn(m+n)).
OracleResult brute_force(const std::vector<std::uint8_t>& q,
                         const std::vector<std::uint8_t>& s,
                         const OracleScheme& sc) {
  const std::size_t m = q.size(), n = s.size();
  std::vector<std::vector<int>> h(m + 1, std::vector<int>(n + 1, 0));
  OracleResult best;
  for (std::size_t i = 1; i <= m; ++i) {
    for (std::size_t j = 1; j <= n; ++j) {
      int v = h[i - 1][j - 1] + (q[i - 1] == s[j - 1] ? sc.match : sc.mismatch);
      v = std::max(v, 0);
      for (std::size_t k = 1; k <= i; ++k) {
        v = std::max(v, h[i - k][j] - sc.gap_open -
                            static_cast<int>(k) * sc.gap_extend);
      }
      for (std::size_t k = 1; k <= j; ++k) {
        v = std::max(v, h[i][j - k] - sc.gap_open -
                            static_cast<int>(k) * sc.gap_extend);
      }
      h[i][j] = v;
      if (v > best.score) {
        best.score = v;
        best.end_row = static_cast<std::int64_t>(i - 1);
        best.end_col = static_cast<std::int64_t>(j - 1);
      }
    }
  }
  return best;
}

std::vector<std::uint8_t> random_bases(Rng& rng, std::int64_t len) {
  std::vector<std::uint8_t> out(static_cast<std::size_t>(len));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next() & 3);
  return out;
}

std::vector<std::uint8_t> from_text(const std::string& text) {
  std::vector<std::uint8_t> out;
  for (const char c : text) {
    out.push_back(static_cast<std::uint8_t>(std::string("ACGT").find(c)));
  }
  return out;
}

}  // namespace

int run_selftest() {
  const OracleScheme sc;  // +1 / -3 / open 3 / extend 2

  // Hand-checked cases.
  const OracleResult same = oracle_score(from_text("ACGT"), from_text("ACGT"), sc);
  require(same.score == 4 && same.end_row == 3 && same.end_col == 3,
          "identical ACGT scores 4 at (3,3)");
  const OracleResult none = oracle_score(from_text("AAAA"), from_text("TTTT"), sc);
  require(none.score == 0 && none.end_row == -1 && none.end_col == -1,
          "disjoint alphabets score 0 with no end cell");
  // "AC" occurs twice in the subject: the tie keeps the lowest column.
  const OracleResult tie = oracle_score(from_text("AC"), from_text("ACGAC"), sc);
  require(tie.score == 2 && tie.end_row == 1 && tie.end_col == 1,
          "tie-break keeps the lowest column");
  // A 12-base match across one inserted base: 12 - (3 + 2) = 7 beats
  // either 6-base half.
  const OracleResult gap = oracle_score(from_text("ACGTTGCAGGCA"),
                                        from_text("ACGTTGTCAGGCA"), sc);
  require(gap.score == 7 && gap.end_row == 11 && gap.end_col == 12,
          "one gap: score 7 at (11,12)");

  // Random pairs against the brute-force scorer, and the swap property.
  Rng rng(12345);
  for (int trial = 0; trial < 300; ++trial) {
    const std::vector<std::uint8_t> q = random_bases(rng, rng.uniform(0, 40));
    std::vector<std::uint8_t> s = random_bases(rng, rng.uniform(0, 40));
    if (trial % 2 == 0 && !q.empty()) {  // plant a related stretch
      const std::size_t len = std::min<std::size_t>(q.size(), 25);
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(s.size() / 2),
               q.begin(), q.begin() + static_cast<std::ptrdiff_t>(len));
      if (s.size() > 10) s[s.size() / 2 + 3] ^= 1;
    }
    const OracleResult fast = oracle_score(q, s, sc);
    const OracleResult slow = brute_force(q, s, sc);
    require(fast.score == slow.score && fast.end_row == slow.end_row &&
                fast.end_col == slow.end_col,
            "oracle == brute force on random pair " + std::to_string(trial));
    require(oracle_score(s, q, sc).score == fast.score,
            "swap keeps the score on random pair " + std::to_string(trial));
  }

  // The checker must reject a wrong result and accept the right one.
  const OracleResult truth{40, 45, 47};
  {
    Checker ok(sc);
    ok.expect("right", 40, 45, 47, 100, 100, truth);
    require(ok.errors().empty(), "checker accepts the oracle's result");
  }
  {
    Checker wrong(sc);
    wrong.expect("wrong score", 41, 45, 47, 100, 100, truth);
    require(!wrong.errors().empty(), "checker rejects a wrong score");
  }
  {
    Checker wrong(sc);
    wrong.expect("wrong end", 40, 45, 48, 100, 100, truth);
    require(!wrong.errors().empty(), "checker rejects a wrong end cell");
  }
  {
    Checker wrong(sc);
    wrong.expect("over ceiling", 101, 45, 47, 100, 100, OracleResult{101, 45, 47});
    require(!wrong.errors().empty(), "checker rejects score > match*min(m,n)");
  }
  {
    Checker wrong(sc);
    wrong.expect("outside", 40, 100, 47, 100, 100, OracleResult{40, 100, 47});
    require(!wrong.errors().empty(), "checker rejects an end cell outside");
  }
  {
    Checker wrong(sc);
    wrong.expect_swap("swap", 40, 39);
    wrong.expect_separation("separation", {30, 90}, {20});
    require(wrong.errors().size() == 2,
            "checker rejects a swap change and weak separation");
  }

  std::printf("selftest: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
