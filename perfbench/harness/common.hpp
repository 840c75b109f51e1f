// Shared pieces of the benchmark harness: options, the result record
// every workload fills, statistics, the output checker, seeded input
// helpers and the span log of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/slice_runner.hpp"
#include "harness/oracle.hpp"
#include "seq/sequence.hpp"
#include "sw/scoring.hpp"

namespace perfbench {

namespace seq = mgpusw::seq;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".perfbench";  // results, traces, journal scratch
  std::string expected_path = "perfbench/expected/megabase.json";
};

/// Set-ups measured per run; setup_s reports their median.
inline constexpr int kSetupRepeats = 15;

/// Every per-layer metric of the traced run. All workloads report the
/// full set; a layer a workload does not exercise reads 0. Counts and
/// times are per completed operation (comparison, batch item or job)
/// unless the name says otherwise, so runs of different length compare.
struct LayerMetrics {
  double sw_kernel_gcups = 0;
  double sw_kernel_busy_s = 0;
  double sw_overflow_reruns = 0;
  double sw_interseq_gcups = 0;
  double vgpu_kernel_launches = 0;
  double engine_compute_s = 0;
  double engine_border_recv_s = 0;
  double engine_border_send_s = 0;
  double engine_checkpoint_s = 0;
  double engine_idle_s = 0;
  double engine_non_kernel_s = 0;
  double engine_imbalance = 0;
  double engine_item_overhead_ms = 0;
  double engine_blocks_computed = 0;
  double comm_chunks_sent = 0;
  double comm_bytes_sent = 0;
  double comm_border_wait_p50_ms = 0;
  double fleet_lease_wait_p50_ms = 0;
  double fleet_lease_wait_max_ms = 0;
  double fleet_leases_granted = 0;
  double batch_items_completed = 0;
  double batch_interseq_items = 0;
  double checkpoint_segments_saved = 0;
  double checkpoint_bytes = 0;
  double serve_submit_rtt_ms = 0;
  double serve_overhead_ms = 0;
  double serve_result_bytes = 0;
  double serve_journal_appends = 0;
  double serve_journal_checkpoints = 0;
  double serve_journal_bytes = 0;
  double seq_generate_s = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

[[nodiscard]] std::vector<Metric> layer_metric_list(const LayerMetrics& m);

/// Sums the per-device stats of completed comparisons into the sw.*,
/// engine.* and comm.* layer figures, per comparison.
class EngineTally {
 public:
  void add(const std::vector<mgpusw::core::DeviceRunStats>& devices,
           double wall_seconds);
  /// Writes the per-comparison figures into `m` (phase figures only when
  /// the runs profiled phases).
  void finish(LayerMetrics& m) const;
  [[nodiscard]] double count() const { return n_; }

 private:
  double n_ = 0, cells_ = 0, busy_ns_ = 0;
  bool phases_ = false;
  LayerMetrics sums_;
  std::vector<double> imbalance_, overhead_ms_;
};

/// What one run of a workload produced.
struct RunReport {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  // End-to-end metrics (the untraced run).
  double setup_s = 0;
  double gcups = 0;
  double peak_rss_mb = 0;
  double small_p50_ms = 0;
  double small_tail_ms = 0;
  double large_p50_ms = 0;
  std::int64_t small_samples = 0;  // sample counts behind the latencies
  std::int64_t large_samples = 0;
  LayerMetrics layers;
  std::vector<std::string> errors;  // failed checks; empty = correct
  std::vector<std::string> notes;   // informational lines for stdout
};

// --- statistics -------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);
/// The highest percentile with at least ten samples beyond it: sorted
/// value n-11. With fewer than eleven samples, the maximum.
[[nodiscard]] double tail(std::vector<double> values);
/// Median estimated from an obs::Histogram snapshot in a metrics JSON
/// object: the upper bound of the bucket holding the middle sample.
[[nodiscard]] double histogram_p50(const std::string& metrics_json,
                                   const std::string& name);
[[nodiscard]] double histogram_max(const std::string& metrics_json,
                                   const std::string& name);
[[nodiscard]] double counter(const std::string& metrics_json,
                             const std::string& name);

[[nodiscard]] double peak_rss_mb();

// --- inputs -------------------------------------------------------------

/// SplitMix64: the harness's own seeded generator for input shapes.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi].
  std::int64_t uniform(std::int64_t lo, std::int64_t hi);
  double unit();  // [0, 1)

 private:
  std::uint64_t state_;
};

/// Length k of `count` lengths spread evenly over [lo, hi], with a
/// seeded jitter inside each stratum: every seed gets the same size
/// distribution, so the figures do not swing with the seed's draw.
[[nodiscard]] std::int64_t stratified_length(Rng& rng, std::int64_t k,
                                             std::int64_t count,
                                             std::int64_t lo,
                                             std::int64_t hi);

/// One comparison input with its class.
struct Pair {
  seq::Sequence query;
  seq::Sequence subject;
  bool related = false;
};

/// A related pair (the subject derived from the query by substitutions
/// and short indels, about 90% identity) or an unrelated one.
/// Accumulates generation time into *generate_ns.
[[nodiscard]] Pair make_pair(std::uint64_t seed, std::int64_t query_len,
                             std::int64_t subject_len, bool related,
                             std::int64_t* generate_ns);

[[nodiscard]] std::vector<std::uint8_t> codes(const seq::Sequence& s);

/// The oracle on many (query, subject) pairs, spread over a few threads:
/// checks run after the timed phase, so they may use the whole host.
[[nodiscard]] std::vector<OracleResult> oracle_all(
    const std::vector<std::pair<const seq::Sequence*, const seq::Sequence*>>&
        pairs,
    const OracleScheme& scheme);
[[nodiscard]] OracleScheme oracle_scheme(const mgpusw::sw::ScoreScheme& s);
[[nodiscard]] std::uint64_t fingerprint(const seq::Sequence& a,
                                        const seq::Sequence& b);

// --- checks ---------------------------------------------------------------

/// Collects failed checks of one run. A run is correct when it has none.
class Checker {
 public:
  explicit Checker(OracleScheme scheme) : scheme_(scheme) {}

  /// Program result vs the oracle's, plus the stated properties:
  /// 0 <= score <= match*min(m, n) and the end cell inside the matrix.
  void expect(const std::string& label, std::int64_t score,
              std::int64_t end_row, std::int64_t end_col,
              std::int64_t rows, std::int64_t cols,
              const OracleResult& oracle);
  /// The score must not change when query and subject swap.
  void expect_swap(const std::string& label, std::int64_t score,
                   std::int64_t swapped_score);
  /// Related pairs must score far above unrelated ones: every related
  /// score at least twice the best unrelated score.
  void expect_separation(const std::string& what,
                         const std::vector<std::int64_t>& related,
                         const std::vector<std::int64_t>& unrelated);
  void fail(const std::string& message);

  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }

 private:
  OracleScheme scheme_;
  std::vector<std::string> errors_;
};

// --- spans of the traced run ----------------------------------------------

/// In-memory span log written out as a Chrome/Perfetto trace when the
/// run ends. Disabled logs record nothing. Thread-safe.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Records [start_ns, end_ns) under `name`; `op` ties the spans of one
  /// operation together (job id, item index, comparison number).
  void record(const std::string& name, std::int64_t start_ns,
              std::int64_t end_ns, std::int64_t op);
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int64_t op;
    std::uint64_t thread;
  };
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span around one call into a layer.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, std::int64_t op = -1)
      : log_(log), name_(std::move(name)), op_(op),
        start_(log.enabled() ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (log_.enabled()) log_.record(name_, start_, now_ns(), op_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  std::string name_;
  std::int64_t op_;
  std::int64_t start_;
};

// --- workloads --------------------------------------------------------------

RunReport run_megabase(const RunOptions& options, SpanLog& spans);
RunReport run_service(const RunOptions& options, SpanLog& spans);
RunReport run_short_reads(const RunOptions& options, SpanLog& spans);

/// `expected` subcommand: recomputes the megabase expected-result file.
int write_megabase_expected(std::uint64_t first_seed, std::uint64_t count,
                            const std::string& path);
/// `selftest` subcommand: oracle and checker unit checks.
int run_selftest();

}  // namespace perfbench
