#include "harness/common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

#include "base/json.hpp"
#include "seq/synth.hpp"

namespace perfbench {

namespace json = mgpusw::base::json;

std::vector<Metric> layer_metric_list(const LayerMetrics& m) {
  return {
      {"sw.kernel_gcups", m.sw_kernel_gcups, "cells/ns"},
      {"sw.kernel_busy_s", m.sw_kernel_busy_s, "s"},
      {"sw.overflow_reruns", m.sw_overflow_reruns, "count"},
      {"sw.interseq_gcups", m.sw_interseq_gcups, "cells/ns"},
      {"vgpu.kernel_launches", m.vgpu_kernel_launches, "count"},
      {"engine.compute_s", m.engine_compute_s, "s"},
      {"engine.border_recv_s", m.engine_border_recv_s, "s"},
      {"engine.border_send_s", m.engine_border_send_s, "s"},
      {"engine.checkpoint_s", m.engine_checkpoint_s, "s"},
      {"engine.idle_s", m.engine_idle_s, "s"},
      {"engine.non_kernel_s", m.engine_non_kernel_s, "s"},
      {"engine.imbalance", m.engine_imbalance, "ratio"},
      {"engine.item_overhead_ms", m.engine_item_overhead_ms, "ms"},
      {"engine.blocks_computed", m.engine_blocks_computed, "count"},
      {"comm.chunks_sent", m.comm_chunks_sent, "count"},
      {"comm.bytes_sent", m.comm_bytes_sent, "bytes"},
      {"comm.border_wait_p50_ms", m.comm_border_wait_p50_ms, "ms"},
      {"fleet.lease_wait_p50_ms", m.fleet_lease_wait_p50_ms, "ms"},
      {"fleet.lease_wait_max_ms", m.fleet_lease_wait_max_ms, "ms"},
      {"fleet.leases_granted", m.fleet_leases_granted, "count"},
      {"batch.items_completed", m.batch_items_completed, "count"},
      {"batch.interseq_items", m.batch_interseq_items, "count"},
      {"checkpoint.segments_saved", m.checkpoint_segments_saved, "count"},
      {"checkpoint.bytes", m.checkpoint_bytes, "bytes"},
      {"serve.submit_rtt_ms", m.serve_submit_rtt_ms, "ms"},
      {"serve.overhead_ms", m.serve_overhead_ms, "ms"},
      {"serve.result_bytes", m.serve_result_bytes, "bytes"},
      {"serve.journal_appends", m.serve_journal_appends, "count"},
      {"serve.journal_checkpoints", m.serve_journal_checkpoints, "count"},
      {"serve.journal_bytes", m.serve_journal_bytes, "bytes"},
      {"seq.generate_s", m.seq_generate_s, "s"},
  };
}

void EngineTally::add(const std::vector<mgpusw::core::DeviceRunStats>& devices,
                      double wall_seconds) {
  n_ += 1;
  double max_busy = 0, sum_busy = 0;
  for (const mgpusw::core::DeviceRunStats& s : devices) {
    const auto busy = static_cast<double>(s.busy_ns);
    cells_ += static_cast<double>(s.cells);
    busy_ns_ += busy;
    max_busy = std::max(max_busy, busy);
    sum_busy += busy;
    phases_ = phases_ || s.phases_tracked;
    sums_.sw_overflow_reruns += static_cast<double>(s.overflow_reruns);
    sums_.engine_compute_s += static_cast<double>(s.phase_compute_ns) * 1e-9;
    sums_.engine_border_recv_s += static_cast<double>(s.phase_recv_ns) * 1e-9;
    sums_.engine_border_send_s += static_cast<double>(s.phase_send_ns) * 1e-9;
    sums_.engine_checkpoint_s +=
        static_cast<double>(s.phase_checkpoint_ns) * 1e-9;
    sums_.engine_idle_s += static_cast<double>(s.phase_idle_ns) * 1e-9;
    sums_.engine_blocks_computed += static_cast<double>(s.blocks);
    sums_.comm_chunks_sent += static_cast<double>(s.chunks_sent);
    sums_.comm_bytes_sent += static_cast<double>(s.bytes_sent);
  }
  if (sum_busy > 0) {
    imbalance_.push_back(max_busy /
                         (sum_busy / static_cast<double>(devices.size())));
  }
  overhead_ms_.push_back(wall_seconds * 1e3 - max_busy * 1e-6);
}

void EngineTally::finish(LayerMetrics& m) const {
  if (n_ == 0) return;
  m.sw_kernel_gcups = busy_ns_ > 0 ? cells_ / busy_ns_ : 0;
  m.sw_kernel_busy_s = busy_ns_ * 1e-9 / n_;
  m.sw_overflow_reruns = sums_.sw_overflow_reruns / n_;
  if (phases_) {
    m.engine_compute_s = sums_.engine_compute_s / n_;
    m.engine_border_recv_s = sums_.engine_border_recv_s / n_;
    m.engine_border_send_s = sums_.engine_border_send_s / n_;
    m.engine_checkpoint_s = sums_.engine_checkpoint_s / n_;
    m.engine_idle_s = sums_.engine_idle_s / n_;
    m.engine_non_kernel_s = m.engine_compute_s - m.sw_kernel_busy_s;
  }
  m.engine_imbalance = median(imbalance_);
  m.engine_item_overhead_ms = median(overhead_ms_);
  m.engine_blocks_computed = sums_.engine_blocks_computed / n_;
  m.comm_chunks_sent = sums_.comm_chunks_sent / n_;
  m.comm_bytes_sent = sums_.comm_bytes_sent / n_;
}

// --- statistics -------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double tail(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n < 11 ? values.back() : values[n - 11];
}

namespace {

const json::Value* find_histogram(const json::Value& root,
                                  const std::string& name) {
  const json::Value* histograms = root.find("histograms");
  return histograms == nullptr ? nullptr : histograms->find(name);
}

}  // namespace

double histogram_p50(const std::string& metrics_json,
                     const std::string& name) {
  const json::Value root = json::parse(metrics_json);
  const json::Value* h = find_histogram(root, name);
  if (h == nullptr) return 0.0;
  const std::int64_t count = h->at("count").as_int();
  if (count == 0) return 0.0;
  std::int64_t seen = 0;
  for (const json::Value& bucket : h->at("buckets").array) {
    seen += bucket.at("count").as_int();
    if (2 * seen >= count) {
      const json::Value& le = bucket.at("le");
      return le.is_number() ? le.number : h->at("max").number;
    }
  }
  return h->at("max").number;
}

double histogram_max(const std::string& metrics_json,
                     const std::string& name) {
  const json::Value root = json::parse(metrics_json);
  const json::Value* h = find_histogram(root, name);
  return h == nullptr ? 0.0 : h->at("max").number;
}

double counter(const std::string& metrics_json, const std::string& name) {
  const json::Value root = json::parse(metrics_json);
  const json::Value* counters = root.find("counters");
  const json::Value* value =
      counters == nullptr ? nullptr : counters->find(name);
  return value == nullptr ? 0.0 : value->number;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// --- inputs -----------------------------------------------------------------

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::int64_t Rng::uniform(std::int64_t lo, std::int64_t hi) {
  const auto span = static_cast<std::uint64_t>(hi - lo + 1);
  return lo + static_cast<std::int64_t>(next() % span);
}

double Rng::unit() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::int64_t stratified_length(Rng& rng, std::int64_t k, std::int64_t count,
                               std::int64_t lo, std::int64_t hi) {
  const double width =
      static_cast<double>(hi - lo) / static_cast<double>(count);
  const double at = static_cast<double>(lo) +
                    width * (static_cast<double>(k) + rng.unit());
  return std::clamp(static_cast<std::int64_t>(at), lo, hi);
}

Pair make_pair(std::uint64_t seed, std::int64_t query_len,
               std::int64_t subject_len, bool related,
               std::int64_t* generate_ns) {
  const std::int64_t start = now_ns();
  Pair pair;
  pair.related = related;
  pair.query = seq::generate_chromosome("q", query_len, seed);
  if (related) {
    seq::MutationModel model;
    model.snp_rate = 0.08;
    model.indel_rate = 0.005;
    model.max_indel = 3;
    model.segment_rate = 0.0;
    pair.subject =
        seq::mutate_homolog(pair.query, model, seed ^ 0x5EEDULL, "s");
  } else {
    pair.subject =
        seq::generate_chromosome("s", subject_len, seed ^ 0xA11CEULL);
  }
  *generate_ns += now_ns() - start;
  return pair;
}

std::vector<std::uint8_t> codes(const seq::Sequence& s) {
  std::vector<seq::Nt> bases(static_cast<std::size_t>(s.size()));
  s.extract(0, s.size(), bases.data());
  std::vector<std::uint8_t> out(bases.size());
  for (std::size_t i = 0; i < bases.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(bases[i]);
  }
  return out;
}

std::vector<OracleResult> oracle_all(
    const std::vector<std::pair<const seq::Sequence*, const seq::Sequence*>>&
        pairs,
    const OracleScheme& scheme) {
  constexpr int kThreads = 4;
  std::vector<OracleResult> out(pairs.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < pairs.size(); i = next++) {
        out[i] = oracle_score(codes(*pairs[i].first), codes(*pairs[i].second),
                              scheme);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return out;
}

OracleScheme oracle_scheme(const mgpusw::sw::ScoreScheme& s) {
  return OracleScheme{s.match, s.mismatch, s.gap_open, s.gap_extend};
}

std::uint64_t fingerprint(const seq::Sequence& a, const seq::Sequence& b) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a
  for (const seq::Sequence* s : {&a, &b}) {
    for (const std::uint8_t c : codes(*s)) {
      h = (h ^ c) * 0x100000001B3ULL;
    }
    h = (h ^ 0xFF) * 0x100000001B3ULL;  // separator
  }
  return h;
}

// --- checks -----------------------------------------------------------------

void Checker::expect(const std::string& label, std::int64_t score,
                     std::int64_t end_row, std::int64_t end_col,
                     std::int64_t rows, std::int64_t cols,
                     const OracleResult& oracle) {
  const std::int64_t ceiling =
      static_cast<std::int64_t>(scheme_.match) * std::min(rows, cols);
  if (score < 0 || score > ceiling) {
    fail(label + ": score " + std::to_string(score) + " outside [0, " +
         std::to_string(ceiling) + "]");
  }
  if (score > 0 && (end_row < 0 || end_row >= rows || end_col < 0 ||
                    end_col >= cols)) {
    fail(label + ": end cell (" + std::to_string(end_row) + ", " +
         std::to_string(end_col) + ") outside the " + std::to_string(rows) +
         "x" + std::to_string(cols) + " matrix");
  }
  if (score != oracle.score || end_row != oracle.end_row ||
      end_col != oracle.end_col) {
    fail(label + ": program (" + std::to_string(score) + " at " +
         std::to_string(end_row) + "," + std::to_string(end_col) +
         ") != oracle (" + std::to_string(oracle.score) + " at " +
         std::to_string(oracle.end_row) + "," +
         std::to_string(oracle.end_col) + ")");
  }
}

void Checker::expect_swap(const std::string& label, std::int64_t score,
                          std::int64_t swapped_score) {
  if (score != swapped_score) {
    fail(label + ": score " + std::to_string(score) +
         " changes to " + std::to_string(swapped_score) +
         " when query and subject swap");
  }
}

void Checker::expect_separation(const std::string& what,
                                const std::vector<std::int64_t>& related,
                                const std::vector<std::int64_t>& unrelated) {
  if (related.empty() || unrelated.empty()) return;
  const std::int64_t low = *std::min_element(related.begin(), related.end());
  const std::int64_t high =
      *std::max_element(unrelated.begin(), unrelated.end());
  if (low < 2 * high) {
    fail(what + ": lowest related score " + std::to_string(low) +
         " is not far above the highest unrelated score " +
         std::to_string(high));
  }
}

void Checker::fail(const std::string& message) {
  // Keep the first few in full; a systematic fault would repeat per op.
  if (errors_.size() < 20) errors_.push_back(message);
  else if (errors_.size() == 20) errors_.push_back("(further errors elided)");
}

// --- spans ------------------------------------------------------------------

void SpanLog::record(const std::string& name, std::int64_t start_ns,
                     std::int64_t end_ns, std::int64_t op) {
  if (!enabled_) return;
  const std::uint64_t thread =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, op, thread});
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::int64_t origin = 0;
  for (const Span& s : spans_) {
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  }
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::size_t dot = s.name.find('.');
    const std::string layer =
        dot == std::string::npos ? s.name : s.name.substr(0, dot);
    char line[512];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %llu, "
                  "\"args\": {\"op\": %lld}}%s\n",
                  s.name.c_str(), layer.c_str(),
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.thread),
                  static_cast<long long>(s.op),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

}  // namespace perfbench
