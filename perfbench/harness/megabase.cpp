// megabase: the paper's workload. One comparison of synthetic chr21
// homologs on three environment-1 virtual devices with
// chromosome_compare's defaults, repeated until the run's time is up.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "base/json.hpp"
#include "core/engine.hpp"
#include "harness/common.hpp"
#include "obs/metrics.hpp"
#include "seq/synth.hpp"
#include "sim/pipeline_sim.hpp"
#include "vgpu/device.hpp"
#include "vgpu/spec.hpp"

namespace perfbench {

namespace {

namespace core = mgpusw::core;
namespace vgpu = mgpusw::vgpu;
namespace json = mgpusw::base::json;

// chr21 at 1/1024 of its length: ~47 kbp a side, ~2.2e9 cells, a few
// seconds per comparison at the program's defaults on a 4-core host.
constexpr const char* kPair = "chr21";
constexpr std::int64_t kScale = 1024;
constexpr int kDevices = 3;

seq::HomologPair make_inputs(std::uint64_t seed) {
  for (const seq::ChromosomePair& pair : seq::paper_chromosome_pairs()) {
    if (pair.id == kPair) {
      return seq::make_homolog_pair(seq::scaled_pair(pair, kScale), seed);
    }
  }
  throw std::runtime_error("chr21 missing from paper_chromosome_pairs");
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// The stored oracle result for `seed`, if the file has one whose input
/// fingerprint matches today's generator output.
bool lookup_expected(const std::string& path, std::uint64_t seed,
                     std::uint64_t print, OracleResult& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::stringstream text;
  text << in.rdbuf();
  const json::Value root = json::parse(text.str());
  for (const json::Value& entry : root.at("entries").array) {
    if (static_cast<std::uint64_t>(entry.at("seed").as_int()) != seed) {
      continue;
    }
    if (entry.at("fingerprint").string != hex(print)) return false;
    out.score = static_cast<int>(entry.at("score").as_int());
    out.end_row = entry.at("end_row").as_int();
    out.end_col = entry.at("end_col").as_int();
    return true;
  }
  return false;
}

struct Fleet {
  std::vector<std::unique_ptr<vgpu::Device>> owned;
  std::vector<vgpu::Device*> devices;
};

Fleet make_fleet() {
  Fleet fleet;
  const std::vector<vgpu::DeviceSpec> env = vgpu::environment1();
  for (int d = 0; d < kDevices; ++d) {
    fleet.owned.push_back(std::make_unique<vgpu::Device>(
        env[static_cast<std::size_t>(d) % env.size()]));
    fleet.devices.push_back(fleet.owned.back().get());
  }
  return fleet;
}

std::int64_t launches(const Fleet& fleet) {
  std::int64_t total = 0;
  for (const vgpu::Device* d : fleet.devices) total += d->kernels_launched();
  return total;
}

}  // namespace

RunReport run_megabase(const RunOptions& options, SpanLog& spans) {
  RunReport report;

  // --- set-up: fleet start plus input generation, repeated ------------
  Fleet fleet;
  seq::HomologPair inputs;
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    ScopedSpan span(spans, "setup", k);
    const std::int64_t start = now_ns();
    Fleet next = make_fleet();
    const std::int64_t gen_start = now_ns();
    seq::HomologPair pair = make_inputs(options.seed);
    const std::int64_t end = now_ns();
    setup_s.push_back(static_cast<double>(end - start) * 1e-9);
    generate_s.push_back(static_cast<double>(end - gen_start) * 1e-9);
    fleet = std::move(next);
    inputs = std::move(pair);
  }
  report.setup_s = median(setup_s);
  report.layers.seq_generate_s = median(generate_s);
  const seq::Sequence& query = inputs.query;
  const seq::Sequence& subject = inputs.subject;

  // --- engine at chromosome_compare's defaults ------------------------
  core::EngineConfig config;
  config.block_rows = 128;
  config.block_cols = 128;
  config.buffer_capacity = 16;
  config.transport = core::Transport::kInProcess;  // "ring"
  // Progress events give the latency a watcher of the comparison sees:
  // the time between successive 1% steps of the whole comparison.
  const auto cells = static_cast<double>(query.size() * subject.size());
  std::mutex progress_mu;
  std::vector<double> device_cells(kDevices, 0);
  std::vector<std::int64_t> step_t;  // when each 1% step was crossed
  config.progress = [&](const core::ProgressEvent& event) {
    const std::lock_guard<std::mutex> lock(progress_mu);
    device_cells[static_cast<std::size_t>(event.device_index)] =
        static_cast<double>(event.device_cells_done);
    double done = 0;
    for (const double c : device_cells) done += c;
    while (static_cast<double>(step_t.size() + 1) * cells <= 100.0 * done) {
      step_t.push_back(event.t_ns);
    }
  };
  mgpusw::obs::MetricsRegistry registry;
  if (options.trace) {
    config.obs.metrics = &registry;
    config.obs.profile_phases = true;
  }
  core::MultiDeviceEngine engine(config, fleet.devices);

  // Warm-up on a prefix: thread pools and allocators settle untimed.
  {
    const std::int64_t w = std::min<std::int64_t>(4096, query.size());
    (void)engine.run(query.subsequence(0, w), subject.subsequence(0, w));
  }

  // --- timed phase -----------------------------------------------------
  std::vector<core::EngineResult> results;
  std::vector<double> comparison_ms, comparison_gcups;
  std::vector<double> step_ms, step_tail_ms;
  const std::int64_t launches_before = launches(fleet);
  const std::int64_t t_start = now_ns();
  const auto budget = static_cast<std::int64_t>(options.seconds * 1e9);
  std::int64_t t_end = t_start;
  while (t_end - t_start < budget) {
    {
      const std::lock_guard<std::mutex> lock(progress_mu);
      std::fill(device_cells.begin(), device_cells.end(), 0.0);
      step_t.clear();
    }
    ++report.attempted;
    const std::int64_t t0 = now_ns();
    try {
      ScopedSpan span(spans, "engine.run", report.attempted);
      results.push_back(engine.run(query, subject));
    } catch (const std::exception& e) {
      ++report.failed;
      report.notes.push_back(std::string("comparison failed: ") + e.what());
    }
    t_end = now_ns();
    if (results.size() < static_cast<std::size_t>(report.attempted)) continue;
    comparison_ms.push_back(static_cast<double>(t_end - t0) * 1e-6);
    comparison_gcups.push_back(cells / static_cast<double>(t_end - t0));
    std::vector<double> gaps;
    std::int64_t last = 0;  // events are stamped from the run's epoch
    for (const std::int64_t t : step_t) {
      gaps.push_back(static_cast<double>(t - last) * 1e-6);
      last = t;
    }
    step_tail_ms.push_back(tail(gaps));
    step_ms.insert(step_ms.end(), gaps.begin(), gaps.end());
  }
  report.peak_rss_mb = peak_rss_mb();
  const std::int64_t launches_after = launches(fleet);

  // Medians over comparisons: a comparison slowed by a noisy neighbour on
  // the host moves them far less than it moves a mean.
  report.gcups = median(comparison_gcups);
  report.large_p50_ms = median(comparison_ms);
  report.large_samples = static_cast<std::int64_t>(comparison_ms.size());
  report.small_p50_ms = median(step_ms);
  report.small_tail_ms = median(step_tail_ms);
  report.small_samples = static_cast<std::int64_t>(step_ms.size());

  // --- checks (untimed) -------------------------------------------------
  Checker checker(oracle_scheme(config.scheme));
  OracleResult expected;
  if (!lookup_expected(options.expected_path, options.seed,
                       fingerprint(query, subject), expected)) {
    report.notes.push_back("megabase: seed not in " + options.expected_path +
                           " (or inputs changed); running the oracle");
    ScopedSpan span(spans, "oracle");
    expected = oracle_score(codes(query), codes(subject),
                            oracle_scheme(config.scheme));
  }
  for (std::size_t i = 0; i < results.size(); ++i) {
    const core::EngineResult& r = results[i];
    checker.expect("comparison " + std::to_string(i), r.best.score,
                   r.best.end.row, r.best.end.col, query.size(),
                   subject.size(), expected);
  }
  // Homologs: the alignment must span at least half the shorter sequence.
  const std::int64_t homolog_floor =
      config.scheme.match * std::min(query.size(), subject.size()) / 2;
  if (expected.score < homolog_floor) {
    checker.fail("homolog score " + std::to_string(expected.score) +
                 " below half the shorter length (" +
                 std::to_string(homolog_floor) + ")");
  }
  report.errors.insert(report.errors.end(), checker.errors().begin(),
                       checker.errors().end());

  // --- per-layer figures (traced run) -----------------------------------
  if (options.trace && !results.empty()) {
    LayerMetrics& m = report.layers;
    EngineTally tally;
    std::vector<double> slice_cells(kDevices, 0), slice_busy(kDevices, 0);
    for (const core::EngineResult& r : results) {
      tally.add(r.devices, r.wall_seconds);
      for (std::size_t d = 0; d < r.devices.size(); ++d) {
        slice_cells[d] += static_cast<double>(r.devices[d].cells);
        slice_busy[d] += static_cast<double>(r.devices[d].busy_ns);
      }
    }
    tally.finish(m);
    const double n = tally.count();
    m.vgpu_kernel_launches =
        static_cast<double>(launches_after - launches_before) / n;
    const std::string snapshot = registry.to_json();
    m.comm_border_wait_p50_ms = histogram_p50(snapshot, "comm.border_wait_ms");
    m.checkpoint_segments_saved =
        counter(snapshot, "checkpoint.segments_saved") / n;
    m.checkpoint_bytes = counter(snapshot, "checkpoint.bytes") / n;

    // The pipeline model on the executed plan, fed the measured
    // per-device kernel rates, next to the measured rate.
    mgpusw::sim::SimConfig sim;
    sim.rows = query.size();
    sim.cols = subject.size();
    sim.block_rows = config.block_rows;
    sim.block_cols = config.block_cols;
    sim.buffer_capacity = config.buffer_capacity;
    std::string rates;
    for (int d = 0; d < kDevices; ++d) {
      vgpu::DeviceSpec spec = fleet.devices[d]->spec();
      spec.sw_gcups = slice_cells[d] / slice_busy[d];
      sim.devices.push_back(spec);
      char buf[96];
      std::snprintf(buf, sizeof(buf), "%s%s %.4f", d ? ", " : "",
                    spec.name.c_str(), spec.sw_gcups);
      rates += buf;
    }
    const mgpusw::sim::SimResult predicted = mgpusw::sim::simulate_pipeline(
        sim, engine.plan(query.size(), subject.size()));
    char line[512];
    std::snprintf(line, sizeof(line),
                  "megabase: measured kernel rates (cells/ns) %s; "
                  "simulate_pipeline on the executed plan predicts %.4f "
                  "cells/ns (%.3f s), measured %.4f cells/ns (%.3f s "
                  "median) under tracing",
                  rates.c_str(), predicted.gcups(), predicted.seconds(),
                  report.gcups, report.large_p50_ms * 1e-3);
    report.notes.push_back(line);
  }
  return report;
}

int write_megabase_expected(std::uint64_t first_seed, std::uint64_t count,
                            const std::string& path) {
  const OracleScheme scheme = oracle_scheme(mgpusw::sw::ScoreScheme{});
  std::string out =
      "{\n  \"pair\": \"chr21\",\n  \"scale\": 1024,\n"
      "  \"command\": \"python3 perfbench/run.py expected --first " +
      std::to_string(first_seed) + " --count " + std::to_string(count) +
      " --out " + path + "\",\n  \"entries\": [\n";
  // One seed per thread at a time: each oracle sweep is single-threaded.
  constexpr int kThreads = 4;
  std::vector<std::string> lines(count);
  std::atomic<std::uint64_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::uint64_t k = next++; k < count; k = next++) {
        const std::uint64_t seed = first_seed + k;
        const seq::HomologPair pair = make_inputs(seed);
        const OracleResult r =
            oracle_score(codes(pair.query), codes(pair.subject), scheme);
        char line[320];
        std::snprintf(line, sizeof(line),
                      "    {\"seed\": %llu, \"fingerprint\": \"%s\", "
                      "\"rows\": %lld, \"cols\": %lld, \"score\": %d, "
                      "\"end_row\": %lld, \"end_col\": %lld}%s\n",
                      static_cast<unsigned long long>(seed),
                      hex(fingerprint(pair.query, pair.subject)).c_str(),
                      static_cast<long long>(pair.query.size()),
                      static_cast<long long>(pair.subject.size()), r.score,
                      static_cast<long long>(r.end_row),
                      static_cast<long long>(r.end_col),
                      k + 1 < count ? "," : "");
        lines[k] = line;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& line : lines) out += line;
  out += "  ]\n}\n";
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  file << out;
  return 0;
}

}  // namespace perfbench
