// service: an in-process daemon at mgpusw-serve's defaults (ephemeral
// port, journal in the run's scratch directory) under a closed loop of
// three tenants, each on its own connection, each waiting for RESULT
// before its next SUBMIT. Two tenants send small jobs, one sends large
// jobs; every base travels inline.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "base/json.hpp"
#include "harness/common.hpp"
#include "serve/client_lib.hpp"
#include "serve/server.hpp"

namespace perfbench {

namespace {

namespace serve = mgpusw::serve;
namespace json = mgpusw::base::json;
namespace fs = std::filesystem;

constexpr int kSmallTenants = 2;
constexpr std::int64_t kSmallPool = 64;  // jobs per small tenant, cycled
// Not 256: a job needs 3 block columns (257 bases) to span the fleet.
constexpr std::int64_t kSmallMin = 300;
constexpr std::int64_t kSmallMax = 1024;
constexpr std::int64_t kLargePool = 8;
constexpr std::int64_t kLargeMin = 8192;
constexpr std::int64_t kLargeMax = 16384;
constexpr std::int64_t kClientTimeoutMs = 120000;  // a hang fails the run
constexpr std::int64_t kSwapChecks = 4;  // small pool entries re-sent swapped

struct Job {
  Pair pair;
  std::string query;  // inline bases
  std::string subject;
  bool large = false;
};

/// Tenant t's pool: t < kSmallTenants are small, the last is large.
/// Related and unrelated pairs alternate; sizes are stratified.
std::vector<std::vector<Job>> make_pools(std::uint64_t seed,
                                         std::int64_t* generate_ns) {
  Rng rng(seed);
  std::vector<std::vector<Job>> pools(kSmallTenants + 1);
  for (int t = 0; t <= kSmallTenants; ++t) {
    const bool large = t == kSmallTenants;
    const std::int64_t count = large ? kLargePool : kSmallPool;
    const std::int64_t lo = large ? kLargeMin : kSmallMin;
    const std::int64_t hi = large ? kLargeMax : kSmallMax;
    for (std::int64_t k = 0; k < count; ++k) {
      const bool related = k % 2 == 0;
      // The subject's stratum is a fixed permutation of the query's
      // (5 is coprime with both pool sizes).
      const std::int64_t qlen = stratified_length(rng, k, count, lo, hi);
      const std::int64_t slen =
          stratified_length(rng, (5 * k + 3) % count, count, lo, hi);
      Job job;
      job.pair = make_pair(rng.next(), qlen, slen, related, generate_ns);
      job.query = job.pair.query.to_string();
      job.subject = job.pair.subject.to_string();
      job.large = large;
      pools[static_cast<std::size_t>(t)].push_back(std::move(job));
    }
  }
  return pools;
}

serve::ServerConfig daemon_config(const std::string& journal_dir) {
  // mgpusw-serve's flag defaults, spelled out.
  serve::ServerConfig config;
  config.port = 0;
  config.devices = 3;
  config.scheduler_threads = 2;
  config.devices_per_job = 0;
  config.block = 128;
  config.quota.max_running_per_tenant = 1;
  config.quota.max_pending_per_tenant = 8;
  config.quota.reject_when_full = true;
  config.enable_recovery = true;
  config.recovery.max_restarts = 2;
  config.journal_dir = journal_dir;
  config.journal_fsync = false;
  config.journal_compact_min_appends = 512;
  return config;
}

/// One finished job as its tenant saw it.
struct Sample {
  int tenant = 0;
  std::int64_t pool_index = 0;
  double latency_ms = 0;
  double rtt_ms = 0;
  std::int64_t done_ns = 0;
  bool ok = false;
  std::int64_t score = -1;
  std::string result_json;
  std::string error;
};

std::int64_t dir_bytes(const fs::path& dir, bool recursive) {
  std::int64_t total = 0;
  std::error_code ec;
  if (recursive) {
    for (const auto& e : fs::recursive_directory_iterator(dir, ec)) {
      if (e.is_regular_file(ec)) total += static_cast<std::int64_t>(e.file_size(ec));
    }
  } else {
    for (const auto& e : fs::directory_iterator(dir, ec)) {
      if (e.is_regular_file(ec)) total += static_cast<std::int64_t>(e.file_size(ec));
    }
  }
  return total;
}

serve::SubmitRequest request(const std::string& tenant, const Job& job,
                             bool swapped) {
  serve::SubmitRequest r;
  r.tenant = tenant;
  r.label = tenant;
  r.query = swapped ? job.subject : job.query;
  r.subject = swapped ? job.query : job.subject;
  return r;
}

}  // namespace

RunReport run_service(const RunOptions& options, SpanLog& spans) {
  RunReport report;
  const std::string tenants[kSmallTenants + 1] = {"small-a", "small-b",
                                                  "large"};
  const fs::path scratch =
      fs::path(options.out_dir) / ("journal-" + std::to_string(getpid()));

  // --- set-up: daemon start (journal open + replay) plus inputs -------
  std::unique_ptr<serve::AlignServer> server;
  std::vector<std::vector<Job>> pools;
  std::vector<double> setup_s, generate_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const fs::path dir = scratch / std::to_string(k);
    fs::remove_all(dir);
    std::unique_ptr<serve::AlignServer> next;
    std::vector<std::vector<Job>> next_pools;
    std::int64_t gen_ns = 0;
    {
      ScopedSpan span(spans, "setup", k);
      const std::int64_t start = now_ns();
      next = std::make_unique<serve::AlignServer>(daemon_config(dir.string()));
      next->start();
      next_pools = make_pools(options.seed, &gen_ns);
      setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    }
    generate_s.push_back(static_cast<double>(gen_ns) * 1e-9);
    if (server != nullptr) server->stop();
    server = std::move(next);
    pools = std::move(next_pools);
  }
  report.setup_s = median(setup_s);
  report.layers.seq_generate_s = median(generate_s);
  const fs::path journal_dir = scratch / std::to_string(kSetupRepeats - 1);
  const std::uint16_t port = server->port();

  // --- timed phase: closed loop, one connection per tenant --------------
  std::vector<std::vector<Sample>> samples(kSmallTenants + 1);
  const std::int64_t t_start = now_ns();
  const std::int64_t deadline =
      t_start + static_cast<std::int64_t>(options.seconds * 1e9);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t <= kSmallTenants; ++t) {
      threads.emplace_back([&, t] {
        std::vector<Sample>& out = samples[static_cast<std::size_t>(t)];
        const std::vector<Job>& pool = pools[static_cast<std::size_t>(t)];
        try {
          serve::ServeClient client =
              serve::ServeClient::connect("127.0.0.1", port, kClientTimeoutMs);
          for (std::int64_t k = 0; now_ns() < deadline; ++k) {
            Sample s;
            s.tenant = t;
            s.pool_index = k % static_cast<std::int64_t>(pool.size());
            const serve::SubmitRequest req = request(
                tenants[t], pool[static_cast<std::size_t>(s.pool_index)],
                false);
            const std::int64_t op = t * 1000000 + k;  // shared by its spans
            try {
              const std::int64_t t0 = now_ns();
              std::int64_t id = 0;
              {
                ScopedSpan span(spans, "serve.submit", op);
                id = client.submit(req);
              }
              const std::int64_t t1 = now_ns();
              serve::JobStatus status;
              {
                ScopedSpan span(spans, "serve.result", op);
                status = client.result(id, true);
              }
              s.done_ns = now_ns();
              s.latency_ms = static_cast<double>(s.done_ns - t0) * 1e-6;
              s.rtt_ms = static_cast<double>(t1 - t0) * 1e-6;
              s.ok = status.state == serve::JobState::kDone;
              s.score = status.score;
              s.result_json = std::move(status.result_json);
              s.error = status.error;
            } catch (const std::exception& e) {
              s.done_ns = now_ns();
              s.error = e.what();
            }
            out.push_back(std::move(s));
          }
        } catch (const std::exception& e) {
          Sample s;
          s.tenant = t;
          s.error = std::string("connect: ") + e.what();
          out.push_back(std::move(s));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  std::int64_t t_end = t_start;
  for (const auto& tenant : samples) {
    for (const Sample& s : tenant) t_end = std::max(t_end, s.done_ns);
  }
  const double elapsed_s = static_cast<double>(t_end - t_start) * 1e-9;
  report.peak_rss_mb = peak_rss_mb();

  // --- end-to-end figures -------------------------------------------------
  std::vector<double> small_ms, large_ms;
  double cells = 0;
  for (const auto& tenant : samples) {
    for (const Sample& s : tenant) {
      ++report.attempted;
      if (!s.ok) {
        ++report.failed;
        continue;
      }
      const Job& job = pools[static_cast<std::size_t>(s.tenant)]
                            [static_cast<std::size_t>(s.pool_index)];
      cells += static_cast<double>(job.pair.query.size() *
                                   job.pair.subject.size());
      (job.large ? large_ms : small_ms).push_back(s.latency_ms);
    }
  }
  report.gcups = cells / (elapsed_s * 1e9);
  report.small_p50_ms = median(small_ms);
  report.small_tail_ms = tail(small_ms);
  report.small_samples = static_cast<std::int64_t>(small_ms.size());
  report.large_p50_ms = median(large_ms);
  report.large_samples = static_cast<std::int64_t>(large_ms.size());

  // --- checks (untimed) -----------------------------------------------------
  const OracleScheme scheme = oracle_scheme(mgpusw::sw::ScoreScheme{});
  Checker checker(scheme);
  std::vector<std::vector<OracleResult>> oracle;
  {
    ScopedSpan span(spans, "oracle");
    std::vector<std::pair<const seq::Sequence*, const seq::Sequence*>> pairs;
    for (const auto& pool : pools) {
      for (const Job& job : pool) {
        pairs.emplace_back(&job.pair.query, &job.pair.subject);
      }
    }
    const std::vector<OracleResult> flat = oracle_all(pairs, scheme);
    auto next = flat.begin();
    for (const auto& pool : pools) {
      oracle.emplace_back(next, next + static_cast<std::ptrdiff_t>(pool.size()));
      next += static_cast<std::ptrdiff_t>(pool.size());
    }
  }
  const auto oracle_of = [&](int t, std::int64_t k) -> const OracleResult& {
    return oracle[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)];
  };
  std::vector<json::Value> reports;  // parsed RESULT reports of done jobs
  std::vector<double> overhead_ms, rtt_ms, result_bytes;
  for (const auto& tenant : samples) {
    for (const Sample& s : tenant) {
      const std::string label =
          tenants[s.tenant] + " job " + std::to_string(s.pool_index);
      if (!s.ok) {  // counted in `failed`; correctness covers the rest
        report.notes.push_back(label + " did not finish: " + s.error);
        continue;
      }
      const Job& job = pools[static_cast<std::size_t>(s.tenant)]
                            [static_cast<std::size_t>(s.pool_index)];
      json::Value result = json::parse(s.result_json);
      checker.expect(label, s.score, result.at("end_row").as_int(),
                     result.at("end_col").as_int(), job.pair.query.size(),
                     job.pair.subject.size(),
                     oracle_of(s.tenant, s.pool_index));
      overhead_ms.push_back(s.latency_ms -
                            result.at("wall_seconds").number * 1e3);
      rtt_ms.push_back(s.rtt_ms);
      result_bytes.push_back(static_cast<double>(s.result_json.size()));
      reports.push_back(std::move(result));
    }
  }
  std::vector<std::int64_t> related_scores, unrelated_scores;
  for (int t = 0; t <= kSmallTenants; ++t) {
    for (std::int64_t k = 0;
         k < static_cast<std::int64_t>(pools[static_cast<std::size_t>(t)].size());
         ++k) {
      const Job& job = pools[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)];
      (job.pair.related ? related_scores : unrelated_scores)
          .push_back(oracle_of(t, k).score);
    }
  }
  checker.expect_separation("service", related_scores, unrelated_scores);

  std::string metrics_json;
  try {
    serve::ServeClient client =
        serve::ServeClient::connect("127.0.0.1", port, kClientTimeoutMs);
    if (options.trace) {
      ScopedSpan span(spans, "serve.metrics");
      metrics_json = client.metrics_json();
    }
    // Swap property through the daemon, after the timed phase.
    for (std::int64_t k = 0; k < kSwapChecks; ++k) {
      const Job& job = pools[0][static_cast<std::size_t>(k)];
      const serve::JobStatus status =
          client.result(client.submit(request(tenants[0], job, true)), true);
      checker.expect_swap("small-a job " + std::to_string(k) + " swapped",
                          oracle_of(0, k).score, status.score);
    }
  } catch (const std::exception& e) {
    checker.fail(std::string("post-run client: ") + e.what());
  }

  // --- per-layer figures (traced run) ---------------------------------------
  if (options.trace && !reports.empty()) {
    LayerMetrics& m = report.layers;
    // The daemon's devices are private: rebuild each job's per-device
    // stats from its RESULT report. One kernel launch per block.
    EngineTally tally;
    for (const json::Value& r : reports) {
      std::vector<mgpusw::core::DeviceRunStats> devices;
      for (const json::Value& d : r.at("devices").array) {
        mgpusw::core::DeviceRunStats s;
        s.busy_ns = d.at("busy_ns").as_int();
        s.cells = d.at("cells").as_int();
        s.blocks = d.at("blocks").as_int();
        s.chunks_sent = d.at("chunks_sent").as_int();
        s.bytes_sent = d.at("bytes_sent").as_int();
        s.overflow_reruns = d.at("overflow_reruns").as_int();
        devices.push_back(s);
      }
      tally.add(devices, r.at("wall_seconds").number);
    }
    tally.finish(m);
    const double n = tally.count();
    m.vgpu_kernel_launches = m.engine_blocks_computed;
    if (!metrics_json.empty()) {
      m.comm_border_wait_p50_ms =
          histogram_p50(metrics_json, "comm.border_wait_ms");
      m.fleet_lease_wait_p50_ms =
          histogram_p50(metrics_json, "fleet.lease_wait_ms");
      m.fleet_lease_wait_max_ms =
          histogram_max(metrics_json, "fleet.lease_wait_ms");
      m.fleet_leases_granted = counter(metrics_json, "fleet.leases_granted") / n;
      m.batch_items_completed =
          counter(metrics_json, "batch.items_completed") / n;
      m.batch_interseq_items = counter(metrics_json, "batch.interseq_items") / n;
      m.checkpoint_segments_saved =
          counter(metrics_json, "checkpoint.segments_saved") / n;
      m.checkpoint_bytes = counter(metrics_json, "checkpoint.bytes") / n;
      m.serve_journal_appends =
          counter(metrics_json, "serve.journal_appends") / n;
      m.serve_journal_checkpoints =
          counter(metrics_json, "serve.journal_checkpoints") / n;
    }
    m.serve_submit_rtt_ms = median(rtt_ms);
    m.serve_overhead_ms = median(overhead_ms);
    m.serve_result_bytes = median(result_bytes);
    m.serve_journal_bytes = static_cast<double>(dir_bytes(journal_dir, false));
    char line[256];
    std::snprintf(line, sizeof(line),
                  "service: %.4f cells/ns under tracing; journal directory "
                  "holds %lld bytes (checkpoint spills included) after %zu "
                  "jobs",
                  report.gcups,
                  static_cast<long long>(dir_bytes(journal_dir, true)),
                  reports.size());
    report.notes.push_back(line);
  }
  report.errors.insert(report.errors.end(), checker.errors().begin(),
                       checker.errors().end());

  server->stop();
  server.reset();
  std::error_code ec;
  fs::remove_all(scratch, ec);
  return report;
}

}  // namespace perfbench
