// short_reads: one core::run_batch over a seeded batch of read-length
// pairs at batch_compare's defaults, repeated in whole rounds until the
// run's time is up.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/batch.hpp"
#include "core/engine.hpp"
#include "core/fleet.hpp"
#include "harness/common.hpp"
#include "obs/metrics.hpp"
#include "sw/batch_simd.hpp"
#include "vgpu/device.hpp"
#include "vgpu/spec.hpp"

namespace perfbench {

namespace {

namespace core = mgpusw::core;
namespace vgpu = mgpusw::vgpu;

constexpr int kDevices = 3;
constexpr std::int64_t kPairs = 3000;
// Reads start at 300 bases: whole-fleet leases cannot split a subject of
// fewer than 3 block columns (257 bases) over 3 devices, and run_batch
// aborts the whole batch on such an item.
constexpr std::int64_t kMinLen = 300;
constexpr std::int64_t kMaxLen = 1000;
constexpr std::int64_t kSwapEvery = 100;  // items re-run with sides swapped
// The item tail is taken over blocks of this many consecutive items
// (p96 each), then the median over blocks: over a whole 3000-item round
// the tail (p99.6) is set by the host's millisecond preemptions, not by
// the program, and moved by a fifth between runs.
constexpr std::size_t kTailBlock = 300;

std::unique_ptr<core::DeviceFleet> make_fleet() {
  const std::vector<vgpu::DeviceSpec> env = vgpu::environment1();
  std::vector<std::unique_ptr<vgpu::Device>> devices;
  for (int d = 0; d < kDevices; ++d) {
    devices.push_back(std::make_unique<vgpu::Device>(
        env[static_cast<std::size_t>(d) % env.size()]));
  }
  return std::make_unique<core::DeviceFleet>(std::move(devices));
}

/// Half related (about 90% identity), half unrelated; lengths spread
/// evenly over [kMinLen, kMaxLen] in both classes.
std::vector<core::BatchItem> make_items(std::uint64_t seed,
                                        std::vector<bool>& related,
                                        std::int64_t* generate_ns) {
  Rng rng(seed);
  std::vector<core::BatchItem> items;
  related.clear();
  for (std::int64_t k = 0; k < kPairs; ++k) {
    const bool rel = k % 2 == 0;
    const std::int64_t stratum = k / 2;
    // The subject's stratum is a fixed permutation of the query's (7 is
    // coprime with the stratum count).
    const std::int64_t qlen =
        stratified_length(rng, stratum, kPairs / 2, kMinLen, kMaxLen);
    const std::int64_t slen = stratified_length(
        rng, (7 * stratum + 3) % (kPairs / 2), kPairs / 2, kMinLen, kMaxLen);
    Pair pair = make_pair(rng.next(), qlen, slen, rel, generate_ns);
    core::BatchItem item;
    item.label = "read" + std::to_string(k);
    item.query = std::move(pair.query);
    item.subject = std::move(pair.subject);
    items.push_back(std::move(item));
    related.push_back(rel);
  }
  return items;
}

std::int64_t launches(core::DeviceFleet& fleet) {
  const core::DeviceLease lease = fleet.acquire(fleet.size());
  std::int64_t total = 0;
  for (const vgpu::Device* d : lease.devices()) total += d->kernels_launched();
  return total;
}

}  // namespace

RunReport run_short_reads(const RunOptions& options, SpanLog& spans) {
  RunReport report;

  // --- set-up: fleet start plus input generation, repeated ------------
  std::unique_ptr<core::DeviceFleet> fleet;
  std::vector<core::BatchItem> items;
  std::vector<bool> related;
  std::vector<double> setup_s, generate_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    ScopedSpan span(spans, "setup", k);
    std::int64_t gen_ns = 0;
    const std::int64_t start = now_ns();
    std::unique_ptr<core::DeviceFleet> next = make_fleet();
    std::vector<core::BatchItem> batch =
        make_items(options.seed, related, &gen_ns);
    setup_s.push_back(static_cast<double>(now_ns() - start) * 1e-9);
    generate_s.push_back(static_cast<double>(gen_ns) * 1e-9);
    fleet = std::move(next);
    items = std::move(batch);
  }
  report.setup_s = median(setup_s);
  report.layers.seq_generate_s = median(generate_s);

  // --- batch at batch_compare's defaults --------------------------------
  core::BatchConfig config;
  config.engine.block_rows = 128;
  config.engine.block_cols = 128;
  config.devices_per_item = 0;
  config.max_in_flight = 1;
  config.interseq_max_len = 0;
  std::vector<std::int64_t> done_ns(items.size(), 0);
  config.on_item_done = [&](std::size_t index, const core::BatchItemResult&,
                            std::exception_ptr) {
    done_ns[index] = now_ns();
  };
  mgpusw::obs::MetricsRegistry registry;
  if (options.trace) {
    config.engine.obs.metrics = &registry;
    config.engine.obs.profile_phases = true;
    mgpusw::obs::Scope scope;
    scope.metrics = &registry;
    fleet->set_obs(scope);
  }

  // Warm-up on the first few items, untimed.
  {
    const std::vector<core::BatchItem> head(items.begin(), items.begin() + 16);
    core::BatchConfig warm = config;
    warm.on_item_done = nullptr;
    warm.engine.obs = {};
    (void)core::run_batch(warm, *fleet, head);
  }

  // --- timed phase: whole rounds ------------------------------------------
  double cells = 0;
  for (const core::BatchItem& item : items) {
    cells += static_cast<double>(item.query.size() * item.subject.size());
  }
  // Each round is checked and tallied as it ends and then dropped, so the
  // harness's own memory does not grow with the run: the first round's
  // results go to the oracle below, later rounds must repeat them exactly.
  std::vector<mgpusw::sw::ScoreResult> first_best;
  std::vector<std::string> round_errors;
  EngineTally tally;
  std::int64_t rounds = 0;
  std::vector<double> item_ms, item_tail_ms, batch_ms, batch_gcups;
  const std::int64_t launches_before =
      options.trace ? launches(*fleet) : 0;
  const std::int64_t leases_before =
      registry.counter_value("fleet.leases_granted");
  const std::int64_t t_start = now_ns();
  const auto budget = static_cast<std::int64_t>(options.seconds * 1e9);
  std::int64_t t_end = t_start;
  while (t_end - t_start < budget) {
    report.attempted += static_cast<std::int64_t>(items.size());
    const std::int64_t t0 = now_ns();
    core::BatchResult result;
    try {
      ScopedSpan span(spans, "batch.run_batch", rounds);
      result = core::run_batch(config, *fleet, items);
    } catch (const std::exception& e) {
      t_end = now_ns();
      report.failed += static_cast<std::int64_t>(items.size());
      report.notes.push_back(std::string("batch failed: ") + e.what());
      continue;
    }
    t_end = now_ns();
    if (result.items.size() != items.size()) {
      round_errors.push_back("round " + std::to_string(rounds) + " returned " +
                             std::to_string(result.items.size()) + " results");
    } else {
      const bool first = first_best.empty();
      for (std::size_t i = 0; i < items.size(); ++i) {
        const mgpusw::sw::ScoreResult& best = result.items[i].result.best;
        if (first) {
          first_best.push_back(best);
        } else if (!(best == first_best[i]) && round_errors.size() < 20) {
          round_errors.push_back(items[i].label + ": round " +
                                 std::to_string(rounds) +
                                 " differs from the first round");
        }
        if (options.trace) {
          tally.add(result.items[i].result.devices,
                    result.items[i].result.wall_seconds);
        }
      }
    }
    ++rounds;
    batch_ms.push_back(static_cast<double>(t_end - t0) * 1e-6);
    batch_gcups.push_back(cells / static_cast<double>(t_end - t0));
    std::vector<std::int64_t> done = done_ns;
    std::sort(done.begin(), done.end());
    std::vector<double> service_ms;
    std::int64_t last = t0;
    for (const std::int64_t t : done) {
      service_ms.push_back(static_cast<double>(t - last) * 1e-6);
      last = t;
    }
    for (std::size_t b = 0; b + kTailBlock <= service_ms.size();
         b += kTailBlock) {
      item_tail_ms.push_back(tail(std::vector<double>(
          service_ms.begin() + static_cast<std::ptrdiff_t>(b),
          service_ms.begin() + static_cast<std::ptrdiff_t>(b + kTailBlock))));
    }
    item_ms.insert(item_ms.end(), service_ms.begin(), service_ms.end());
  }
  report.peak_rss_mb = peak_rss_mb();
  const std::int64_t leases_in_loop =
      registry.counter_value("fleet.leases_granted") - leases_before;
  const std::int64_t launches_in_loop =
      options.trace ? launches(*fleet) - launches_before : 0;

  // Medians over rounds, as in megabase.
  report.gcups = median(batch_gcups);
  report.small_p50_ms = median(item_ms);
  report.small_tail_ms = median(item_tail_ms);
  report.small_samples = static_cast<std::int64_t>(item_ms.size());
  report.large_p50_ms = median(batch_ms);
  report.large_samples = static_cast<std::int64_t>(batch_ms.size());

  // --- checks (untimed) -----------------------------------------------------
  Checker checker(oracle_scheme(config.engine.scheme));
  std::vector<OracleResult> oracle;
  {
    ScopedSpan span(spans, "oracle");
    std::vector<std::pair<const seq::Sequence*, const seq::Sequence*>> pairs;
    for (const core::BatchItem& item : items) {
      pairs.emplace_back(&item.query, &item.subject);
    }
    oracle = oracle_all(pairs, oracle_scheme(config.engine.scheme));
  }
  for (const std::string& error : round_errors) checker.fail(error);
  for (std::size_t i = 0; i < first_best.size(); ++i) {
    const mgpusw::sw::ScoreResult& best = first_best[i];
    checker.expect(items[i].label, best.score, best.end.row, best.end.col,
                   items[i].query.size(), items[i].subject.size(), oracle[i]);
  }
  std::vector<std::int64_t> related_scores, unrelated_scores;
  for (std::size_t i = 0; i < items.size(); ++i) {
    (related[i] ? related_scores : unrelated_scores)
        .push_back(oracle[i].score);
  }
  checker.expect_separation("short_reads", related_scores, unrelated_scores);
  if (!first_best.empty()) {
    const core::DeviceLease lease = fleet->acquire(fleet->size());
    core::EngineConfig plain = config.engine;
    plain.obs = {};
    core::MultiDeviceEngine engine(plain, lease.devices());
    for (std::size_t i = 0; i < items.size(); i += kSwapEvery) {
      const core::EngineResult swapped =
          engine.run(items[i].subject, items[i].query);
      checker.expect_swap(items[i].label, first_best[i].score,
                          swapped.best.score);
    }
  }

  // --- per-layer figures (traced run) ---------------------------------------
  if (options.trace && tally.count() > 0) {
    LayerMetrics& m = report.layers;
    tally.finish(m);
    const double n = tally.count();
    m.vgpu_kernel_launches = static_cast<double>(launches_in_loop) / n;
    const std::string snapshot = registry.to_json();
    m.comm_border_wait_p50_ms = histogram_p50(snapshot, "comm.border_wait_ms");
    m.fleet_lease_wait_p50_ms = histogram_p50(snapshot, "fleet.lease_wait_ms");
    m.fleet_lease_wait_max_ms = histogram_max(snapshot, "fleet.lease_wait_ms");
    m.fleet_leases_granted = static_cast<double>(leases_in_loop) / n;
    m.batch_items_completed = counter(snapshot, "batch.items_completed") / n;
    m.batch_interseq_items = counter(snapshot, "batch.interseq_items") / n;
    m.checkpoint_segments_saved =
        counter(snapshot, "checkpoint.segments_saved") / n;
    m.checkpoint_bytes = counter(snapshot, "checkpoint.bytes") / n;

    // Headroom: the inter-sequence kernel timed directly on the batch.
    std::vector<std::vector<mgpusw::seq::Nt>> bases;
    for (const core::BatchItem& item : items) {
      for (const seq::Sequence* s : {&item.query, &item.subject}) {
        std::vector<mgpusw::seq::Nt> b(static_cast<std::size_t>(s->size()));
        s->extract(0, s->size(), b.data());
        bases.push_back(std::move(b));
      }
    }
    std::vector<mgpusw::sw::PairView> views;
    for (std::size_t i = 0; i < items.size(); ++i) {
      views.push_back({bases[2 * i].data(), items[i].query.size(),
                       bases[2 * i + 1].data(), items[i].subject.size()});
    }
    const std::int64_t k0 = now_ns();
    std::vector<mgpusw::sw::ScoreResult> interseq;
    {
      ScopedSpan span(spans, "sw.batch_align_scores");
      interseq = mgpusw::sw::batch_align_scores(config.engine.scheme, views);
    }
    m.sw_interseq_gcups = cells / static_cast<double>(now_ns() - k0);
    for (std::size_t i = 0; i < items.size(); ++i) {
      checker.expect(items[i].label + " (interseq)", interseq[i].score,
                     interseq[i].end.row, interseq[i].end.col,
                     items[i].query.size(), items[i].subject.size(),
                     oracle[i]);
    }
    char line[160];
    std::snprintf(line, sizeof(line),
                  "short_reads: %.4f cells/ns under tracing", report.gcups);
    report.notes.push_back(line);
  }
  report.errors.insert(report.errors.end(), checker.errors().begin(),
                       checker.errors().end());
  return report;
}

}  // namespace perfbench
