// R-B2: microbenchmarks of the computational kernels (google-benchmark).
//
// Measures the raw cell-update rate of every registered block kernel
// (sw::kernel_registry — the benchmark set grows automatically with the
// registry) across tile sizes, plus the serial scan, banded scan, chunk
// serialization and channel round-trips. These host rates are what the
// `toy_device` profiles and the real-mode GCUPS numbers trace back to.
//
// After the google-benchmark run, a summary pass times each kernel on a
// large square block, on the engine's 128x128 block and on the 128-row
// tiles the row-major engine computes per block row of a device's slice
// (also with the high-score wedge a homolog alignment leaves on such a
// row's top border), prints per-kernel GCUPS tables with the speedup
// over a reference kernel, and records the run in a JSON file
// (--kernels_json=PATH, default BENCH_kernels.json; empty disables).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/format.hpp"
#include "base/json.hpp"
#include "base/rng.hpp"
#include "base/time.hpp"
#include "bench/bench_util.hpp"
#include "comm/channel.hpp"
#include "comm/serialize.hpp"
#include "sw/banded.hpp"
#include "sw/batch_simd.hpp"
#include "sw/block.hpp"
#include "sw/block_simd.hpp"
#include "sw/kernel.hpp"
#include "sw/linear.hpp"
#include "sw/myers_miller.hpp"

namespace {

using namespace mgpusw;

std::vector<seq::Nt> random_bases(std::int64_t length, std::uint64_t seed) {
  base::Rng rng(seed);
  std::vector<seq::Nt> out(static_cast<std::size_t>(length));
  for (auto& nt : out) nt = static_cast<seq::Nt>(rng.next_below(4));
  return out;
}

/// Reusable rows x cols block harness; borders are reset per run because
/// the kernel overwrites them in place. The top border's H values are
/// `top_h` (all zero when empty).
class BlockHarness {
 public:
  explicit BlockHarness(std::int64_t tile) : BlockHarness(tile, tile) {}
  BlockHarness(std::int64_t rows, std::int64_t cols,
               std::vector<sw::Score> top_h = {})
      : rows_(rows),
        cols_(cols),
        query_(random_bases(rows, 1)),
        subject_(random_bases(cols, 2)),
        top_h_(top_h.empty() ? std::vector<sw::Score>(
                                   static_cast<std::size_t>(cols), 0)
                             : std::move(top_h)),
        row_h_(static_cast<std::size_t>(cols)),
        row_f_(static_cast<std::size_t>(cols)),
        col_h_(static_cast<std::size_t>(rows)),
        col_e_(static_cast<std::size_t>(rows)) {}

  sw::BlockResult run(sw::BlockKernelFn fn, const sw::ScoreScheme& scheme) {
    std::copy(top_h_.begin(), top_h_.end(), row_h_.begin());
    std::fill(row_f_.begin(), row_f_.end(), sw::kNegInf);
    std::fill(col_h_.begin(), col_h_.end(), 0);
    std::fill(col_e_.begin(), col_e_.end(), sw::kNegInf);
    sw::BlockArgs args;
    args.query = query_.data();
    args.subject = subject_.data();
    args.rows = rows_;
    args.cols = cols_;
    args.top_h = row_h_.data();
    args.top_f = row_f_.data();
    args.left_h = col_h_.data();
    args.left_e = col_e_.data();
    args.bottom_h = row_h_.data();
    args.bottom_f = row_f_.data();
    args.right_h = col_h_.data();
    args.right_e = col_e_.data();
    return fn(scheme, args);
  }

 private:
  std::int64_t rows_, cols_;
  std::vector<seq::Nt> query_, subject_;
  std::vector<sw::Score> top_h_;
  std::vector<sw::Score> row_h_, row_f_, col_h_, col_e_;
};

void BM_BlockKernel(benchmark::State& state, sw::BlockKernelFn fn) {
  const std::int64_t tile = state.range(0);
  BlockHarness harness(tile);
  const sw::ScoreScheme scheme;
  for (auto _ : state) {
    benchmark::DoNotOptimize(harness.run(fn, scheme));
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(tile) * static_cast<double>(tile) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_LinearScan(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const seq::Sequence a("a", random_bases(n, 3));
  const seq::Sequence b("b", random_bases(n, 4));
  const sw::ScoreScheme scheme;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw::linear_score(scheme, a, b));
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(n) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LinearScan)->Arg(512)->Arg(2048);

void BM_BandedScan(benchmark::State& state) {
  const std::int64_t n = 4096;
  const std::int64_t radius = state.range(0);
  const seq::Sequence a("a", random_bases(n, 5));
  const seq::Sequence b("b", random_bases(n, 6));
  const sw::ScoreScheme scheme;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw::banded_score(scheme, a, b, radius));
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(2 * radius + 1) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BandedScan)->Arg(32)->Arg(256);

void BM_MyersMillerGlobal(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const seq::Sequence a("a", random_bases(n, 7));
  const seq::Sequence b("b", random_bases(n, 8));
  const sw::ScoreScheme scheme;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw::global_align(scheme, a, b));
  }
}
BENCHMARK(BM_MyersMillerGlobal)->Arg(256)->Arg(1024);

void BM_ChunkSerialize(benchmark::State& state) {
  comm::BorderChunk chunk;
  chunk.h.assign(static_cast<std::size_t>(state.range(0)), 42);
  chunk.e.assign(static_cast<std::size_t>(state.range(0)), -7);
  for (auto _ : state) {
    const auto frame = comm::serialize_chunk(chunk);
    benchmark::DoNotOptimize(
        comm::deserialize_chunk(frame.data(), frame.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(
                              comm::frame_bytes(state.range(0))));
}
BENCHMARK(BM_ChunkSerialize)->Arg(512)->Arg(8192);

void BM_RingChannelRoundTrip(benchmark::State& state) {
  auto channel = comm::make_ring_channel(16);
  comm::BorderChunk chunk;
  chunk.h.assign(512, 1);
  chunk.e.assign(512, 2);
  std::atomic<bool> stop{false};
  std::thread consumer([&] {
    while (true) {
      auto received = channel.source->recv();
      if (!received.has_value()) break;
    }
  });
  for (auto _ : state) {
    channel.sink->send(chunk);
  }
  channel.sink->close();
  consumer.join();
  stop = true;
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RingChannelRoundTrip);

// ---------------------------------------------------------------------------
// per-kernel GCUPS summary + JSON record

struct KernelRate {
  std::string name;
  double gcups = 0.0;
};

using NamedRun = std::pair<std::string, std::function<void()>>;

/// GCUPS of each named run (each computes `cells` cells): the min-of-N
/// seconds per run, with warmup and inner batching, timed round-robin.
///
/// `warmup` untimed runs heat caches, fault in pages and settle the CPU
/// frequency — without them the kernels measured first paid the whole
/// cold-start bill, which is how sse42 used to "beat" avx2 in this
/// table (the avx2 backends simply ran first). Each run's batch is
/// calibrated once to cover `min_rep_seconds`, so clock granularity
/// cannot dominate short kernels. Repetition r times every run once
/// before repetition r+1 starts, so a slow spell on a shared host spreads
/// over the runs of a repetition instead of landing on whichever kernel
/// was being timed; the minimum over `reps` repetitions is reported
/// (noise only ever slows a run down).
std::vector<KernelRate> round_robin_rates(const std::vector<NamedRun>& runs,
                                          std::int64_t cells, int warmup,
                                          int reps, double min_rep_seconds) {
  std::vector<std::int64_t> batches;
  for (const auto& [name, run] : runs) {
    for (int i = 0; i < warmup; ++i) run();
    std::int64_t batch = 1;
    for (;;) {  // calibrate the batch size once
      base::WallTimer timer;
      for (std::int64_t k = 0; k < batch; ++k) run();
      if (timer.elapsed_seconds() >= min_rep_seconds ||
          batch >= (std::int64_t{1} << 24)) {
        break;
      }
      batch *= 4;
    }
    batches.push_back(batch);
  }
  std::vector<double> best(runs.size(), 1e300);
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t r = 0; r < runs.size(); ++r) {
      base::WallTimer timer;
      for (std::int64_t k = 0; k < batches[r]; ++k) runs[r].second();
      best[r] = std::min(best[r], timer.elapsed_seconds() /
                                      static_cast<double>(batches[r]));
    }
  }
  std::vector<KernelRate> rates;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    rates.push_back({runs[r].first, base::gcups(cells, best[r])});
  }
  return rates;
}

/// The named kernels on one rows x cols block whose top border's H
/// values are `top_h` (all zero when empty).
std::vector<KernelRate> measure_block_rates(
    const std::vector<std::string>& kernels, std::int64_t rows,
    std::int64_t cols, int reps, std::vector<sw::Score> top_h = {}) {
  BlockHarness harness(rows, cols, std::move(top_h));
  const sw::ScoreScheme scheme;
  std::vector<NamedRun> runs;
  for (const std::string& name : kernels) {
    runs.emplace_back(name, [&harness, &scheme, fn = sw::find_kernel(name)] {
      benchmark::DoNotOptimize(harness.run(fn, scheme));
    });
  }
  return round_robin_rates(runs, rows * cols, /*warmup=*/2, reps,
                           /*min_rep_seconds=*/0.02);
}

/// Every registered kernel on one rows x cols block.
std::vector<KernelRate> measure_block_rates(std::int64_t rows,
                                            std::int64_t cols, int reps) {
  std::vector<std::string> kernels;
  for (const sw::KernelInfo& info : sw::kernel_registry()) {
    kernels.push_back(info.name);
  }
  return measure_block_rates(kernels, rows, cols, reps);
}

/// The top border of one block row behind a homolog alignment, the
/// shape of chromosome_compare's chr21/1024 slices: H is 0 left of the
/// point where the alignment crossed the row (a quarter in) and decays
/// from there by the gap extension per column, staying above int8 over
/// half the width.
std::vector<sw::Score> wedge_top_border(std::int64_t cols,
                                        const sw::ScoreScheme& scheme) {
  const std::int64_t peak_col = cols / 4;
  const sw::Score peak =
      127 + scheme.gap_extend * static_cast<sw::Score>(cols / 2);
  std::vector<sw::Score> top_h(static_cast<std::size_t>(cols), 0);
  for (std::int64_t c = peak_col; c < cols; ++c) {
    top_h[static_cast<std::size_t>(c)] = std::max<sw::Score>(
        0, peak - scheme.gap_extend * static_cast<sw::Score>(c - peak_col));
  }
  return top_h;
}

/// Megabase-shaped workload: one block-row strip swept left to right in
/// engine-sized tiles with rolling borders — the shape the paper's
/// megabase runs spend all their time in (long runs of homology push H
/// high, unlike a single random square block).
class StripHarness {
 public:
  StripHarness(std::int64_t rows, std::int64_t cols, std::int64_t tile_cols)
      : rows_(rows),
        cols_(cols),
        tile_cols_(tile_cols),
        query_(random_bases(rows, 21)),
        subject_(random_bases(cols, 22)),
        row_h_(static_cast<std::size_t>(cols)),
        row_f_(static_cast<std::size_t>(cols)),
        col_h_(static_cast<std::size_t>(rows)),
        col_e_(static_cast<std::size_t>(rows)) {}

  sw::BlockResult run(sw::BlockKernelFn fn, const sw::ScoreScheme& scheme) {
    std::fill(row_h_.begin(), row_h_.end(), 0);
    std::fill(row_f_.begin(), row_f_.end(), sw::kNegInf);
    std::fill(col_h_.begin(), col_h_.end(), 0);
    std::fill(col_e_.begin(), col_e_.end(), sw::kNegInf);
    sw::BlockResult strip;
    sw::Score corner = 0;
    for (std::int64_t c0 = 0; c0 < cols_; c0 += tile_cols_) {
      const std::int64_t tile = std::min(tile_cols_, cols_ - c0);
      sw::BlockArgs args;
      args.query = query_.data();
      args.subject = subject_.data() + c0;
      args.rows = rows_;
      args.cols = tile;
      args.global_col = c0;
      args.corner_h = corner;
      args.top_h = row_h_.data() + c0;
      args.top_f = row_f_.data() + c0;
      args.bottom_h = row_h_.data() + c0;
      args.bottom_f = row_f_.data() + c0;
      // Left/right alias: each tile's right border rolls into the next
      // tile's left border, exactly as the engine's slice loop does.
      corner = row_h_[static_cast<std::size_t>(c0 + tile - 1)];
      args.left_h = col_h_.data();
      args.left_e = col_e_.data();
      args.right_h = col_h_.data();
      args.right_e = col_e_.data();
      const sw::BlockResult tile_result = fn(scheme, args);
      if (sw::improves(tile_result.best, strip.best)) {
        strip.best = tile_result.best;
      }
      strip.border_max = std::max(strip.border_max, tile_result.border_max);
      strip.overflow_reruns += tile_result.overflow_reruns;
    }
    return strip;
  }

  [[nodiscard]] std::int64_t cells() const { return rows_ * cols_; }

 private:
  std::int64_t rows_, cols_, tile_cols_;
  std::vector<seq::Nt> query_, subject_;
  std::vector<sw::Score> row_h_, row_f_, col_h_, col_e_;
};

std::vector<KernelRate> measure_strip_rates(
    const std::vector<std::string>& kernels, StripHarness& harness,
    int reps) {
  const sw::ScoreScheme scheme;
  std::vector<NamedRun> runs;
  for (const std::string& name : kernels) {
    runs.emplace_back(name, [&harness, &scheme, fn = sw::find_kernel(name)] {
      benchmark::DoNotOptimize(harness.run(fn, scheme));
    });
  }
  return round_robin_rates(runs, harness.cells(), /*warmup=*/1, reps,
                           /*min_rep_seconds=*/0.0);
}

/// Short-pair batch workload for the inter-sequence kernels.
struct BatchHarness {
  std::vector<std::vector<seq::Nt>> codes;
  std::vector<sw::PairView> views;
  std::int64_t total_cells = 0;

  BatchHarness(std::int64_t pairs, std::int64_t pair_len) {
    codes.reserve(static_cast<std::size_t>(2 * pairs));
    for (std::int64_t p = 0; p < pairs; ++p) {
      codes.push_back(random_bases(pair_len, 100 + 2 * p));
      codes.push_back(random_bases(pair_len, 101 + 2 * p));
      total_cells += pair_len * pair_len;
    }
    views.resize(static_cast<std::size_t>(pairs));
    for (std::size_t k = 0; k < views.size(); ++k) {
      views[k].query = codes[2 * k].data();
      views[k].query_len = static_cast<std::int64_t>(codes[2 * k].size());
      views[k].subject = codes[2 * k + 1].data();
      views[k].subject_len =
          static_cast<std::int64_t>(codes[2 * k + 1].size());
    }
  }
};

/// Each timed run aligns the next `slice_pairs` pairs of the batch
/// (every kernel walks the same slices in the same order), so a
/// repetition lasts milliseconds rather than a whole half-gigacell batch
/// and a slow spell on a shared host spoils few of the many repetitions.
std::vector<KernelRate> measure_batch_rates(const BatchHarness& harness,
                                            std::int64_t slice_pairs,
                                            int reps) {
  const sw::ScoreScheme scheme;
  const auto pairs = static_cast<std::int64_t>(harness.views.size());
  slice_pairs = std::min(slice_pairs, pairs);
  std::vector<std::vector<sw::PairView>> slices;
  for (std::int64_t p = 0; p + slice_pairs <= pairs; p += slice_pairs) {
    slices.emplace_back(harness.views.begin() + p,
                        harness.views.begin() + p + slice_pairs);
  }
  std::vector<NamedRun> runs;
  for (const std::string& name : sw::batch_kernel_names()) {
    runs.emplace_back(name, [&slices, &scheme, name, next = std::size_t{0}]()
                                mutable {
      benchmark::DoNotOptimize(
          sw::batch_align_scores(scheme, slices[next], name));
      next = (next + 1) % slices.size();
    });
  }
  return round_robin_rates(runs, harness.total_cells / pairs * slice_pairs,
                           /*warmup=*/1, reps, /*min_rep_seconds=*/0.02);
}

double rate_of(const std::vector<KernelRate>& rates,
               const std::string& name) {
  for (const KernelRate& rate : rates) {
    if (rate.name == name) return rate.gcups;
  }
  return 0.0;
}

void print_rate_table(const std::string& title,
                      const std::vector<KernelRate>& rates,
                      const std::string& baseline_name) {
  const double baseline = rate_of(rates, baseline_name);
  std::printf("\n%s:\n", title.c_str());
  base::TextTable table({"kernel", "GCUPS", "vs " + baseline_name});
  for (const KernelRate& rate : rates) {
    table.add_row({rate.name, base::format_double(rate.gcups, 3),
                   base::format_double(
                       baseline > 0.0 ? rate.gcups / baseline : 0.0, 2) +
                       "x"});
  }
  std::fputs(table.str().c_str(), stdout);
}

void append_rate_section(base::JsonWriter& w,
                         const std::vector<KernelRate>& rates,
                         const std::string& baseline_name) {
  const double baseline = rate_of(rates, baseline_name);
  w.key("kernels").begin_array();
  for (const KernelRate& rate : rates) {
    w.begin_object(base::JsonWriter::kCompact);
    w.key("name").value(rate.name);
    w.key("gcups").value_fixed(rate.gcups, 4);
    w.key("speedup_vs_" + baseline_name)
        .value_fixed(baseline > 0.0 ? rate.gcups / baseline : 0.0, 3);
    w.end_object();
  }
  w.end_array();
}

struct SummaryShape {
  /// Wide enough that each strip's kLanes-step fill and drain, which
  /// run the vector step with part of the lanes masked, amortize away:
  /// the steady-state rate.
  std::int64_t block_tile = 8192;
  /// The engine's default block (chromosome_compare, batch_compare,
  /// mgpusw-serve): the rate the default kernel is chosen by.
  static constexpr std::int64_t engine_tile = 128;
  /// One block row of a device's slice, which the row-major engine
  /// computes in one kernel call: the megabase slices of
  /// chromosome_compare's chr21/1024 run are 7,552 to 13,086 columns.
  static constexpr std::int64_t engine_row_cols[] = {4096, 13086};
  std::int64_t mega_rows = 512;
  std::int64_t mega_cols = std::int64_t{1} << 20;
  /// Wide tiles are the engine-realistic megabase shape: per-tile border
  /// conversion and per-strip fill/drain are fixed costs, so narrow
  /// tiles understate the narrow kernels' steady-state rate.
  std::int64_t mega_tile_cols = 65536;
  std::int64_t batch_pairs = 2048;
  std::int64_t batch_pair_len = 512;
  /// Pairs per timed batch run: 64 pairs of 512 bases are 17 Mcells.
  std::int64_t batch_slice_pairs = 64;
  /// Block-table and batch repetitions; the half-gigacell megabase
  /// section caps at 3. Min-of-N needs generous N on shared machines.
  int reps = 9;
};

void run_kernel_summary(const std::string& json_path,
                        const SummaryShape& shape) {
  // Section 1: every registered kernel on one square block.
  const std::vector<KernelRate> block_rates =
      measure_block_rates(shape.block_tile, shape.block_tile, shape.reps);
  print_rate_table(
      "Per-kernel GCUPS, " + std::to_string(shape.block_tile) + "x" +
          std::to_string(shape.block_tile) + " block (simd dispatches to " +
          sw::active_simd_backend() + "; detected ISA " +
          sw::simd_isa_name(sw::detected_simd_isa()) + ")",
      block_rates, "row");

  // Section 2: every registered kernel on the engine's default block,
  // where per-strip fill/drain and per-block set-up weigh most.
  const std::vector<KernelRate> engine_rates =
      measure_block_rates(shape.engine_tile, shape.engine_tile, shape.reps);
  print_rate_table("Per-kernel GCUPS, " + std::to_string(shape.engine_tile) +
                       "x" + std::to_string(shape.engine_tile) +
                       " block (engine default; default kernel " +
                       std::string(sw::kDefaultKernel) + ")",
                   engine_rates, "row");

  // Section 3: every registered kernel on one block row of a megabase
  // slice — the engine_tile rows fused across the slice's width.
  std::vector<std::vector<KernelRate>> row_rates;
  for (const std::int64_t cols : shape.engine_row_cols) {
    const std::vector<KernelRate>& rates = row_rates.emplace_back(
        measure_block_rates(shape.engine_tile, cols, shape.reps));
    print_rate_table("Per-kernel GCUPS, " +
                         std::to_string(shape.engine_tile) + "x" +
                         base::with_thousands(cols) +
                         " tile (one block row of a device's slice)",
                     rates, "row");
  }

  // Section 3b: the widest of those rows with the high-score wedge a
  // homolog alignment leaves on its top border, where "auto" splits the
  // row into int8 and int16 column runs, simd8 re-runs the whole row at
  // int16, and simd16 runs all of it at int16.
  const std::int64_t wedge_cols = std::end(shape.engine_row_cols)[-1];
  const std::vector<KernelRate> wedge_rates = measure_block_rates(
      {"auto", "simd8", "simd16"}, shape.engine_tile, wedge_cols, shape.reps,
      wedge_top_border(wedge_cols, sw::ScoreScheme{}));
  print_rate_table("Per-kernel GCUPS, " + std::to_string(shape.engine_tile) +
                       "x" + base::with_thousands(wedge_cols) +
                       " tile behind a homolog alignment (top border above "
                       "int8 over half the width)",
                   wedge_rates, "simd16");

  // Section 4: megabase strip sweep — the dispatched kernels only (the
  // pinned backend variants add nothing at this scale and each pass
  // covers half a gigacell).
  StripHarness strip(shape.mega_rows, shape.mega_cols,
                     shape.mega_tile_cols);
  const std::vector<KernelRate> mega_rates = measure_strip_rates(
      {"row", "simd", "simd16", "simd8", "auto"}, strip,
      std::min(shape.reps, 3));
  print_rate_table("Megabase strip GCUPS, " +
                       std::to_string(shape.mega_rows) + " rows x " +
                       base::with_thousands(shape.mega_cols) +
                       " cols in " + std::to_string(shape.mega_tile_cols) +
                       "-col tiles",
                   mega_rates, "simd");

  // Section 5: short-pair batch via the inter-sequence kernels. The
  // "scalar" entry is the per-pair intra-block SIMD kernel, i.e. what
  // the same batch costs without inter-sequence packing.
  BatchHarness batch(shape.batch_pairs, shape.batch_pair_len);
  const std::vector<KernelRate> batch_rates =
      measure_batch_rates(batch, shape.batch_slice_pairs, 2 * shape.reps);
  print_rate_table("Short-pair batch GCUPS, " +
                       std::to_string(shape.batch_pairs) + " pairs of " +
                       std::to_string(shape.batch_pair_len) + " bases, " +
                       std::to_string(shape.batch_slice_pairs) +
                       " pairs per timed run",
                   batch_rates, "scalar");

  if (json_path.empty()) return;
  base::JsonWriter w;
  w.begin_object();
  w.key("bench").value("micro_kernels");
  w.key("simd_isa").value(sw::simd_isa_name(sw::detected_simd_isa()));
  w.key("simd_backend").value(sw::active_simd_backend());
  w.key("block").begin_object();
  w.key("tile").value(shape.block_tile);
  append_rate_section(w, block_rates, "row");
  w.end_object();
  w.key("engine_tile").begin_object();
  w.key("tile").value(shape.engine_tile);
  w.key("default_kernel").value(sw::kDefaultKernel);
  append_rate_section(w, engine_rates, "row");
  w.end_object();
  w.key("engine_row").begin_object();
  w.key("rows").value(shape.engine_tile);
  w.key("tiles").begin_array();
  for (std::size_t t = 0; t < row_rates.size(); ++t) {
    w.begin_object();
    w.key("cols").value(shape.engine_row_cols[t]);
    append_rate_section(w, row_rates[t], "row");
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.key("engine_row_wedge").begin_object();
  w.key("rows").value(shape.engine_tile);
  w.key("cols").value(wedge_cols);
  append_rate_section(w, wedge_rates, "simd16");
  w.end_object();
  w.key("megabase").begin_object();
  w.key("rows").value(shape.mega_rows);
  w.key("cols").value(shape.mega_cols);
  w.key("tile_cols").value(shape.mega_tile_cols);
  append_rate_section(w, mega_rates, "simd");
  w.end_object();
  w.key("batch").begin_object();
  w.key("pairs").value(shape.batch_pairs);
  w.key("pair_len").value(shape.batch_pair_len);
  w.key("slice_pairs").value(shape.batch_slice_pairs);
  append_rate_section(w, batch_rates, "scalar");
  w.end_object();
  w.end_object();
  if (!bench::write_json_file(json_path, w.str())) return;
  std::printf("(kernel rates written to %s)\n", json_path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // Pull out our own flags before google-benchmark sees the arguments.
  std::string json_path = "BENCH_kernels.json";
  SummaryShape shape;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--kernels_json=", 15) == 0) {
      json_path = argv[i] + 15;
    } else if (std::strncmp(argv[i], "--block_tile=", 13) == 0) {
      shape.block_tile = std::atoll(argv[i] + 13);

    } else if (std::strncmp(argv[i], "--mega_cols=", 12) == 0) {
      shape.mega_cols = std::atoll(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--mega_tile_cols=", 17) == 0) {
      shape.mega_tile_cols = std::atoll(argv[i] + 17);
    } else if (std::strncmp(argv[i], "--batch_pairs=", 14) == 0) {
      shape.batch_pairs = std::atoll(argv[i] + 14);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  // One benchmark per registered kernel — the set follows the registry.
  for (const sw::KernelInfo& info : sw::kernel_registry()) {
    benchmark::RegisterBenchmark(("BM_BlockKernel/" + info.name).c_str(),
                                 BM_BlockKernel, info.fn)
        ->Arg(64)
        ->Arg(128)
        ->Arg(256)
        ->Arg(1024);
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  run_kernel_summary(json_path, shape);
  return 0;
}
