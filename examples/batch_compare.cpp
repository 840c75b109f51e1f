// Batch comparison — the paper's full evaluation workload in one run.
//
// Compares all four human/chimp chromosome pairs (synthetic, scaled) on
// one device fleet, with a live progress line per device, and prints the
// per-pair and aggregate results — mirroring how the paper reports its
// evaluation runs. By default every pair spans the whole fleet one at a
// time (the paper's mode); --devices-per-item and --max-in-flight switch
// to the concurrent scheduler, running several pairs on disjoint device
// leases at once.
//
//   $ ./batch_compare --scale=8192 --devices=3
//   $ ./batch_compare --scale=8192 --devices=4 --devices-per-item=2
//         --max-in-flight=2
#include <atomic>
#include <cstdio>
#include <memory>

#include "base/error.hpp"
#include "base/flags.hpp"
#include "base/format.hpp"
#include "core/batch.hpp"
#include "core/engine.hpp"
#include "core/fleet.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "seq/synth.hpp"
#include "vgpu/device.hpp"
#include "vgpu/spec.hpp"

int main(int argc, char** argv) {
  using namespace mgpusw;
  base::FlagSet flags("Compare all chromosome pairs in one batch");
  flags.add_int("scale", 8192, "divide paper lengths by this factor");
  flags.add_int("devices", 3, "number of virtual devices");
  flags.add_int("devices-per-item", 0,
                "devices leased per comparison (0 = whole fleet)");
  flags.add_int("max-in-flight", 1,
                "comparisons running concurrently on disjoint leases");
  flags.add_int("interseq-max-len", 0,
                "pairs this short run on the inter-sequence SIMD kernel, "
                "many per vector (0 = off)");
  flags.add_bool("progress", true, "print live progress");
  flags.add_string("trace-out", "",
                   "write a Chrome/Perfetto trace of the batch here");
  flags.add_string("metrics-json", "",
                   "write the metrics registry snapshot as JSON here");
  if (!flags.parse(argc, argv)) return 0;

  // Build the workload: every pair the paper evaluates.
  std::vector<core::BatchItem> items;
  for (const seq::ChromosomePair& pair : seq::paper_chromosome_pairs()) {
    const seq::HomologPair homologs = seq::make_homolog_pair(
        seq::scaled_pair(pair, flags.get_int("scale")), 13);
    items.push_back(
        core::BatchItem{pair.id, homologs.query, homologs.subject});
  }

  // Device fleet: the heterogeneous environment-1 profiles.
  const auto env = vgpu::environment1();
  std::vector<std::unique_ptr<vgpu::Device>> devices;
  for (int d = 0; d < flags.get_int("devices"); ++d) {
    devices.push_back(std::make_unique<vgpu::Device>(
        env[static_cast<std::size_t>(d) % env.size()]));
  }
  core::DeviceFleet fleet(std::move(devices));

  core::BatchConfig batch_config;
  batch_config.devices_per_item =
      static_cast<int>(flags.get_int("devices-per-item"));
  batch_config.max_in_flight =
      static_cast<int>(flags.get_int("max-in-flight"));
  batch_config.interseq_max_len = flags.get_int("interseq-max-len");
  core::EngineConfig& config = batch_config.engine;
  config.block_rows = 128;
  config.block_cols = 128;

  obs::Tracer tracer;
  obs::MetricsRegistry metrics;
  const bool want_trace = !flags.get_string("trace-out").empty();
  const bool want_metrics = !flags.get_string("metrics-json").empty();
  if (want_trace) config.obs.tracer = &tracer;
  if (want_trace || want_metrics) config.obs.metrics = &metrics;
  std::atomic<std::int64_t> units_done{0};
  if (flags.get_bool("progress")) {
    config.progress = [&](const core::ProgressEvent& event) {
      const std::int64_t done = units_done.fetch_add(1) + 1;
      if (done % 16 == 0) {
        std::fprintf(stderr, "\r  %s device %d: %lld/%lld block rows",
                     event.job.c_str(), event.device_index,
                     static_cast<long long>(event.completed_units),
                     static_cast<long long>(event.total_units));
      }
    };
  }

  const core::BatchResult batch =
      core::run_batch(batch_config, fleet, items);
  if (flags.get_bool("progress")) std::fprintf(stderr, "\r%60s\r", "");

  base::TextTable table({"pair", "matrix cells", "score", "end cell",
                         "time", "host GCUPS"});
  for (const core::BatchItemResult& item : batch.items) {
    table.add_row({
        item.label,
        base::with_thousands(item.result.matrix_cells),
        std::to_string(item.result.best.score),
        std::string("(") + std::to_string(item.result.best.end.row) + ", " +
            std::to_string(item.result.best.end.col) + ")",
        base::human_duration(item.result.wall_seconds),
        base::format_double(item.result.gcups(), 3),
    });
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf(
      "batch total: %s cells, wall %s (%.3f GCUPS), summed item time %s "
      "(%.3f GCUPS)\n",
      base::with_thousands(batch.total_cells).c_str(),
      base::human_duration(batch.wall_seconds).c_str(), batch.gcups(),
      base::human_duration(batch.total_seconds).c_str(),
      batch.summed_gcups());

  if (want_trace) {
    obs::write_chrome_trace(flags.get_string("trace-out"), tracer);
    std::printf("trace  : %s (%zu events; open in ui.perfetto.dev)\n",
                flags.get_string("trace-out").c_str(),
                tracer.event_count());
  }
  if (want_metrics) {
    std::FILE* file =
        std::fopen(flags.get_string("metrics-json").c_str(), "w");
    MGPUSW_REQUIRE(file != nullptr,
                   "cannot open " << flags.get_string("metrics-json"));
    std::fputs((metrics.to_json() + "\n").c_str(), file);
    std::fclose(file);
    std::printf("metrics: %s\n", flags.get_string("metrics-json").c_str());
  }
  return 0;
}
