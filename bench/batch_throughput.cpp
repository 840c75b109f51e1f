// R-A3 (extension): batch scheduling throughput.
//
// The paper evaluates four chromosome pairs back to back, each spanning
// every GPU. With a DeviceFleet the same four comparisons can instead run
// concurrently on disjoint single-device leases. Per-item results are
// bit-identical either way (the engine's reduction is a total order);
// what changes is aggregate throughput, because concurrent items skip the
// per-item pipeline fill/drain and keep every device busy. Real
// execution; records both modes in BENCH_batch.json.
//
// A third section benchmarks the inter-sequence SIMD pre-pass on a batch
// of short pairs (--short_pairs / --short_len): the same batch runs once
// through the block engine and once with interseq_max_len routing every
// item through the one-pair-per-lane kernel, and both results must match.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "core/batch.hpp"
#include "core/fleet.hpp"
#include "seq/synth.hpp"

namespace {

using namespace mgpusw;

struct ModeResult {
  std::string name;
  core::BatchResult batch;
};

core::BatchResult run_mode(const core::BatchConfig& config,
                           const std::vector<vgpu::DeviceSpec>& specs,
                           const std::vector<core::BatchItem>& items) {
  // A fresh fleet per mode so device busy-counters start equal.
  core::DeviceFleet fleet = core::DeviceFleet::from_specs(specs);
  return core::run_batch(config, fleet, items);
}

void write_batch_json(const std::string& path, std::int64_t scale,
                      int device_count,
                      const std::vector<ModeResult>& modes) {
  base::JsonWriter w;
  w.begin_object();
  w.key("bench").value("batch_throughput");
  w.key("scale").value(scale);
  w.key("devices").value(device_count);
  w.key("modes").begin_array();
  for (const ModeResult& mode : modes) {
    const core::BatchResult& batch = mode.batch;
    w.begin_object();
    w.key("name").value(mode.name);
    w.key("wall_seconds").value_fixed(batch.wall_seconds, 6);
    w.key("aggregate_gcups").value_fixed(batch.gcups(), 4);
    w.key("items").begin_array();
    for (const core::BatchItemResult& item : batch.items) {
      w.begin_object(base::JsonWriter::kCompact);
      w.key("label").value(item.label);
      w.key("seconds").value_fixed(item.result.wall_seconds, 6);
      w.key("gcups").value_fixed(item.result.gcups(), 4);
      w.key("score").value(item.result.best.score);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  if (!bench::write_json_file(path, w.str())) return;
  std::printf("(batch results written to %s)\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  base::FlagSet flags = bench::standard_flags(
      "R-A3: batch throughput, sequential vs concurrent scheduling");
  flags.add_int("devices", 4, "fleet size");
  flags.add_string("batch_json", "BENCH_batch.json",
                   "write both modes to this JSON file (empty disables)");
  flags.add_int("short_pairs", 128,
                "short-pair batch size for the inter-sequence section "
                "(0 disables)");
  flags.add_int("short_len", 512, "short-pair length in bases");
  flags.add_string("interseq_kernel", "interseq",
                   "batch kernel for the inter-sequence pre-pass");
  if (!flags.parse(argc, argv)) return 0;

  bench::print_header(
      "R-A3  Batch scheduling: whole-fleet sequential vs per-device "
      "concurrent",
      "independent comparisons on disjoint leases raise aggregate GCUPS "
      "without changing any per-item result");

  const std::int64_t scale = flags.get_int("scale");
  std::vector<core::BatchItem> items;
  for (const seq::ChromosomePair& pair : seq::paper_chromosome_pairs()) {
    const seq::HomologPair homologs =
        seq::make_homolog_pair(seq::scaled_pair(pair, scale), 13);
    items.push_back(
        core::BatchItem{pair.id, homologs.query, homologs.subject});
  }

  const int device_count = static_cast<int>(flags.get_int("devices"));
  std::vector<vgpu::DeviceSpec> specs;
  for (int d = 0; d < device_count; ++d) {
    specs.push_back(vgpu::toy_device(10.0 + 5.0 * d));
  }

  core::BatchConfig sequential;
  sequential.engine.kernel = flags.get_string("kernel");
  sequential.engine.block_rows = 128;
  sequential.engine.block_cols = 128;
  sequential.devices_per_item = 0;  // whole fleet, one item at a time
  sequential.max_in_flight = 1;

  core::BatchConfig concurrent = sequential;
  concurrent.devices_per_item = 1;
  concurrent.max_in_flight = device_count;

  std::vector<ModeResult> modes;
  modes.push_back({"sequential", run_mode(sequential, specs, items)});
  modes.push_back({"concurrent", run_mode(concurrent, specs, items)});

  bool identical = true;
  for (std::size_t i = 0; i < items.size(); ++i) {
    identical = identical && modes[0].batch.items[i].result.best ==
                                 modes[1].batch.items[i].result.best;
  }

  base::TextTable table(
      {"mode", "wall time", "aggregate GCUPS", "summed item GCUPS"});
  for (const ModeResult& mode : modes) {
    table.add_row({
        mode.name,
        base::human_duration(mode.batch.wall_seconds),
        bench::gcups_str(mode.batch.gcups()),
        bench::gcups_str(mode.batch.summed_gcups()),
    });
  }
  std::fputs(table.str().c_str(), stdout);
  std::printf("per-item results bit-identical across modes: %s\n",
              identical ? "yes" : "NO (bug!)");
  const double speedup =
      modes[1].batch.wall_seconds > 0.0
          ? modes[0].batch.wall_seconds / modes[1].batch.wall_seconds
          : 0.0;
  std::printf("concurrent speedup over sequential: %.2fx\n", speedup);

  // --- inter-sequence pre-pass on a batch of short pairs -------------
  bool short_identical = true;
  const std::int64_t short_pairs = flags.get_int("short_pairs");
  if (short_pairs > 0) {
    const std::int64_t short_len = flags.get_int("short_len");
    std::vector<core::BatchItem> shorts;
    for (std::int64_t k = 0; k < short_pairs; ++k) {
      // Vary the lengths a little so lane groups see realistic padding.
      const std::int64_t len = short_len + (k % 7) * (short_len / 16 + 1);
      const seq::Sequence ancestor = seq::generate_chromosome(
          std::string("s") + std::to_string(k), len, 0x5EED0000ULL + k);
      shorts.push_back(core::BatchItem{
          std::string("short-") + std::to_string(k), ancestor,
          seq::mutate_homolog(ancestor, seq::MutationModel{},
                              0xAB0000ULL + k,
                              std::string("t") + std::to_string(k))});
    }

    core::BatchConfig engine_path = sequential;
    core::BatchConfig interseq_path = sequential;
    interseq_path.interseq_max_len = short_len * 2;
    interseq_path.interseq_kernel = flags.get_string("interseq_kernel");

    modes.push_back({"short_engine", run_mode(engine_path, specs, shorts)});
    modes.push_back(
        {"short_interseq", run_mode(interseq_path, specs, shorts)});
    const core::BatchResult& by_engine = modes[modes.size() - 2].batch;
    const core::BatchResult& by_lane = modes[modes.size() - 1].batch;
    for (std::size_t i = 0; i < shorts.size(); ++i) {
      short_identical = short_identical &&
                        by_engine.items[i].result.best ==
                            by_lane.items[i].result.best;
    }

    base::TextTable short_table({"mode", "wall time", "aggregate GCUPS"});
    short_table.add_row({"block engine",
                         base::human_duration(by_engine.wall_seconds),
                         bench::gcups_str(by_engine.gcups())});
    short_table.add_row({"interseq pre-pass",
                         base::human_duration(by_lane.wall_seconds),
                         bench::gcups_str(by_lane.gcups())});
    std::printf("\nInter-sequence pre-pass, %lld pairs of ~%lld bases "
                "(kernel %s):\n",
                static_cast<long long>(short_pairs),
                static_cast<long long>(short_len),
                interseq_path.interseq_kernel.c_str());
    std::fputs(short_table.str().c_str(), stdout);
    std::printf("short-pair results bit-identical across paths: %s\n",
                short_identical ? "yes" : "NO (bug!)");
    const double lane_speedup =
        by_lane.wall_seconds > 0.0
            ? by_engine.wall_seconds / by_lane.wall_seconds
            : 0.0;
    std::printf("interseq speedup over block engine: %.2fx\n",
                lane_speedup);
  }

  const std::string json_path = flags.get_string("batch_json");
  if (!json_path.empty()) {
    write_batch_json(json_path, scale, device_count, modes);
  }

  bench::print_shape_check({
      "per-item scores and end positions are bit-identical in both modes",
      "on multi-core hosts concurrent aggregate GCUPS exceeds "
      "sequential: no per-item pipeline fill/drain and no cross-device "
      "border traffic when each item runs on one device (device threads "
      "time-share on this host, so real-mode wall time shows overlap "
      "only when cores are available)",
      "the gap narrows as items grow: large matrices amortise the fill, "
      "so whole-fleet runs approach the aggregate rate on their own",
      "the inter-sequence pre-pass beats the block engine on short-pair "
      "batches: one pair per lane has no skew, no strip borders, and no "
      "per-item engine setup",
  });
  return identical && short_identical ? 0 : 1;
}
