// Cluster planner — size a multi-GPU run before buying the hardware.
//
// Given a set of GPU profiles and a chromosome pair, predicts (with the
// calibrated pipeline model) the paper-scale runtime, GCUPS, the static
// column split, per-device memory needs and the minimum circular-buffer
// capacity — the questions the paper's static balancing answers.
//
//   $ ./cluster_planner --gpus=gtx560ti,gtx580,gtx680 --pair=chr19
//   $ ./cluster_planner --gpus=m2090,m2090 --pair=chr21 --block_rows=1024
#include <cstdio>
#include <sstream>

#include "base/error.hpp"
#include "base/flags.hpp"
#include "base/format.hpp"
#include "comm/border.hpp"
#include "core/partition.hpp"
#include "seq/synth.hpp"
#include "sim/pipeline_sim.hpp"
#include "sw/scoring.hpp"
#include "vgpu/spec.hpp"

namespace {

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream stream(text);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mgpusw;
  base::FlagSet flags("Plan a multi-GPU megabase comparison");
  flags.add_string("gpus", "gtx560ti,gtx580,gtx680",
                   "comma-separated device names");
  flags.add_string("pair", "chr21", "chromosome pair to plan for");
  flags.add_int("block_rows", 512, "block height");
  flags.add_int("block_cols", 512, "block width");
  flags.add_int("buffer", 64, "circular buffer capacity (chunks)");
  if (!flags.parse(argc, argv)) return 0;

  std::vector<vgpu::DeviceSpec> devices;
  for (const std::string& name : split_csv(flags.get_string("gpus"))) {
    devices.push_back(vgpu::spec_by_name(name));
  }
  MGPUSW_REQUIRE(!devices.empty(), "need at least one GPU name");

  const seq::ChromosomePair* pair = nullptr;
  for (const auto& candidate : seq::paper_chromosome_pairs()) {
    if (candidate.id == flags.get_string("pair")) pair = &candidate;
  }
  MGPUSW_REQUIRE(pair != nullptr,
                 "unknown pair " << flags.get_string("pair"));

  std::printf("planning %s: %s x %s (%s cells)\n\n", pair->id.c_str(),
              base::human_bp(pair->human_length).c_str(),
              base::human_bp(pair->chimp_length).c_str(),
              base::with_thousands(pair->matrix_cells()).c_str());

  // Static split, exactly as the engine would compute it.
  std::vector<double> weights;
  for (const auto& spec : devices) weights.push_back(spec.sw_gcups);
  const auto ranges = core::partition_columns(
      pair->chimp_length, weights, flags.get_int("block_cols"));

  base::TextTable table({"device", "profile GCUPS", "columns", "share",
                         "border memory"});
  for (std::size_t d = 0; d < devices.size(); ++d) {
    // O(m + n_slice) border storage per device (H,E / H,F int32 pairs).
    const std::int64_t border_bytes =
        (pair->human_length + ranges[d].cols) * 2 *
        static_cast<std::int64_t>(sizeof(sw::Score));
    table.add_row({
        devices[d].name,
        base::format_double(devices[d].sw_gcups, 1),
        base::with_thousands(ranges[d].cols),
        base::format_double(100.0 * static_cast<double>(ranges[d].cols) /
                                static_cast<double>(pair->chimp_length),
                            1) + "%",
        base::human_bytes(border_bytes),
    });
  }
  std::fputs(table.str().c_str(), stdout);

  // Predicted end-to-end performance.
  sim::SimConfig config;
  config.rows = pair->human_length;
  config.cols = pair->chimp_length;
  config.block_rows = flags.get_int("block_rows");
  config.block_cols = flags.get_int("block_cols");
  config.buffer_capacity = flags.get_int("buffer");
  config.devices = devices;
  const sim::SimResult prediction = sim::simulate_pipeline(config);

  std::printf("\npredicted runtime : %s\n",
              base::human_duration(prediction.seconds()).c_str());
  std::printf("predicted rate    : %.2f GCUPS (aggregate profile %.2f, "
              "efficiency %.1f%%)\n",
              prediction.gcups(), sim::aggregate_gcups(devices),
              prediction.gcups() / sim::aggregate_gcups(devices) * 100.0);
  std::printf("border traffic    : %s per device pair\n",
              base::human_bytes(pair->human_length *
                                comm::kBorderCellBytes)
                  .c_str());

  // What a single fastest GPU would do, for contrast.
  sim::SimConfig solo = config;
  solo.devices = {devices.front()};
  for (const auto& spec : devices) {
    if (spec.sw_gcups > solo.devices[0].sw_gcups) solo.devices[0] = spec;
  }
  solo.weights.clear();
  const sim::SimResult solo_result = sim::simulate_pipeline(solo);
  std::printf("single fastest GPU: %s (%.2f GCUPS) -> the cluster is "
              "%.2fx faster\n",
              base::human_duration(solo_result.seconds()).c_str(),
              solo_result.gcups(),
              solo_result.seconds() / prediction.seconds());
  return 0;
}
