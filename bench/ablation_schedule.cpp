// R-A2 (ablation): fine-grain row-major pipeline vs CUDAlign-style
// external-diagonal barriers, in model mode.
//
// The row-major schedule ships border chunk i the moment block row i is
// done, so a downstream device lags by one block row; the diagonal
// schedule only completes chunk i with diagonal i + nbc - 1, delaying the
// pipeline. The engine runs only the row-major schedule; the simulator
// models both at paper scale.
#include <cstdio>

#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mgpusw;
  base::FlagSet flags = bench::standard_flags(
      "R-A2: block schedule ablation (model mode)");
  if (!flags.parse(argc, argv)) return 0;

  bench::print_header(
      "R-A2  Schedule ablation: fine-grain rows vs diagonal barriers",
      "fine-grain pipelining is what makes the multi-GPU wavefront "
      "efficient: downstream devices start almost immediately");

  const seq::ChromosomePair pair = seq::paper_chromosome_pairs()[2];

  // The two schedules on the full chr21 matrix with the env-1 GPUs:
  // this is where the fine-grain design's advantage shows in GCUPS.
  std::printf("Model mode (chr21 at paper scale, env-1 GPUs):\n");
  base::TextTable model({"schedule", "GCUPS", "makespan",
                         "max recv wait"});
  for (const sim::SimSchedule schedule :
       {sim::SimSchedule::kRowMajor, sim::SimSchedule::kDiagonalBarrier}) {
    sim::SimConfig config;
    config.rows = pair.human_length;
    config.cols = pair.chimp_length;
    config.block_rows = flags.get_int("block_rows");
    config.block_cols = flags.get_int("block_cols");
    config.buffer_capacity = flags.get_int("buffer");
    config.devices = vgpu::environment1();
    config.schedule = schedule;
    const sim::SimResult result = sim::simulate_pipeline(config);
    base::SimTime recv = 0;
    for (const auto& device : result.devices) {
      recv = std::max(recv, device.recv_wait_ns);
    }
    model.add_row({schedule == sim::SimSchedule::kRowMajor
                       ? "row-major (fine)"
                       : "diagonal (barrier)",
                   bench::gcups_str(result.gcups()),
                   base::human_duration(result.seconds()),
                   base::human_duration(static_cast<double>(recv) * 1e-9)});
  }
  std::fputs(model.str().c_str(), stdout);

  bench::print_shape_check({
      "the row-major schedule reaches more GCUPS than diagonal barriers",
      "the diagonal schedule waits far longer on receives (chunks ship a "
      "whole anti-diagonal later, so the downstream tail serializes)",
  });
  return 0;
}
