// R-T3: GCUPS on Environment 2 (homogeneous Tesla M2090 nodes) for the
// four chromosome pairs and 1..3 GPUs, model mode.
#include <cstdio>

#include "bench/bench_util.hpp"

int main(int argc, char** argv) {
  using namespace mgpusw;
  base::FlagSet flags = bench::standard_flags(
      "R-T3: GCUPS per chromosome pair on the homogeneous environment");
  if (!flags.parse(argc, argv)) return 0;

  bench::print_header(
      "R-T3  GCUPS on Environment 2 (Tesla M2090 x 1/2/3)",
      "near-linear scaling on homogeneous compute GPUs");

  const auto env = vgpu::environment2();
  base::TextTable table({"pair", "1 GPU", "2 GPUs", "3 GPUs",
                         "speedup(3)", "efficiency(3)"});
  for (const seq::ChromosomePair& pair : seq::paper_chromosome_pairs()) {
    std::vector<std::string> row{pair.id};
    double one = 0.0;
    double three = 0.0;
    for (std::size_t count = 1; count <= env.size(); ++count) {
      const std::vector<vgpu::DeviceSpec> devices(env.begin(),
                                                  env.begin() + count);
      const sim::SimResult result = bench::simulate_pair(
          pair, devices, flags.get_int("block_rows"),
          flags.get_int("block_cols"), flags.get_int("buffer"));
      if (count == 1) one = result.gcups();
      if (count == 3) three = result.gcups();
      row.push_back(bench::gcups_str(result.gcups()));
    }
    row.push_back(base::format_double(three / one, 2) + "x");
    row.push_back(base::format_double(three / one / 3.0 * 100.0, 1) + "%");
    table.add_row(row);
  }
  std::fputs(table.str().c_str(), stdout);

  if (flags.get_bool("real")) {
    std::printf("\nReal-mode cross-check (scaled chr22, 10/15/20-GCUPS toy "
                "devices):\n");
    core::EngineConfig config;
    config.kernel = flags.get_string("kernel");
    config.block_rows = 64;
    config.block_cols = 64;
    base::TextTable real({"devices", "score", "oracle", "match"});
    for (int count = 1; count <= 3; ++count) {
      const bench::RealRun run = bench::run_real(
          seq::paper_chromosome_pairs()[3], flags.get_int("scale"), count,
          config);
      real.add_row({std::to_string(count),
                    std::to_string(run.engine.best.score),
                    std::to_string(run.oracle.score),
                    run.matches() ? "yes" : "NO"});
    }
    std::fputs(real.str().c_str(), stdout);
  }

  bench::print_shape_check({
      "speedup with 3 homogeneous GPUs is close to 3x (efficiency > 90%)",
      "all four chromosome pairs show the same scaling shape",
  });
  return 0;
}
