// Quickstart: compare two synthetic homologous sequences on two virtual
// GPUs and print the optimal local alignment score.
//
//   $ ./quickstart
//
// This is the smallest end-to-end use of the public API: make sequences,
// make devices, configure the engine, run, read the result.
#include <cstdio>

#include "base/format.hpp"
#include "core/engine.hpp"
#include "seq/synth.hpp"
#include "sw/linear.hpp"
#include "vgpu/device.hpp"
#include "vgpu/spec.hpp"

int main() {
  using namespace mgpusw;

  // 1. Sequences: a scaled-down human/chimp chr21 homolog pair.
  const seq::ChromosomePair chr21 = seq::paper_chromosome_pairs()[2];
  const seq::HomologPair pair =
      seq::make_homolog_pair(seq::scaled_pair(chr21, 8192), /*seed=*/42);
  std::printf("query  : %s (%s)\n", pair.query.name().c_str(),
              base::human_bp(pair.query.size()).c_str());
  std::printf("subject: %s (%s)\n", pair.subject.name().c_str(),
              base::human_bp(pair.subject.size()).c_str());

  // 2. Devices: one fast and one slower virtual GPU. The engine sizes
  //    each device's matrix slice proportionally to its speed.
  vgpu::Device fast(vgpu::gtx_680());
  vgpu::Device slow(vgpu::gtx_560_ti());

  // 3. Engine: default configuration (512x512 blocks are too coarse for
  //    this small demo, so shrink them).
  core::EngineConfig config;
  config.block_rows = 128;
  config.block_cols = 128;
  core::MultiDeviceEngine engine(config, {&fast, &slow});

  // 4. Run.
  const core::EngineResult result = engine.run(pair.query, pair.subject);

  std::printf("\noptimal local alignment score: %d\n", result.best.score);
  std::printf("ends at query position %lld, subject position %lld\n",
              static_cast<long long>(result.best.end.row),
              static_cast<long long>(result.best.end.col));
  std::printf("%s cells in %s (%.3f GCUPS on this host)\n",
              base::with_thousands(result.matrix_cells).c_str(),
              base::human_duration(result.wall_seconds).c_str(),
              result.gcups());
  for (const core::DeviceRunStats& device : result.devices) {
    std::printf("  %-12s computed columns [%lld, %lld) — %s cells\n",
                device.device_name.c_str(),
                static_cast<long long>(device.slice.first_col),
                static_cast<long long>(device.slice.end_col()),
                base::with_thousands(device.cells).c_str());
  }

  // 5. Cross-check against the serial oracle (optional, cheap here).
  const sw::ScoreResult oracle =
      sw::linear_score(config.scheme, pair.query, pair.subject);
  std::printf("\nserial oracle agrees: %s\n",
              result.best == oracle ? "yes" : "NO");
  return result.best == oracle ? 0 : 1;
}
