// Alignment report — the full stage pipeline on a laptop-scale pair.
//
// Stage 1 (the paper's contribution) finds the optimal score and end
// position with the multi-device engine; stage 2 locates the alignment
// start by the anchored reverse scan; stage 3 reconstructs the full
// alignment with Myers-Miller in linear space. The report prints the
// rendered alignment with identity statistics — what a biologist would
// actually look at.
//
//   $ ./alignment_report --length=2000 --divergence=0.10
#include <cstdio>

#include "base/flags.hpp"
#include "base/format.hpp"
#include "core/engine.hpp"
#include "core/pipeline.hpp"
#include "seq/synth.hpp"
#include "sw/alignment.hpp"
#include "vgpu/device.hpp"
#include "vgpu/spec.hpp"

int main(int argc, char** argv) {
  using namespace mgpusw;
  base::FlagSet flags("Retrieve and render a full local alignment");
  flags.add_int("length", 1500, "ancestral sequence length");
  flags.add_double("divergence", 0.08, "mutation model divergence");
  flags.add_int("seed", 7, "genome seed");
  flags.add_int("width", 72, "render width");
  if (!flags.parse(argc, argv)) return 0;

  // Build a homolog pair with the requested divergence.
  seq::MutationModel model;
  model.snp_rate = flags.get_double("divergence");
  model.indel_rate = flags.get_double("divergence") / 10.0;
  model.segment_rate = 0.0;
  const seq::Sequence ancestor = seq::generate_chromosome(
      "locusA", flags.get_int("length"),
      static_cast<std::uint64_t>(flags.get_int("seed")));
  const seq::Sequence homolog = seq::mutate_homolog(
      ancestor, model,
      static_cast<std::uint64_t>(flags.get_int("seed")) + 1, "locusB");

  // The three-stage pipeline: stage 1 distributed on two virtual
  // devices, stages 2-3 serial over the bounded alignment region.
  vgpu::Device left(vgpu::gtx_580());
  vgpu::Device right(vgpu::gtx_680());
  core::EngineConfig config;
  config.block_rows = 64;
  config.block_cols = 64;
  core::AlignmentPipeline pipeline(config, {&left, &right});
  const core::PipelineResult result = pipeline.align(ancestor, homolog);

  std::printf("stage 1: score %d ends at (%lld, %lld)  [%s cells, %s]\n",
              result.stage1.best.score,
              static_cast<long long>(result.stage1.best.end.row),
              static_cast<long long>(result.stage1.best.end.col),
              base::with_thousands(result.stage1.matrix_cells).c_str(),
              base::human_duration(result.stage1.wall_seconds).c_str());
  if (result.stage1.best.score == 0) {
    std::printf("no positive-scoring alignment; nothing to report\n");
    return 0;
  }
  std::printf("stage 2: alignment starts at (%lld, %lld)  [%s]\n",
              static_cast<long long>(result.start.row),
              static_cast<long long>(result.start.col),
              base::human_duration(result.stage2_seconds).c_str());
  const sw::Alignment& alignment = result.alignment;
  sw::validate_alignment(config.scheme, ancestor, homolog, alignment);
  std::printf(
      "stage 3: %zu ops, %.1f%% identity, query [%lld, %lld), subject "
      "[%lld, %lld)\n\n",
      alignment.ops.size(), alignment.identity() * 100.0,
      static_cast<long long>(alignment.query_begin),
      static_cast<long long>(alignment.query_end),
      static_cast<long long>(alignment.subject_begin),
      static_cast<long long>(alignment.subject_end));

  const std::string rendered = sw::render_alignment(
      ancestor, homolog, alignment,
      static_cast<int>(flags.get_int("width")));
  // Print only the first dozen lines for long alignments.
  int lines = 0;
  for (const char c : rendered) {
    std::putchar(c);
    if (c == '\n' && ++lines >= 24) {
      std::printf("... (%zu ops total)\n", alignment.ops.size());
      break;
    }
  }
  return 0;
}
