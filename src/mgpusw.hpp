// Umbrella header: the public API of mgpu-sw.
//
// Typical usage (see examples/quickstart.cpp):
//
//   #include "mgpusw.hpp"
//   using namespace mgpusw;
//
//   auto pair = seq::make_homolog_pair(seq::scaled_pair(
//       seq::paper_chromosome_pairs()[2], 256), /*seed=*/1);
//
//   vgpu::Device fast(vgpu::gtx_580());
//   vgpu::Device slow(vgpu::gtx_560_ti(), {.slowdown = 1.5});
//
//   core::EngineConfig config;
//   core::MultiDeviceEngine engine(config, {&fast, &slow});
//   core::EngineResult result = engine.run(pair.query, pair.subject);
//   // result.best.score, result.gcups(), result.devices[i]...
#pragma once

#include "base/error.hpp"     // IWYU pragma: export
#include "base/flags.hpp"     // IWYU pragma: export
#include "base/format.hpp"    // IWYU pragma: export
#include "base/log.hpp"       // IWYU pragma: export
#include "base/rng.hpp"       // IWYU pragma: export
#include "base/json.hpp"      // IWYU pragma: export
#include "base/time.hpp"      // IWYU pragma: export
#include "comm/channel.hpp"   // IWYU pragma: export
#include "core/batch.hpp"     // IWYU pragma: export
#include "core/engine.hpp"    // IWYU pragma: export
#include "core/fleet.hpp"     // IWYU pragma: export
#include "core/partition.hpp" // IWYU pragma: export
#include "core/pipeline.hpp"  // IWYU pragma: export
#include "core/plan.hpp"      // IWYU pragma: export
#include "core/recovery.hpp"  // IWYU pragma: export
#include "core/report.hpp"    // IWYU pragma: export
#include "core/slice_runner.hpp"  // IWYU pragma: export
#include "core/special_rows.hpp"  // IWYU pragma: export
#include "obs/metrics.hpp"    // IWYU pragma: export
#include "obs/obs.hpp"        // IWYU pragma: export
#include "obs/phase_profiler.hpp" // IWYU pragma: export
#include "obs/trace.hpp"      // IWYU pragma: export
#include "obs/trace_export.hpp"   // IWYU pragma: export
#include "seq/dotplot.hpp"    // IWYU pragma: export
#include "seq/fasta.hpp"      // IWYU pragma: export
#include "seq/sequence.hpp"   // IWYU pragma: export
#include "seq/stats.hpp"      // IWYU pragma: export
#include "seq/synth.hpp"      // IWYU pragma: export
#include "sim/pipeline_sim.hpp"   // IWYU pragma: export
#include "sw/alignment.hpp"   // IWYU pragma: export
#include "sw/banded.hpp"      // IWYU pragma: export
#include "sw/block_simd.hpp"  // IWYU pragma: export
#include "sw/kernel.hpp"      // IWYU pragma: export
#include "sw/linear.hpp"      // IWYU pragma: export
#include "sw/modes.hpp"       // IWYU pragma: export
#include "sw/myers_miller.hpp"    // IWYU pragma: export
#include "sw/reference.hpp"   // IWYU pragma: export
#include "vgpu/device.hpp"    // IWYU pragma: export
#include "vgpu/fault.hpp"     // IWYU pragma: export
#include "vgpu/spec.hpp"      // IWYU pragma: export
