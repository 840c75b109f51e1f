// Block-kernel registry: every way this repo can compute a block, by name.
//
// The engine, the vgpu executors, the benches and the CLI --kernel flags
// all select block kernels through this table instead of hard-coding
// calls, so adding a kernel (a new traversal, a new ISA backend, a future
// per-device heterogeneous choice) is one registration here plus nothing
// anywhere else.
//
// Registered names:
//   row          scalar row sweep (the reference every other entry is
//                parity-tested against)
//   antidiag     scalar anti-diagonal sweep (the GPU traversal)
//   strip4       4-row strip-mined scalar sweep
//   simd         8-lane SIMD anti-diagonal, runtime-dispatched to the
//                strongest ISA backend the CPU supports
//   simd16       16-lane saturating int16 SIMD with overflow detection;
//                escalates to the int32 simd kernel when a block might
//                have saturated (bit-identical either way)
//   simd8        32-lane saturating int8 SIMD; escalates int8 -> int16
//                -> int32
//   auto         narrowest safe precision — the int8 ladder entered at
//                int16 when a block's incoming H borders cannot be int8,
//                and the row sweep on a scalar-only host. The registry
//                default: the fastest exact kernel at the engine's
//                128x128 blocks (every SIMD kernel runs its whole strip,
//                fill and drain included, on the vector path)
//   simd-scalar  the SIMD kernel pinned to its scalar backend (always
//                present — the guaranteed fallback)
//   simd-sse42 / simd-avx2
//                pinned vector backends, registered only when the running
//                CPU can execute them (ablation + parity testing)
//   simd16-* / simd8-*
//                the narrow ladders pinned per backend, same registration
//                rule as the pinned simd-* entries
//
// All entries satisfy the same contract and are bit-identical to `row`
// (tests/sw_kernel_parity_test.cpp sweeps the whole table).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sw/block.hpp"

namespace mgpusw::sw {

/// Every block kernel is a pure function of (scheme, args).
using BlockKernelFn = BlockResult (*)(const ScoreScheme& scheme,
                                      const BlockArgs& args);

struct KernelInfo {
  std::string name;
  BlockKernelFn fn = nullptr;
  std::string description;
};

/// Name of the default kernel: the precision ladder (see above).
inline constexpr std::string_view kDefaultKernel = "auto";

/// All kernels runnable on this host, the `row` reference first. Built
/// once; stable for the process lifetime.
[[nodiscard]] const std::vector<KernelInfo>& kernel_registry();

/// Looks a kernel up by name; throws InvalidArgument listing the valid
/// names for unknown ones.
[[nodiscard]] BlockKernelFn find_kernel(std::string_view name);

/// Comma-separated registered names, for --help strings and errors.
[[nodiscard]] std::string kernel_names();

}  // namespace mgpusw::sw
