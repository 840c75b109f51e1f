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
//   simd         the SIMD anti-diagonal kernel at int32, the exact rung,
//                runtime-dispatched to the strongest ISA backend the CPU
//                supports
//   simd16       the same kernel on saturating int16 lanes with overflow
//                detection; escalates to int32 when a block might have
//                saturated (bit-identical either way)
//   simd8        saturating int8 lanes; escalates int8 -> int16 -> int32
//   auto         narrowest safe precision — the int8 ladder entered at
//                int16 when a block's incoming H borders cannot be int8,
//                and the row sweep on a scalar-only host. The registry
//                default: the fastest exact kernel at the engine's
//                128x128 blocks (every SIMD kernel runs its whole strip,
//                fill and drain included, on the vector path)
//   simd-<isa> / simd16-<isa> / simd8-<isa>
//                the three ladders pinned per backend, <isa> one of
//                avx512, avx2, sse42, scalar — built by one loop over
//                (backend x width), registered only for backends the
//                running CPU can execute (ablation + parity testing);
//                the scalar ones are always present, the guaranteed
//                fallback
//
// All entries satisfy the same contract and are bit-identical to `row`
// (tests/sw_kernel_parity_test.cpp sweeps the whole table).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "sw/block.hpp"

namespace mgpusw::sw {

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
