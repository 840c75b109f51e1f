#include "sw/kernel.hpp"

#include <string>

#include "base/error.hpp"
#include "sw/block_simd.hpp"

namespace mgpusw::sw {

namespace {

/// Registry names and descriptions of the ladder entered at each
/// SimdWidth, in SimdWidth order.
struct WidthEntry {
  const char* name;
  BlockKernelFn dispatched;
  const char* description;
};
constexpr WidthEntry kWidthEntries[kSimdWidths] = {
    {"simd", &compute_block_simd<SimdWidth::kI32>,
     "int32 SIMD anti-diagonal"},
    {"simd16", &compute_block_simd<SimdWidth::kI16>,
     "saturating int16 SIMD; escalates to int32 on overflow"},
    {"simd8", &compute_block_simd<SimdWidth::kI8>,
     "saturating int8 SIMD; escalates int8->int16->int32 on overflow"},
};

}  // namespace

const std::vector<KernelInfo>& kernel_registry() {
  static const std::vector<KernelInfo> registry = [] {
    std::vector<KernelInfo> table;
    table.push_back({"row", &compute_block,
                     "scalar row sweep (reference)"});
    for (const WidthEntry& width : kWidthEntries) {
      table.push_back({width.name, width.dispatched,
                       std::string(width.description) + " (dispatched: " +
                           active_simd_backend() + ")"});
    }
    table.push_back({"auto", &compute_block_auto,
                     "narrowest safe precision (full int8->int32 ladder)"});
    // Pinned backends, strongest first; only the ones this CPU can run.
    for (const SimdBackend* backend : runnable_simd_backends()) {
      for (int w = 0; w < kSimdWidths; ++w) {
        const WidthEntry& width = kWidthEntries[w];
        table.push_back({std::string(width.name) + "-" + backend->tag,
                         backend->ladder[w],
                         std::string(width.description) +
                             " pinned to the " + backend->tag + " backend"});
      }
    }
    return table;
  }();
  return registry;
}

BlockKernelFn find_kernel(std::string_view name) {
  for (const KernelInfo& info : kernel_registry()) {
    if (info.name == name) return info.fn;
  }
  throw InvalidArgument("unknown block kernel '" + std::string(name) +
                        "' (registered: " + kernel_names() + ")");
}

std::string kernel_names() {
  std::string names;
  for (const KernelInfo& info : kernel_registry()) {
    if (!names.empty()) names += ", ";
    names += info.name;
  }
  return names;
}

}  // namespace mgpusw::sw
