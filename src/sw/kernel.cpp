#include "sw/kernel.hpp"

#include <string>

#include "base/error.hpp"
#include "sw/block_antidiag.hpp"
#include "sw/block_simd.hpp"
#include "sw/block_simd_lp.hpp"
#include "sw/block_strip.hpp"

namespace mgpusw::sw {

const std::vector<KernelInfo>& kernel_registry() {
  static const std::vector<KernelInfo> registry = [] {
    std::vector<KernelInfo> table;
    table.push_back({"row", &compute_block,
                     "scalar row sweep (reference)"});
    table.push_back({"antidiag", &compute_block_antidiag,
                     "scalar anti-diagonal sweep (GPU traversal)"});
    table.push_back({"strip4", &compute_block_strip,
                     "4-row strip-mined scalar sweep"});
    table.push_back(
        {"simd", &compute_block_simd,
         std::string("8-lane SIMD anti-diagonal (dispatched: ") +
             active_simd_backend() + ")"});
    table.push_back({"simd16", &compute_block_i16,
                     "16-lane saturating int16 SIMD; escalates to int32 "
                     "on overflow"});
    table.push_back({"simd8", &compute_block_i8,
                     "32-lane saturating int8 SIMD; escalates "
                     "int8->int16->int32 on overflow"});
    table.push_back({"auto", &compute_block_auto,
                     "narrowest safe precision (full int8->int32 ladder)"});
    // Pinned backends, strongest first; only the ones this CPU can run.
    if (simd_backend_runnable(SimdIsa::kAvx2) &&
        detected_simd_isa() >= SimdIsa::kAvx2) {
      table.push_back({"simd-avx2", &simd_avx2::compute_block_simd_impl,
                       "SIMD kernel pinned to the AVX2 backend"});
      table.push_back({"simd16-avx2", &simd_avx2::compute_block_i16_pinned,
                       "int16 ladder pinned to the AVX2 backend"});
      table.push_back({"simd8-avx2", &simd_avx2::compute_block_i8_pinned,
                       "int8 ladder pinned to the AVX2 backend"});
    }
    if (simd_backend_runnable(SimdIsa::kSse42) &&
        detected_simd_isa() >= SimdIsa::kSse42) {
      table.push_back({"simd-sse42", &simd_sse42::compute_block_simd_impl,
                       "SIMD kernel pinned to the SSE4.2 backend"});
      table.push_back({"simd16-sse42", &simd_sse42::compute_block_i16_pinned,
                       "int16 ladder pinned to the SSE4.2 backend"});
      table.push_back({"simd8-sse42", &simd_sse42::compute_block_i8_pinned,
                       "int8 ladder pinned to the SSE4.2 backend"});
    }
    table.push_back({"simd-scalar", &simd_scalar::compute_block_simd_impl,
                     "SIMD kernel pinned to the scalar fallback backend"});
    table.push_back({"simd16-scalar", &simd_scalar::compute_block_i16_pinned,
                     "int16 ladder pinned to the scalar backend"});
    table.push_back({"simd8-scalar", &simd_scalar::compute_block_i8_pinned,
                     "int8 ladder pinned to the scalar backend"});
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
