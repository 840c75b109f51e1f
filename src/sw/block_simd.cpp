// Runtime dispatcher and precision-ladder entry points.
//
// The three backend TUs each compiled block_simd_lp_impl.hpp with
// different -m flags and export one SimdBackend table; this TU (compiled
// with the portable baseline flags only) checks the CPU once, keeps the
// tables whose code the running CPU can execute, and routes every
// dispatched entry to the strongest of them.
#include "sw/block_simd.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace mgpusw::sw {

namespace {

/// cpuid-based feature detection. GCC/Clang resolve the builtin on x86;
/// every other architecture reports scalar.
SimdIsa cpu_isa() {
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  if (__builtin_cpu_supports("avx2")) return SimdIsa::kAvx2;
  if (__builtin_cpu_supports("sse4.2")) return SimdIsa::kSse42;
#endif
  return SimdIsa::kScalar;
}

/// Optional cap from the MGPUSW_SIMD environment variable.
SimdIsa apply_env_cap(SimdIsa isa) {
  const char* cap = std::getenv("MGPUSW_SIMD");
  if (cap == nullptr) return isa;
  if (std::strcmp(cap, "scalar") == 0) return SimdIsa::kScalar;
  if (std::strcmp(cap, "sse4.2") == 0 || std::strcmp(cap, "sse42") == 0) {
    return isa < SimdIsa::kSse42 ? isa : SimdIsa::kSse42;
  }
  return isa;  // "avx2" or unrecognised: no cap below detection
}

}  // namespace

SimdIsa detected_simd_isa() {
  static const SimdIsa isa = apply_env_cap(cpu_isa());
  return isa;
}

const char* simd_isa_name(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kAvx2: return "avx2";
    case SimdIsa::kSse42: return "sse4.2";
    case SimdIsa::kScalar: return "scalar";
  }
  return "scalar";
}

const std::vector<const SimdBackend*>& runnable_simd_backends() {
  // A backend TU only ever degrades below its target level at compile
  // time (non-x86 host, unsupported -m flag), so a target level the CPU
  // reaches is always safe to call.
  static const std::vector<const SimdBackend*> backends = [] {
    std::vector<const SimdBackend*> runnable;
    for (const SimdBackend* backend : {&simd_avx2::kBackend,
                                       &simd_sse42::kBackend,
                                       &simd_scalar::kBackend}) {
      if (backend->isa <= detected_simd_isa()) runnable.push_back(backend);
    }
    return runnable;
  }();
  return backends;
}

const SimdBackend& dispatched_simd_backend() {
  static const SimdBackend& backend = *runnable_simd_backends().front();
  return backend;
}

const char* active_simd_backend() {
  return dispatched_simd_backend().compiled;
}

template <SimdWidth kWidth>
BlockResult compute_block_simd(const ScoreScheme& scheme,
                               const BlockArgs& args) {
  return dispatched_simd_backend().ladder[static_cast<int>(kWidth)](scheme,
                                                                    args);
}

template BlockResult compute_block_simd<SimdWidth::kI32>(const ScoreScheme&,
                                                         const BlockArgs&);
template BlockResult compute_block_simd<SimdWidth::kI16>(const ScoreScheme&,
                                                         const BlockArgs&);
template BlockResult compute_block_simd<SimdWidth::kI8>(const ScoreScheme&,
                                                        const BlockArgs&);

BlockResult compute_block_auto(const ScoreScheme& scheme,
                               const BlockArgs& args) {
  // The scalar backend's emulated lanes run slower than the row kernel.
  static const bool vector =
      std::strcmp(active_simd_backend(), "scalar") != 0;
  if (!vector) return compute_block(scheme, args);
  // The int8 pass's border pre-check refuses a block whose incoming H
  // values are not all int8-representable. Probing three of them — the
  // corner, the first left-border row and the last top-border column —
  // is O(1) and finds 99% of the refused blocks on a megabase homolog
  // run (the high-scoring band along the alignment), so the ladder
  // starts those at int16 instead of paying for a refused int8 pass.
  constexpr Score kInt8Max = 127;
  if (args.rows > 0 && args.cols > 0 &&
      std::max({args.corner_h, args.left_h[0],
                args.top_h[args.cols - 1]}) > kInt8Max) {
    return compute_block_simd<SimdWidth::kI16>(scheme, args);
  }
  return compute_block_simd<SimdWidth::kI8>(scheme, args);
}

}  // namespace mgpusw::sw
