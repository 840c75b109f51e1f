// Runtime dispatcher and precision-ladder entry points.
//
// The four backend TUs each compiled block_simd_lp_impl.hpp with
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
  if (__builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512dq") &&
      __builtin_cpu_supports("avx512vl") &&
      __builtin_cpu_supports("avx512vbmi")) {
    return SimdIsa::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return SimdIsa::kAvx2;
  if (__builtin_cpu_supports("sse4.2")) return SimdIsa::kSse42;
#endif
  return SimdIsa::kScalar;
}

/// Optional cap from the MGPUSW_SIMD environment variable: the weaker
/// of the detected level and the named one.
SimdIsa apply_env_cap(SimdIsa isa) {
  const char* cap = std::getenv("MGPUSW_SIMD");
  if (cap == nullptr) return isa;
  SimdIsa limit = isa;  // "avx512" or unrecognised: no cap below detection
  if (std::strcmp(cap, "scalar") == 0) {
    limit = SimdIsa::kScalar;
  } else if (std::strcmp(cap, "sse4.2") == 0 ||
             std::strcmp(cap, "sse42") == 0) {
    limit = SimdIsa::kSse42;
  } else if (std::strcmp(cap, "avx2") == 0) {
    limit = SimdIsa::kAvx2;
  }
  return std::min(isa, limit);
}

}  // namespace

SimdIsa detected_simd_isa() {
  static const SimdIsa isa = apply_env_cap(cpu_isa());
  return isa;
}

const char* simd_isa_name(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kAvx512: return "avx512";
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
    for (const SimdBackend* backend :
         {&simd_avx512::kBackend, &simd_avx2::kBackend,
          &simd_sse42::kBackend, &simd_scalar::kBackend}) {
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

namespace {

constexpr Score kInt8Max = 127;

/// Column granule of a split auto tile: each is int8 or int16 as a whole.
constexpr std::int64_t kAutoGranuleCols = 128;

/// True when a border holds an H value above int8. Border H values are
/// non-negative, so OR-ing them leaves a bit above the int8 range set
/// exactly when one is out of it (a negative one, which the contract
/// excludes, would only send the run wider). Four accumulators let the
/// compiler OR whole vectors at the baseline ISA, which it does not do
/// for a max.
bool above_int8(const Score* h, std::int64_t n) {
  Score acc[4] = {0, 0, 0, 0};
  std::int64_t k = 0;
  for (; k + 4 <= n; k += 4) {
    for (int l = 0; l < 4; ++l) acc[l] |= h[k + l];
  }
  Score bits = acc[0] | acc[1] | acc[2] | acc[3];
  for (; k < n; ++k) bits |= h[k];
  return (bits & ~kInt8Max) != 0;
}

/// One kernel call of an auto tile: the int16 ladder when its columns
/// are marked high or an incoming H value on its corner or left border
/// is not int8-representable, the int8 ladder otherwise.
BlockResult compute_narrowest(const ScoreScheme& scheme,
                              const BlockArgs& args, bool high) {
  if (high || args.corner_h > kInt8Max || above_int8(args.left_h, args.rows)) {
    return compute_block_simd<SimdWidth::kI16>(scheme, args);
  }
  return compute_block_simd<SimdWidth::kI8>(scheme, args);
}

}  // namespace

BlockResult compute_block_auto(const ScoreScheme& scheme,
                               const BlockArgs& args) {
  // The scalar backend's emulated lanes run slower than the row kernel.
  static const bool vector =
      std::strcmp(active_simd_backend(), "scalar") != 0;
  if (!vector) return compute_block(scheme, args);
  // Every run's incoming H values are scanned whole, the same H range
  // test the int8 pre-check makes, so that pre-check refuses no run. A
  // narrow tile (every short-read slice) is one run: splitting it costs
  // more set-up than int8 saves (kAutoSplitCols).
  if (args.cols <= kAutoSplitCols) {
    return compute_narrowest(scheme, args, above_int8(args.top_h, args.cols));
  }

  // A wider tile splits into maximal runs of 128-column granules of one
  // class. A granule is high when its top border holds an H value above
  // int8. Behind a homolog alignment those values form a wedge that
  // decays by gap_extend per column on either side of the alignment.
  // High runs take the int16 ladder and low runs the int8 one.
  //
  // Runs go left to right: run k's left border is run k-1's right output
  // (in args.right_h/right_e, the same arrays it then overwrites), and
  // its corner is top_h[c0 - 1], saved before run k-1's bottom row
  // overwrites it when bottom aliases top. The alignment moves right as
  // the rows go down, so the left border a high run hands on can still
  // be above int8. The int8 pre-check would refuse such a low run, so
  // it peels granules off at int16 until the border fits. Best
  // cells merge with the total order of sw::improves; border_max is the
  // earlier runs' bottom rows plus the last run's bottom row and right
  // column.
  BlockResult result;
  Score corner = args.corner_h;
  const auto compute_span = [&](std::int64_t c0, std::int64_t c1,
                                bool high) {
    BlockArgs run = args;
    run.subject = args.subject + c0;
    run.cols = c1 - c0;
    run.global_col = args.global_col + c0;
    run.top_h = args.top_h + c0;
    run.top_f = args.top_f + c0;
    run.bottom_h = args.bottom_h + c0;
    run.bottom_f = args.bottom_f + c0;
    if (c0 > 0) {
      run.left_h = args.right_h;
      run.left_e = args.right_e;
    }
    run.corner_h = corner;
    corner = args.top_h[c1 - 1];
    const BlockResult part = compute_narrowest(scheme, run, high);
    if (improves(part.best, result.best)) result.best = part.best;
    result.border_max = std::max(
        result.border_max,
        c1 < args.cols
            ? *std::max_element(run.bottom_h, run.bottom_h + run.cols)
            : part.border_max);
    result.overflow_reruns += part.overflow_reruns;
  };
  const auto compute_run = [&](std::int64_t c0, std::int64_t c1,
                               bool high) {
    while (!high && c1 - c0 > kAutoGranuleCols &&
           (corner > kInt8Max ||
            above_int8(c0 > 0 ? args.right_h : args.left_h, args.rows))) {
      compute_span(c0, c0 + kAutoGranuleCols, /*high=*/true);
      c0 += kAutoGranuleCols;
    }
    compute_span(c0, c1, high);
  };

  std::int64_t run_start = 0;
  bool run_high = false;
  for (std::int64_t c0 = 0; c0 < args.cols; c0 += kAutoGranuleCols) {
    const bool high = above_int8(args.top_h + c0,
                                 std::min(kAutoGranuleCols, args.cols - c0));
    if (c0 > 0 && high != run_high) {
      compute_run(run_start, c0, run_high);
      run_start = c0;
    }
    run_high = high;
  }
  compute_run(run_start, args.cols, run_high);
  return result;
}

}  // namespace mgpusw::sw
