// Vector lane-width traits for the one SIMD block kernel
// (block_simd_lp_impl.hpp) and the inter-sequence batch kernel.
//
// One set of traits, four backends, selected at *compile time of the
// including translation unit* from the compiler's feature macros:
//
//   * AVX-512 (__AVX512BW__, __AVX512DQ__, __AVX512VL__, __AVX512VBMI__)
//                           — 512-bit vectors with k-register masks;
//   * AVX2    (__AVX2__)    — 256-bit vectors;
//   * SSE4.2  (__SSE4_2__)  — native 128-bit vectors (SSE4.1 provides
//                             the epi32/epi8 min/max/blend forms);
//   * scalar  (fallback)    — plain lane arrays the autovectorizer may
//                             still chew on; always correct, always
//                             available, exercised on non-x86 hosts.
//
// Because the backend is fixed per TU, every TU that includes this header
// must first define MGPUSW_SIMD_NS to a unique namespace token (e.g.
// simd_avx2). The kernels are then instantiated once per backend in their
// own namespace — four ODR-distinct copies of the same source, each
// compiled with different -m flags — and the cpuid-based dispatcher
// (block_simd.cpp) picks one at runtime. A TU may define
// MGPUSW_SIMD_FORCE_SCALAR to pin the scalar backend even when the
// compiler would allow a vector one (the dispatcher's guaranteed
// fallback TU does this).
//
// Three width traits, the rungs of the precision ladder:
//
//   LpI32 — the exact rung: 16 lanes of int32 on AVX-512, 8 on AVX2 (4
//           on SSE4.2, 4 emulated on scalar) with plain, non-saturating
//           add/sub;
//   LpI16 — 32 lanes of int16 on AVX-512, 16 on AVX2 (8 on SSE4.2, 16
//           emulated);
//   LpI8  — 64 lanes of int8 on AVX-512, 32 on AVX2 (16 on SSE4.2, 32
//           emulated).
//
// The narrow rungs' arithmetic is *saturating* (adds/subs clamp at the
// type limits instead of wrapping), which is what makes overflow
// detection possible: a Smith-Waterman H value can only leave the
// representable range upwards, saturating at kMax, and any saturated
// cell is >= the saturation watermark (kMax - match), so a post-hoc
// check of the maximum observed H proves whether every computed value
// was exact. Down-saturation only happens on the neg-inf gap sentinels,
// which can never win a max against a reachable value (H >= 0 keeps the
// H-derived branch above every clamped chain), so it never changes a
// result. kExact marks the int32 rung, which needs no such check.
//
// The operation set is the minimum the Gotoh anti-diagonal kernel needs:
// load/store/broadcast, add/sub (saturating on the narrow rungs), max,
// compares producing a lane mask (W::Mask), mask blends, a one-lane
// shift-in of a vector (the wavefront rotation) and of a mask (the
// fill/drain active lanes), and a last-lane store (the strip's
// bottom-row output). W::Mask is a k-register (__mmask64/32/16) on
// AVX-512 and the vector itself, all-ones or all-zero per lane, on the
// other backends; a value-initialized Mask has every lane off.
// store_last(dst, v) writes v's last lane to *dst and nothing else: a
// one-lane masked store on AVX-512, an extract and a scalar store
// elsewhere. shift_in's incoming-element pointer must have 4 readable
// bytes: the AVX2 and SSE4.2 backends fetch the element with a single
// 32-bit load (cheaper than a sub-32-bit broadcast or insert on the
// shuffle port) and mask off the stray bytes; AVX-512 loads exactly one
// element under a lane-0 mask.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>

#ifndef MGPUSW_SIMD_NS
#error "define MGPUSW_SIMD_NS to a unique namespace before including sw/simd_lp.hpp"
#endif

#if defined(__AVX512BW__) && defined(__AVX512DQ__) && \
    defined(__AVX512VL__) && defined(__AVX512VBMI__) && \
    !defined(MGPUSW_SIMD_FORCE_SCALAR)
#define MGPUSW_SIMD_BACKEND_AVX512 1
#include <immintrin.h>
#elif defined(__AVX2__) && !defined(MGPUSW_SIMD_FORCE_SCALAR)
#define MGPUSW_SIMD_BACKEND_AVX2 1
#include <immintrin.h>
#elif defined(__SSE4_2__) && !defined(MGPUSW_SIMD_FORCE_SCALAR)
#define MGPUSW_SIMD_BACKEND_SSE42 1
#include <nmmintrin.h>
#include <smmintrin.h>
#endif

namespace mgpusw::sw::MGPUSW_SIMD_NS {

namespace lp_detail {

/// shift_in sources of an all-ones or an all-zero lane 0, for the
/// backends whose Mask is a vector. Four elements each, because shift_in
/// may read 4 bytes at its source.
template <typename E>
inline constexpr E kLaneOn[4] = {-1, -1, -1, -1};
template <typename E>
inline constexpr E kLaneOff[4] = {0, 0, 0, 0};

}  // namespace lp_detail

#if defined(MGPUSW_SIMD_BACKEND_AVX512)

inline constexpr const char* kSimdBackendName = "avx512";

// The AVX-512 backend runs full 512-bit vectors — 16×int32, 32×int16 and
// 64×int8 lanes — and keeps every lane mask in a k-register. The masks
// are what make the width pay: compares write k-registers directly,
// blends read them without a vector-mask operand, the fill/drain active
// lanes advance by a k-register shift and OR, and the bottom-row write
// is a one-lane masked store instead of a cross-lane extract. Each of
// those frees the shuffle port that shift_in already loads twice a step.
//
// shift_in is a masked lane-0 load (a load-port op that reads exactly
// one element) plus one two-source permute (vpermt2d/w/b), whose index
// vector puts the incoming element in lane 0 and a[r-1] in lane r.

struct LpI32 {
  static constexpr int kLanes = 16;
  using Elem = std::int32_t;
  static constexpr bool kExact = true;
  static constexpr int kSegSteps = 1 << 30;

  struct Vec {
    __m512i v;
  };
  using Mask = __mmask16;

  static Vec load(const Elem* p) { return {_mm512_loadu_si512(p)}; }
  static void store(Elem* p, Vec a) { _mm512_storeu_si512(p, a.v); }
  static Vec broadcast(Elem x) { return {_mm512_set1_epi32(x)}; }
  static Vec adds(Vec a, Vec b) { return {_mm512_add_epi32(a.v, b.v)}; }
  static Vec subs(Vec a, Vec b) { return {_mm512_sub_epi32(a.v, b.v)}; }
  /// The merge-masked form with every lane on is plain vpmaxsd; GCC 12's
  /// unmasked _mm512_max_epi32 passes an undefined vector that trips
  /// -Wmaybe-uninitialized.
  static Vec max(Vec a, Vec b) {
    return {_mm512_mask_max_epi32(a.v, Mask(~0), a.v, b.v)};
  }
  static Mask cmpgt(Vec a, Vec b) {
    return _mm512_cmpgt_epi32_mask(a.v, b.v);
  }
  static Mask cmpeq(Vec a, Vec b) {
    return _mm512_cmpeq_epi32_mask(a.v, b.v);
  }
  /// Per lane: mask ? b : a.
  static Vec blend(Vec a, Vec b, Mask mask) {
    return {_mm512_mask_blend_epi32(mask, a.v, b.v)};
  }
  /// Lane 0 <- *p, lane r <- a[r-1]. Reads only *p.
  static Vec shift_in(Vec a, const Elem* p) {
    const __m512i index = _mm512_setr_epi32(16, 0, 1, 2, 3, 4, 5, 6,  //
                                            7, 8, 9, 10, 11, 12, 13, 14);
    return {_mm512_permutex2var_epi32(a.v, index,
                                      _mm512_maskz_loadu_epi32(1, p))};
  }
  /// Lane 0 <- on, lane r <- mask[r-1].
  static Mask shift_in_mask(Mask mask, bool on) {
    return _kor_mask16(_kshiftli_mask16(mask, 1), static_cast<Mask>(on));
  }
  /// *dst <- a[kLanes-1]; a one-lane masked store, so the lanes below
  /// it address memory that is never touched.
  static void store_last(Elem* dst, Vec a) {
    _mm512_mask_storeu_epi32(dst - (kLanes - 1), Mask{1} << (kLanes - 1),
                             a.v);
  }
};

struct LpI16 {
  static constexpr int kLanes = 32;
  using Elem = std::int16_t;
  static constexpr bool kExact = false;
  static constexpr Elem kMax = 32767;
  static constexpr Elem kMin = -32768;
  static constexpr Elem kNegInf = kMin / 2;
  static constexpr int kSegSteps = 16384;

  struct Vec {
    __m512i v;
  };
  using Mask = __mmask32;

  static Vec load(const Elem* p) { return {_mm512_loadu_si512(p)}; }
  static void store(Elem* p, Vec a) { _mm512_storeu_si512(p, a.v); }
  static Vec broadcast(Elem x) { return {_mm512_set1_epi16(x)}; }
  static Vec adds(Vec a, Vec b) { return {_mm512_adds_epi16(a.v, b.v)}; }
  static Vec subs(Vec a, Vec b) { return {_mm512_subs_epi16(a.v, b.v)}; }
  static Vec max(Vec a, Vec b) { return {_mm512_max_epi16(a.v, b.v)}; }
  static Mask cmpgt(Vec a, Vec b) {
    return _mm512_cmpgt_epi16_mask(a.v, b.v);
  }
  static Mask cmpeq(Vec a, Vec b) {
    return _mm512_cmpeq_epi16_mask(a.v, b.v);
  }
  static Vec blend(Vec a, Vec b, Mask mask) {
    return {_mm512_mask_blend_epi16(mask, a.v, b.v)};
  }
  static Vec shift_in(Vec a, const Elem* p) {
    const __m512i index = _mm512_set_epi16(
        30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15,  //
        14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 32);
    return {_mm512_permutex2var_epi16(a.v, index,
                                      _mm512_maskz_loadu_epi16(1, p))};
  }
  static Mask shift_in_mask(Mask mask, bool on) {
    return _kor_mask32(_kshiftli_mask32(mask, 1), static_cast<Mask>(on));
  }
  static void store_last(Elem* dst, Vec a) {
    _mm512_mask_storeu_epi16(dst - (kLanes - 1), Mask{1} << (kLanes - 1),
                             a.v);
  }
};

struct LpI8 {
  static constexpr int kLanes = 64;
  using Elem = std::int8_t;
  static constexpr bool kExact = false;
  static constexpr Elem kMax = 127;
  static constexpr Elem kMin = -128;
  static constexpr Elem kNegInf = kMin / 2;
  static constexpr int kSegSteps = 96;

  struct Vec {
    __m512i v;
  };
  using Mask = __mmask64;

  static Vec load(const Elem* p) { return {_mm512_loadu_si512(p)}; }
  static void store(Elem* p, Vec a) { _mm512_storeu_si512(p, a.v); }
  static Vec broadcast(Elem x) { return {_mm512_set1_epi8(x)}; }
  static Vec adds(Vec a, Vec b) { return {_mm512_adds_epi8(a.v, b.v)}; }
  static Vec subs(Vec a, Vec b) { return {_mm512_subs_epi8(a.v, b.v)}; }
  static Vec max(Vec a, Vec b) { return {_mm512_max_epi8(a.v, b.v)}; }
  static Mask cmpgt(Vec a, Vec b) {
    return _mm512_cmpgt_epi8_mask(a.v, b.v);
  }
  static Mask cmpeq(Vec a, Vec b) {
    return _mm512_cmpeq_epi8_mask(a.v, b.v);
  }
  static Vec blend(Vec a, Vec b, Mask mask) {
    return {_mm512_mask_blend_epi8(mask, a.v, b.v)};
  }
  static Vec shift_in(Vec a, const Elem* p) {
    const __m512i index = _mm512_set_epi8(
        62, 61, 60, 59, 58, 57, 56, 55, 54, 53, 52, 51, 50, 49, 48, 47,  //
        46, 45, 44, 43, 42, 41, 40, 39, 38, 37, 36, 35, 34, 33, 32, 31,  //
        30, 29, 28, 27, 26, 25, 24, 23, 22, 21, 20, 19, 18, 17, 16, 15,  //
        14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 64);
    return {_mm512_permutex2var_epi8(a.v, index,
                                     _mm512_maskz_loadu_epi8(1, p))};
  }
  static Mask shift_in_mask(Mask mask, bool on) {
    return _kor_mask64(_kshiftli_mask64(mask, 1), static_cast<Mask>(on));
  }
  static void store_last(Elem* dst, Vec a) {
    _mm512_mask_storeu_epi8(dst - (kLanes - 1), Mask{1} << (kLanes - 1),
                            a.v);
  }
};

#elif defined(MGPUSW_SIMD_BACKEND_AVX2)

inline constexpr const char* kSimdBackendName = "avx2";

struct LpI32 {
  static constexpr int kLanes = 8;
  using Elem = std::int32_t;
  static constexpr bool kExact = true;
  /// Column offsets fit the lane type for any block the kernel accepts.
  static constexpr int kSegSteps = 1 << 30;

  struct Vec {
    __m256i v;
  };
  using Mask = Vec;  // all-ones or all-zero lanes

  static Vec load(const Elem* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  static void store(Elem* p, Vec a) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), a.v);
  }
  static Vec broadcast(Elem x) { return {_mm256_set1_epi32(x)}; }
  static Vec adds(Vec a, Vec b) { return {_mm256_add_epi32(a.v, b.v)}; }
  static Vec subs(Vec a, Vec b) { return {_mm256_sub_epi32(a.v, b.v)}; }
  static Vec max(Vec a, Vec b) { return {_mm256_max_epi32(a.v, b.v)}; }
  static Mask cmpgt(Vec a, Vec b) { return {_mm256_cmpgt_epi32(a.v, b.v)}; }
  static Mask cmpeq(Vec a, Vec b) { return {_mm256_cmpeq_epi32(a.v, b.v)}; }
  /// Per lane: mask ? b : a (mask lanes are all-ones or all-zero).
  static Vec blend(Vec a, Vec b, Mask mask) {
    return {_mm256_blendv_epi8(a.v, b.v, mask.v)};
  }
  /// Lane 0 <- *p, lane r <- a[r-1]. The same zeroed-lane-0 OR merge as
  /// LpI16::shift_in; the 32-bit load is exactly one element, so it
  /// needs no mask and reads nothing past *p.
  static Vec shift_in(Vec a, const Elem* p) {
    const __m256i low_to_high = _mm256_permute2x128_si256(a.v, a.v, 0x08);
    const __m256i shifted = _mm256_alignr_epi8(a.v, low_to_high, 12);
    return {_mm256_or_si256(shifted,
                            _mm256_zextsi128_si256(_mm_loadu_si32(p)))};
  }
  static Mask shift_in_mask(Mask mask, bool on) {
    return shift_in(mask, on ? lp_detail::kLaneOn<Elem>
                             : lp_detail::kLaneOff<Elem>);
  }
  static void store_last(Elem* dst, Vec a) {
    *dst = _mm256_extract_epi32(a.v, 7);
  }
};

struct LpI16 {
  static constexpr int kLanes = 16;
  using Elem = std::int16_t;
  static constexpr bool kExact = false;
  static constexpr Elem kMax = 32767;
  static constexpr Elem kMin = -32768;
  /// Narrow neg-inf sentinel; one gap subtraction cannot cross zero.
  static constexpr Elem kNegInf = kMin / 2;
  /// Steps per best-cell tracking segment (column offsets must fit Elem).
  static constexpr int kSegSteps = 16384;

  struct Vec {
    __m256i v;
  };
  using Mask = Vec;  // all-ones or all-zero lanes

  static Vec load(const Elem* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  static void store(Elem* p, Vec a) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), a.v);
  }
  static Vec broadcast(Elem x) { return {_mm256_set1_epi16(x)}; }
  static Vec adds(Vec a, Vec b) { return {_mm256_adds_epi16(a.v, b.v)}; }
  static Vec subs(Vec a, Vec b) { return {_mm256_subs_epi16(a.v, b.v)}; }
  static Vec max(Vec a, Vec b) { return {_mm256_max_epi16(a.v, b.v)}; }
  static Mask cmpgt(Vec a, Vec b) { return {_mm256_cmpgt_epi16(a.v, b.v)}; }
  static Mask cmpeq(Vec a, Vec b) { return {_mm256_cmpeq_epi16(a.v, b.v)}; }
  /// Per lane: mask ? b : a (mask lanes are all-ones or all-zero).
  static Vec blend(Vec a, Vec b, Mask mask) {
    return {_mm256_blendv_epi8(a.v, b.v, mask.v)};
  }
  /// Lane 0 <- *p, lane r <- a[r-1]: the wavefront rotation. MAY READ 4
  /// BYTES AT p — callers give the source array that much tail runway.
  ///
  /// The kernel is bound by this operation twice over, so both of its
  /// costs are minimized. Latency: the 0x08 permute selector zeroes the
  /// low half, which makes alignr leave lane 0 zero, so the incoming
  /// lane can be OR'd in for one on-chain cycle (an insert or blend
  /// would pay 2-3 to split and rejoin the 128-bit halves). Shuffle-port
  /// pressure: two shift_ins per column plus the two row extracts keep
  /// Intel's lone shuffle port the kernel's throughput limit, so the
  /// incoming element arrives via a plain 32-bit load masked to lane 0
  /// — a pure load-port op — not a 16-bit broadcast, whose memory form
  /// still issues a shuffle.
  static Vec shift_in(Vec a, const Elem* p) {
    const __m256i low_to_high = _mm256_permute2x128_si256(a.v, a.v, 0x08);
    const __m256i shifted = _mm256_alignr_epi8(a.v, low_to_high, 14);
    const __m256i lane0 =
        _mm256_setr_epi16(-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0);
    const __m256i incoming = _mm256_and_si256(
        _mm256_castsi128_si256(_mm_loadu_si32(p)), lane0);
    return {_mm256_or_si256(shifted, incoming)};
  }
  static Mask shift_in_mask(Mask mask, bool on) {
    return shift_in(mask, on ? lp_detail::kLaneOn<Elem>
                             : lp_detail::kLaneOff<Elem>);
  }
  static void store_last(Elem* dst, Vec a) {
    *dst = static_cast<Elem>(_mm256_extract_epi16(a.v, 15));
  }
};

struct LpI8 {
  static constexpr int kLanes = 32;
  using Elem = std::int8_t;
  static constexpr bool kExact = false;
  static constexpr Elem kMax = 127;
  static constexpr Elem kMin = -128;
  static constexpr Elem kNegInf = kMin / 2;
  static constexpr int kSegSteps = 96;

  struct Vec {
    __m256i v;
  };
  using Mask = Vec;  // all-ones or all-zero lanes

  static Vec load(const Elem* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  static void store(Elem* p, Vec a) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), a.v);
  }
  static Vec broadcast(Elem x) { return {_mm256_set1_epi8(x)}; }
  static Vec adds(Vec a, Vec b) { return {_mm256_adds_epi8(a.v, b.v)}; }
  static Vec subs(Vec a, Vec b) { return {_mm256_subs_epi8(a.v, b.v)}; }
  static Vec max(Vec a, Vec b) { return {_mm256_max_epi8(a.v, b.v)}; }
  static Mask cmpgt(Vec a, Vec b) { return {_mm256_cmpgt_epi8(a.v, b.v)}; }
  static Mask cmpeq(Vec a, Vec b) { return {_mm256_cmpeq_epi8(a.v, b.v)}; }
  static Vec blend(Vec a, Vec b, Mask mask) {
    return {_mm256_blendv_epi8(a.v, b.v, mask.v)};
  }
  /// Same zeroed-lane-0 OR merge and shuffle-free 32-bit incoming load
  /// as LpI16::shift_in. MAY READ 4 BYTES AT p.
  static Vec shift_in(Vec a, const Elem* p) {
    const __m256i low_to_high = _mm256_permute2x128_si256(a.v, a.v, 0x08);
    const __m256i shifted = _mm256_alignr_epi8(a.v, low_to_high, 15);
    const __m256i lane0 = _mm256_setr_epi8(
        -1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,  //
        0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0);
    const __m256i incoming = _mm256_and_si256(
        _mm256_castsi128_si256(_mm_loadu_si32(p)), lane0);
    return {_mm256_or_si256(shifted, incoming)};
  }
  static Mask shift_in_mask(Mask mask, bool on) {
    return shift_in(mask, on ? lp_detail::kLaneOn<Elem>
                             : lp_detail::kLaneOff<Elem>);
  }
  static void store_last(Elem* dst, Vec a) {
    *dst = static_cast<Elem>(_mm256_extract_epi8(a.v, 31));
  }
};

#elif defined(MGPUSW_SIMD_BACKEND_SSE42)

inline constexpr const char* kSimdBackendName = "sse4.2";

// The SSE4.2 backends use the ISA's native 128-bit width — 4×int32,
// 8×int16 and 16×int8 lanes — rather than double-pumping two registers
// to match AVX2's lane count. The kernel keeps ~14 logical vectors live
// in the steady loop; at two xmm each that is twice the architectural
// register file and the compiler spills every iteration, while one xmm
// each fits. This also keeps the per-backend benchmark comparison
// meaningful: each ISA runs at its own register width.

struct LpI32 {
  static constexpr int kLanes = 4;
  using Elem = std::int32_t;
  static constexpr bool kExact = true;
  static constexpr int kSegSteps = 1 << 30;

  struct Vec {
    __m128i v;
  };
  using Mask = Vec;

  static Vec load(const Elem* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  static void store(Elem* p, Vec a) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), a.v);
  }
  static Vec broadcast(Elem x) { return {_mm_set1_epi32(x)}; }
  static Vec adds(Vec a, Vec b) { return {_mm_add_epi32(a.v, b.v)}; }
  static Vec subs(Vec a, Vec b) { return {_mm_sub_epi32(a.v, b.v)}; }
  static Vec max(Vec a, Vec b) { return {_mm_max_epi32(a.v, b.v)}; }
  static Mask cmpgt(Vec a, Vec b) { return {_mm_cmpgt_epi32(a.v, b.v)}; }
  static Mask cmpeq(Vec a, Vec b) { return {_mm_cmpeq_epi32(a.v, b.v)}; }
  static Vec blend(Vec a, Vec b, Mask mask) {
    return {_mm_blendv_epi8(a.v, b.v, mask.v)};
  }
  /// Lane 0 <- *p, lane r <- a[r-1]; the 32-bit load is one element.
  static Vec shift_in(Vec a, const Elem* p) {
    return {_mm_or_si128(_mm_slli_si128(a.v, 4), _mm_loadu_si32(p))};
  }
  static Mask shift_in_mask(Mask mask, bool on) {
    return shift_in(mask, on ? lp_detail::kLaneOn<Elem>
                             : lp_detail::kLaneOff<Elem>);
  }
  static void store_last(Elem* dst, Vec a) { *dst = _mm_extract_epi32(a.v, 3); }
};

struct LpI16 {
  static constexpr int kLanes = 8;
  using Elem = std::int16_t;
  static constexpr bool kExact = false;
  static constexpr Elem kMax = 32767;
  static constexpr Elem kMin = -32768;
  static constexpr Elem kNegInf = kMin / 2;
  static constexpr int kSegSteps = 16384;

  struct Vec {
    __m128i v;
  };
  using Mask = Vec;

  static Vec load(const Elem* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  static void store(Elem* p, Vec a) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), a.v);
  }
  static Vec broadcast(Elem x) { return {_mm_set1_epi16(x)}; }
  static Vec adds(Vec a, Vec b) { return {_mm_adds_epi16(a.v, b.v)}; }
  static Vec subs(Vec a, Vec b) { return {_mm_subs_epi16(a.v, b.v)}; }
  static Vec max(Vec a, Vec b) { return {_mm_max_epi16(a.v, b.v)}; }
  static Mask cmpgt(Vec a, Vec b) { return {_mm_cmpgt_epi16(a.v, b.v)}; }
  static Mask cmpeq(Vec a, Vec b) { return {_mm_cmpeq_epi16(a.v, b.v)}; }
  static Vec blend(Vec a, Vec b, Mask mask) {
    return {_mm_blendv_epi8(a.v, b.v, mask.v)};
  }
  /// Lane 0 <- *p, lane r <- a[r-1]. MAY READ 4 BYTES AT p: like the
  /// AVX2 backend, the incoming element arrives as a masked 32-bit load
  /// and an OR — load-port ops — so the byte shift is the rotation's
  /// only shuffle-port uop (pinsrw would be a second).
  static Vec shift_in(Vec a, const Elem* p) {
    const __m128i lane0 = _mm_setr_epi16(-1, 0, 0, 0, 0, 0, 0, 0);
    const __m128i incoming = _mm_and_si128(_mm_loadu_si32(p), lane0);
    return {_mm_or_si128(_mm_slli_si128(a.v, 2), incoming)};
  }
  static Mask shift_in_mask(Mask mask, bool on) {
    return shift_in(mask, on ? lp_detail::kLaneOn<Elem>
                             : lp_detail::kLaneOff<Elem>);
  }
  static void store_last(Elem* dst, Vec a) {
    *dst = static_cast<Elem>(_mm_extract_epi16(a.v, 7));
  }
};

struct LpI8 {
  static constexpr int kLanes = 16;
  using Elem = std::int8_t;
  static constexpr bool kExact = false;
  static constexpr Elem kMax = 127;
  static constexpr Elem kMin = -128;
  static constexpr Elem kNegInf = kMin / 2;
  static constexpr int kSegSteps = 96;

  struct Vec {
    __m128i v;
  };
  using Mask = Vec;

  static Vec load(const Elem* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  static void store(Elem* p, Vec a) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), a.v);
  }
  static Vec broadcast(Elem x) { return {_mm_set1_epi8(x)}; }
  static Vec adds(Vec a, Vec b) { return {_mm_adds_epi8(a.v, b.v)}; }
  static Vec subs(Vec a, Vec b) { return {_mm_subs_epi8(a.v, b.v)}; }
  static Vec max(Vec a, Vec b) { return {_mm_max_epi8(a.v, b.v)}; }
  static Mask cmpgt(Vec a, Vec b) { return {_mm_cmpgt_epi8(a.v, b.v)}; }
  static Mask cmpeq(Vec a, Vec b) { return {_mm_cmpeq_epi8(a.v, b.v)}; }
  static Vec blend(Vec a, Vec b, Mask mask) {
    return {_mm_blendv_epi8(a.v, b.v, mask.v)};
  }
  /// Same masked 32-bit incoming load as LpI16. MAY READ 4 BYTES AT p.
  static Vec shift_in(Vec a, const Elem* p) {
    const __m128i lane0 = _mm_setr_epi8(-1, 0, 0, 0, 0, 0, 0, 0,  //
                                        0, 0, 0, 0, 0, 0, 0, 0);
    const __m128i incoming = _mm_and_si128(_mm_loadu_si32(p), lane0);
    return {_mm_or_si128(_mm_slli_si128(a.v, 1), incoming)};
  }
  static Mask shift_in_mask(Mask mask, bool on) {
    return shift_in(mask, on ? lp_detail::kLaneOn<Elem>
                             : lp_detail::kLaneOff<Elem>);
  }
  static void store_last(Elem* dst, Vec a) {
    *dst = static_cast<Elem>(_mm_extract_epi8(a.v, 15));
  }
};

#else  // scalar fallback

inline constexpr const char* kSimdBackendName = "scalar";

namespace lp_detail {

/// Shared scalar implementation of the lane ops — saturating on the
/// narrow rungs, plain on the exact int32 rung; the autovectorizer may
/// still turn these loops into vector code.
template <typename E, int N, int Seg>
struct ScalarLp {
  static constexpr int kLanes = N;
  using Elem = E;
  static constexpr bool kExact = sizeof(E) == sizeof(int);
  static constexpr Elem kMax = std::numeric_limits<E>::max();
  static constexpr Elem kMin = std::numeric_limits<E>::min();
  static constexpr Elem kNegInf = static_cast<E>(kMin / 2);
  static constexpr int kSegSteps = Seg;

  struct Vec {
    Elem lane[N];
  };
  using Mask = Vec;  // all-ones or all-zero lanes

  static Elem sat(int x) {
    if constexpr (!kExact) {
      if (x > kMax) return kMax;
      if (x < kMin) return kMin;
    }
    return static_cast<Elem>(x);
  }
  static Vec load(const Elem* p) {
    Vec r;
    std::memcpy(r.lane, p, sizeof(r.lane));
    return r;
  }
  static void store(Elem* p, Vec a) { std::memcpy(p, a.lane, sizeof(a.lane)); }
  static Vec broadcast(Elem x) {
    Vec r;
    for (int i = 0; i < N; ++i) r.lane[i] = x;
    return r;
  }
  static Vec adds(Vec a, Vec b) {
    Vec r;
    for (int i = 0; i < N; ++i) r.lane[i] = sat(a.lane[i] + b.lane[i]);
    return r;
  }
  static Vec subs(Vec a, Vec b) {
    Vec r;
    for (int i = 0; i < N; ++i) r.lane[i] = sat(a.lane[i] - b.lane[i]);
    return r;
  }
  static Vec max(Vec a, Vec b) {
    Vec r;
    for (int i = 0; i < N; ++i) {
      r.lane[i] = a.lane[i] > b.lane[i] ? a.lane[i] : b.lane[i];
    }
    return r;
  }
  static Mask cmpgt(Vec a, Vec b) {
    Mask r;
    for (int i = 0; i < N; ++i) {
      r.lane[i] = a.lane[i] > b.lane[i] ? static_cast<Elem>(-1) : 0;
    }
    return r;
  }
  static Mask cmpeq(Vec a, Vec b) {
    Mask r;
    for (int i = 0; i < N; ++i) {
      r.lane[i] = a.lane[i] == b.lane[i] ? static_cast<Elem>(-1) : 0;
    }
    return r;
  }
  static Vec blend(Vec a, Vec b, Mask mask) {
    Vec r;
    for (int i = 0; i < N; ++i) {
      r.lane[i] = mask.lane[i] != 0 ? b.lane[i] : a.lane[i];
    }
    return r;
  }
  static Vec shift_in(Vec a, const Elem* p) {
    Vec r;
    r.lane[0] = *p;
    for (int i = 1; i < N; ++i) r.lane[i] = a.lane[i - 1];
    return r;
  }
  static Mask shift_in_mask(Mask mask, bool on) {
    return shift_in(mask, on ? lp_detail::kLaneOn<Elem>
                             : lp_detail::kLaneOff<Elem>);
  }
  static void store_last(Elem* dst, Vec a) { *dst = a.lane[N - 1]; }
};

}  // namespace lp_detail

// Four int32 lanes, like SSE4.2: the compiler keeps the baseline TU's
// lane arrays in one SSE2 register each, where eight spill every step.
using LpI32 = lp_detail::ScalarLp<std::int32_t, 4, 1 << 30>;
using LpI16 = lp_detail::ScalarLp<std::int16_t, 16, 16384>;
using LpI8 = lp_detail::ScalarLp<std::int8_t, 32, 96>;

#endif

/// True where a block too short for one strip runs the AVX2 backend's
/// ladder at the same lane width (block_simd_lp_impl.hpp): AVX-512 hosts
/// run AVX2 too, and its strips are half as tall.
#if defined(MGPUSW_SIMD_BACKEND_AVX512)
inline constexpr bool kShortRowsOnAvx2 = true;
#else
inline constexpr bool kShortRowsOnAvx2 = false;
#endif

}  // namespace mgpusw::sw::MGPUSW_SIMD_NS
