// AVX2 tier: 256-bit byte-swap and widen/narrow/f32<->f64 loops. Compiled
// with -mavx2 on x86-64; never executed unless cpuid (plus the XGETBV ymm
// check) reports AVX2. GCC/Clang insert vzeroupper at the boundaries.
// All loads/stores are unaligned forms; tails reuse the scalar templates.
// The swap and widening kernels first convert a scalar head up to the
// first 32-byte dst boundary (cvt_head), so with an element-aligned dst
// no vector store splits a cache line. The narrowing kernels keep no
// head: one measured mixed there (EXPERIMENTS.md, "Kernel tier speedups").
// Every kernel processes its blocks in ascending order, each block's loads
// before its stores — what the forward-overlap contract (kernels.h) rests
// on.
#include "convert/kernels/kernels_impl.h"

#if defined(__x86_64__) && defined(__AVX2__)

#include <immintrin.h>

namespace pbio::convert::kernels {

namespace {

// _mm256_shuffle_epi8 shuffles within each 128-bit lane, which is exactly
// what a per-element byte reverse needs for widths <= 8.
inline __m256i bswap16y(__m256i v) {
  return _mm256_shuffle_epi8(
      v, _mm256_setr_epi8(1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15,
                          14, 1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12,
                          15, 14));
}
inline __m256i bswap32y(__m256i v) {
  return _mm256_shuffle_epi8(
      v, _mm256_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13,
                          12, 3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14,
                          13, 12));
}
inline __m256i bswap64y(__m256i v) {
  return _mm256_shuffle_epi8(
      v, _mm256_setr_epi8(7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9,
                          8, 7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10,
                          9, 8));
}

inline __m128i bswap32x(__m128i v) {
  return _mm_shuffle_epi8(
      v, _mm_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12));
}
inline __m128i bswap16x(__m128i v) {
  return _mm_shuffle_epi8(
      v, _mm_setr_epi8(1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14));
}

template <unsigned W>
inline __m256i bswap_elems(__m256i v) {
  if constexpr (W == 2) return bswap16y(v);
  if constexpr (W == 4) return bswap32y(v);
  if constexpr (W == 8) return bswap64y(v);
  return v;
}

inline __m256i loadu256(const std::uint8_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void storeu256(std::uint8_t* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}
inline __m128i loadu128(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline void storeu128(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

// --- byte swap --------------------------------------------------------------

template <unsigned W>
void swap_simd(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  using T = typename UIntBits<W>::type;
  const std::size_t total = n * W;
  // A byte swap is a same-type cvt of a swapped source.
  std::size_t i = cvt_head<T, T, true, false, 32>(dst, src, n) * W;
  for (; i + 64 <= total; i += 64) {
    const __m256i a = bswap_elems<W>(loadu256(src + i));
    const __m256i b = bswap_elems<W>(loadu256(src + i + 32));
    storeu256(dst + i, a);
    storeu256(dst + i + 32, b);
  }
  if (i + 32 <= total) {
    storeu256(dst + i, bswap_elems<W>(loadu256(src + i)));
    i += 32;
  }
  swap_scalar<T>(dst + i, src + i, (total - i) / W);
}

// --- numeric conversions ----------------------------------------------------

template <bool SS, bool DS>
void cvt_f32_f64(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  std::size_t i = cvt_head<float, double, SS, DS, 32>(dst, src, n);
  for (; i + 4 <= n; i += 4) {
    __m128i raw = loadu128(src + 4 * i);
    if constexpr (SS) raw = bswap32x(raw);
    __m256i d = _mm256_castpd_si256(_mm256_cvtps_pd(_mm_castsi128_ps(raw)));
    if constexpr (DS) d = bswap64y(d);
    storeu256(dst + 8 * i, d);
  }
  cvt_scalar<float, double, SS, DS>(dst + 8 * i, src + 4 * i, n - i);
}

template <bool SS, bool DS>
void cvt_f64_f32(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i raw = loadu256(src + 8 * i);
    if constexpr (SS) raw = bswap64y(raw);
    __m128i r =
        _mm_castps_si128(_mm256_cvtpd_ps(_mm256_castsi256_pd(raw)));
    if constexpr (DS) r = bswap32x(r);
    storeu128(dst + 4 * i, r);
  }
  cvt_scalar<double, float, SS, DS>(dst + 4 * i, src + 8 * i, n - i);
}

template <bool Signed, bool SS, bool DS>
void cvt_i32_i64(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  using S = std::conditional_t<Signed, std::int32_t, std::uint32_t>;
  std::size_t i = cvt_head<S, std::uint64_t, SS, DS, 32>(dst, src, n);
  for (; i + 4 <= n; i += 4) {
    __m128i v = loadu128(src + 4 * i);
    if constexpr (SS) v = bswap32x(v);
    __m256i d = Signed ? _mm256_cvtepi32_epi64(v) : _mm256_cvtepu32_epi64(v);
    if constexpr (DS) d = bswap64y(d);
    storeu256(dst + 8 * i, d);
  }
  cvt_scalar<S, std::uint64_t, SS, DS>(dst + 8 * i, src + 4 * i, n - i);
}

template <bool SS, bool DS>
void cvt_i64_i32(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  const __m256i low_dwords = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v = loadu256(src + 8 * i);
    if constexpr (SS) v = bswap64y(v);
    __m128i r = _mm256_castsi256_si128(
        _mm256_permutevar8x32_epi32(v, low_dwords));
    if constexpr (DS) r = bswap32x(r);
    storeu128(dst + 4 * i, r);
  }
  cvt_scalar<std::uint64_t, std::uint32_t, SS, DS>(dst + 4 * i, src + 8 * i,
                                                   n - i);
}

template <bool Signed, bool SS, bool DS>
void cvt_i16_i32(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  using S = std::conditional_t<Signed, std::int16_t, std::uint16_t>;
  std::size_t i = cvt_head<S, std::uint32_t, SS, DS, 32>(dst, src, n);
  for (; i + 8 <= n; i += 8) {
    __m128i v = loadu128(src + 2 * i);
    if constexpr (SS) v = bswap16x(v);
    __m256i d = Signed ? _mm256_cvtepi16_epi32(v) : _mm256_cvtepu16_epi32(v);
    if constexpr (DS) d = bswap32y(d);
    storeu256(dst + 4 * i, d);
  }
  cvt_scalar<S, std::uint32_t, SS, DS>(dst + 4 * i, src + 2 * i, n - i);
}

/// 4 -> 2 byte integer truncation, 8 elements per block in 128-bit halves.
template <bool SS, bool DS>
void cvt_i32_i16(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  const __m128i pick_low_words = _mm_setr_epi8(
      0, 1, 4, 5, 8, 9, 12, 13, -128, -128, -128, -128, -128, -128, -128,
      -128);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i a = loadu128(src + 4 * i);
    __m128i b = loadu128(src + 4 * i + 16);
    if constexpr (SS) {
      a = bswap32x(a);
      b = bswap32x(b);
    }
    const __m128i alow = _mm_shuffle_epi8(a, pick_low_words);
    const __m128i blow = _mm_shuffle_epi8(b, pick_low_words);
    __m128i r = _mm_unpacklo_epi64(alow, blow);
    if constexpr (DS) r = bswap16x(r);
    storeu128(dst + 2 * i, r);
  }
  cvt_scalar<std::uint32_t, std::uint16_t, SS, DS>(dst + 2 * i, src + 4 * i,
                                                   n - i);
}

template <bool SS, bool DS>
void cvt_i32_f64(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  std::size_t i = cvt_head<std::int32_t, double, SS, DS, 32>(dst, src, n);
  for (; i + 4 <= n; i += 4) {
    __m128i v = loadu128(src + 4 * i);
    if constexpr (SS) v = bswap32x(v);
    __m256i d = _mm256_castpd_si256(_mm256_cvtepi32_pd(v));
    if constexpr (DS) d = bswap64y(d);
    storeu256(dst + 8 * i, d);
  }
  cvt_scalar<std::int32_t, double, SS, DS>(dst + 8 * i, src + 4 * i, n - i);
}

}  // namespace

KernelFn avx2_swap_kernel(unsigned width) {
  switch (width) {
    case 2: return &swap_simd<2>;
    case 4: return &swap_simd<4>;
    case 8: return &swap_simd<8>;
    default: return nullptr;
  }
}

// Select the <SSwap, DSwap> instantiation of kernel FN; the _SWAPPING
// form serves keys where a side swaps and has no <false, false> one.
#define PBIO_PICK_SWAPPING(FN)                                  \
  (ss ? (ds ? &FN<true, true> : &FN<true, false>) : &FN<false, true>)
#define PBIO_PICK_SWAPS(FN)                                     \
  (ss || ds ? PBIO_PICK_SWAPPING(FN) : &FN<false, false>)
#define PBIO_PICK_SWAPS1(FN, A)                                 \
  (ss ? (ds ? &FN<A, true, true> : &FN<A, true, false>)         \
      : (ds ? &FN<A, false, true> : &FN<A, false, false>))

Resolved avx2_cvt_kernel(const CvtKey& k) {
  const bool ss = k.src_swap;
  const bool ds = k.dst_swap;
  const bool s_float = k.src_kind == NumKind::kFloat;
  const bool d_float = k.dst_kind == NumKind::kFloat;
  const bool s_signed = k.src_kind == NumKind::kInt;
  // A widening without a byte swap is slower than its scalar kernel on
  // short runs; it takes its AVX2 form from the smallest count where it
  // read >= 1.0x in each of five Release runs (docs/kernels.md, "Short
  // runs"). Every swapping form wins from kMinCount.
  const auto form = [&](KernelFn fn, std::uint32_t no_swap_min = kMinCount) {
    return Resolved{fn, Isa::kAvx2, ss || ds ? kMinCount : no_swap_min};
  };
  if (s_float && d_float) {
    if (k.width_src == 4 && k.width_dst == 8)
      return form(PBIO_PICK_SWAPS(cvt_f32_f64), 32);
    if (k.width_src == 8 && k.width_dst == 4)
      return form(PBIO_PICK_SWAPS(cvt_f64_f32));
    return {};
  }
  if (!s_float && !d_float) {
    if (k.width_src == 4 && k.width_dst == 8) {
      return s_signed ? form(PBIO_PICK_SWAPS1(cvt_i32_i64, true), 48)
                      : form(PBIO_PICK_SWAPS1(cvt_i32_i64, false), 512);
    }
    if (k.width_src == 2 && k.width_dst == 4) {
      return s_signed ? form(PBIO_PICK_SWAPS1(cvt_i16_i32, true), 64)
                      : form(PBIO_PICK_SWAPS1(cvt_i16_i32, false), 128);
    }
    // The truncations without a byte swap stay scalar: in five Release
    // runs their best count read 1.10-1.14x (8 -> 4, under the 1.10x rule
    // in three runs) and 1.08-1.25x (4 -> 2, under it in one); with a swap
    // they read 1.6-5.3x (docs/kernels.md, "The rule").
    if (!ss && !ds) return {};
    if (k.width_src == 8 && k.width_dst == 4)
      return form(PBIO_PICK_SWAPPING(cvt_i64_i32));
    if (k.width_src == 4 && k.width_dst == 2)
      return form(PBIO_PICK_SWAPPING(cvt_i32_i16));
    return {};
  }
  if (!s_float && d_float && s_signed && k.width_src == 4 &&
      k.width_dst == 8) {
    return form(PBIO_PICK_SWAPS(cvt_i32_f64), 64);
  }
  // float -> integer keeps the scalar form: the saturation semantics
  // (cvttsd2si out-of-range behaviour through a 64-bit intermediate) have
  // no cheap packed equivalent that stays bit-identical.
  return {};
}

#undef PBIO_PICK_SWAPS
#undef PBIO_PICK_SWAPPING
#undef PBIO_PICK_SWAPS1

}  // namespace pbio::convert::kernels

#else  // non-x86 (or toolchain without -mavx2): scalar dispatch only.

namespace pbio::convert::kernels {
KernelFn avx2_swap_kernel(unsigned) { return nullptr; }
Resolved avx2_cvt_kernel(const CvtKey&) { return {}; }
}  // namespace pbio::convert::kernels

#endif
