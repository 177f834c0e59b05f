// SSE2/SSSE3 tier: 128-bit byte-swap (pshufb) and the common widen/narrow
// and f32<->f64 convert loops. Compiled with -mssse3 on x86-64 (see
// src/convert/CMakeLists.txt); never executed unless cpuid reports SSSE3.
// All loads/stores are unaligned forms; tails reuse the scalar templates.
// The swap and widening kernels first convert a scalar head up to the
// first 16-byte dst boundary (cvt_head), so with an element-aligned
// dst no vector store splits a cache line. The narrowing kernels keep no
// head: one measured mixed there (EXPERIMENTS.md, "Kernel tier speedups").
#include "convert/kernels/kernels_impl.h"

#if defined(__x86_64__) && defined(__SSSE3__)

#include <immintrin.h>

namespace pbio::convert::kernels {

namespace {

inline __m128i bswap16x8(__m128i v) {
  return _mm_shuffle_epi8(
      v, _mm_setr_epi8(1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14));
}
inline __m128i bswap32x4(__m128i v) {
  return _mm_shuffle_epi8(
      v, _mm_setr_epi8(3, 2, 1, 0, 7, 6, 5, 4, 11, 10, 9, 8, 15, 14, 13, 12));
}
inline __m128i bswap64x2(__m128i v) {
  return _mm_shuffle_epi8(
      v, _mm_setr_epi8(7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8));
}

template <unsigned W>
inline __m128i bswap_elems(__m128i v) {
  if constexpr (W == 2) return bswap16x8(v);
  if constexpr (W == 4) return bswap32x4(v);
  if constexpr (W == 8) return bswap64x2(v);
  return v;
}

inline __m128i loadu(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}
inline void storeu(std::uint8_t* p, __m128i v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v);
}

// --- byte swap --------------------------------------------------------------

template <unsigned W>
void swap_simd(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  using T = typename UIntBits<W>::type;
  const std::size_t total = n * W;
  // A byte swap is a same-type cvt of a swapped source.
  std::size_t i = cvt_head<T, T, true, false, 16>(dst, src, n) * W;
  for (; i + 32 <= total; i += 32) {
    const __m128i a = bswap_elems<W>(loadu(src + i));
    const __m128i b = bswap_elems<W>(loadu(src + i + 16));
    storeu(dst + i, a);
    storeu(dst + i + 16, b);
  }
  if (i + 16 <= total) {
    storeu(dst + i, bswap_elems<W>(loadu(src + i)));
    i += 16;
  }
  swap_scalar<T>(dst + i, src + i, (total - i) / W);
}

// --- numeric conversions ----------------------------------------------------
// Each processes 4 (or 8 for 16-bit sources) elements per iteration (after
// its scalar head, if it has one), with every load of a block issued
// before its stores, blocks ascending — what the forward-overlap contract
// (kernels.h) rests on.

template <bool SS, bool DS>
void cvt_f32_f64(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  std::size_t i = cvt_head<float, double, SS, DS, 16>(dst, src, n);
  for (; i + 4 <= n; i += 4) {
    __m128i raw = loadu(src + 4 * i);
    if constexpr (SS) raw = bswap32x4(raw);
    const __m128 f = _mm_castsi128_ps(raw);
    __m128i lo = _mm_castpd_si128(_mm_cvtps_pd(f));
    __m128i hi = _mm_castpd_si128(_mm_cvtps_pd(_mm_movehl_ps(f, f)));
    if constexpr (DS) {
      lo = bswap64x2(lo);
      hi = bswap64x2(hi);
    }
    storeu(dst + 8 * i, lo);
    storeu(dst + 8 * i + 16, hi);
  }
  cvt_scalar<float, double, SS, DS>(dst + 8 * i, src + 4 * i, n - i);
}

template <bool SS, bool DS>
void cvt_f64_f32(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i ra = loadu(src + 8 * i);
    __m128i rb = loadu(src + 8 * i + 16);
    if constexpr (SS) {
      ra = bswap64x2(ra);
      rb = bswap64x2(rb);
    }
    const __m128 lo = _mm_cvtpd_ps(_mm_castsi128_pd(ra));
    const __m128 hi = _mm_cvtpd_ps(_mm_castsi128_pd(rb));
    __m128i r = _mm_castps_si128(_mm_movelh_ps(lo, hi));
    if constexpr (DS) r = bswap32x4(r);
    storeu(dst + 4 * i, r);
  }
  cvt_scalar<double, float, SS, DS>(dst + 4 * i, src + 8 * i, n - i);
}

template <bool Signed, bool SS, bool DS>
void cvt_i32_i64(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  using S = std::conditional_t<Signed, std::int32_t, std::uint32_t>;
  std::size_t i = cvt_head<S, std::uint64_t, SS, DS, 16>(dst, src, n);
  for (; i + 4 <= n; i += 4) {
    __m128i v = loadu(src + 4 * i);
    if constexpr (SS) v = bswap32x4(v);
    const __m128i ext =
        Signed ? _mm_srai_epi32(v, 31) : _mm_setzero_si128();
    __m128i lo = _mm_unpacklo_epi32(v, ext);
    __m128i hi = _mm_unpackhi_epi32(v, ext);
    if constexpr (DS) {
      lo = bswap64x2(lo);
      hi = bswap64x2(hi);
    }
    storeu(dst + 8 * i, lo);
    storeu(dst + 8 * i + 16, hi);
  }
  cvt_scalar<S, std::uint64_t, SS, DS>(dst + 8 * i, src + 4 * i, n - i);
}

/// 8 -> 4 byte integer truncation (source signedness is irrelevant: the
/// stored value is the low 4 bytes either way).
template <bool SS, bool DS>
void cvt_i64_i32(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i a = loadu(src + 8 * i);
    __m128i b = loadu(src + 8 * i + 16);
    if constexpr (SS) {
      a = bswap64x2(a);
      b = bswap64x2(b);
    }
    __m128i r = _mm_castps_si128(
        _mm_shuffle_ps(_mm_castsi128_ps(a), _mm_castsi128_ps(b),
                       _MM_SHUFFLE(2, 0, 2, 0)));
    if constexpr (DS) r = bswap32x4(r);
    storeu(dst + 4 * i, r);
  }
  cvt_scalar<std::uint64_t, std::uint32_t, SS, DS>(dst + 4 * i, src + 8 * i,
                                                   n - i);
}

template <bool Signed, bool SS, bool DS>
void cvt_i16_i32(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  using S = std::conditional_t<Signed, std::int16_t, std::uint16_t>;
  std::size_t i = cvt_head<S, std::uint32_t, SS, DS, 16>(dst, src, n);
  for (; i + 8 <= n; i += 8) {
    __m128i v = loadu(src + 2 * i);
    if constexpr (SS) v = bswap16x8(v);
    __m128i lo, hi;
    if constexpr (Signed) {
      lo = _mm_srai_epi32(_mm_unpacklo_epi16(v, v), 16);
      hi = _mm_srai_epi32(_mm_unpackhi_epi16(v, v), 16);
    } else {
      const __m128i z = _mm_setzero_si128();
      lo = _mm_unpacklo_epi16(v, z);
      hi = _mm_unpackhi_epi16(v, z);
    }
    if constexpr (DS) {
      lo = bswap32x4(lo);
      hi = bswap32x4(hi);
    }
    storeu(dst + 4 * i, lo);
    storeu(dst + 4 * i + 16, hi);
  }
  cvt_scalar<S, std::uint32_t, SS, DS>(dst + 4 * i, src + 2 * i, n - i);
}

/// 4 -> 2 byte integer truncation.
template <bool SS, bool DS>
void cvt_i32_i16(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  const __m128i pick_low_words = _mm_setr_epi8(
      0, 1, 4, 5, 8, 9, 12, 13, -128, -128, -128, -128, -128, -128, -128,
      -128);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i a = loadu(src + 4 * i);
    __m128i b = loadu(src + 4 * i + 16);
    if constexpr (SS) {
      a = bswap32x4(a);
      b = bswap32x4(b);
    }
    const __m128i alow = _mm_shuffle_epi8(a, pick_low_words);
    const __m128i blow = _mm_shuffle_epi8(b, pick_low_words);
    __m128i r = _mm_unpacklo_epi64(alow, blow);
    if constexpr (DS) r = bswap16x8(r);
    storeu(dst + 2 * i, r);
  }
  cvt_scalar<std::uint32_t, std::uint16_t, SS, DS>(dst + 2 * i, src + 4 * i,
                                                   n - i);
}

template <bool SS, bool DS>
void cvt_i32_f64(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  std::size_t i = cvt_head<std::int32_t, double, SS, DS, 16>(dst, src, n);
  for (; i + 4 <= n; i += 4) {
    __m128i v = loadu(src + 4 * i);
    if constexpr (SS) v = bswap32x4(v);
    __m128i lo = _mm_castpd_si128(_mm_cvtepi32_pd(v));
    __m128i hi = _mm_castpd_si128(
        _mm_cvtepi32_pd(_mm_shuffle_epi32(v, _MM_SHUFFLE(1, 0, 3, 2))));
    if constexpr (DS) {
      lo = bswap64x2(lo);
      hi = bswap64x2(hi);
    }
    storeu(dst + 8 * i, lo);
    storeu(dst + 8 * i + 16, hi);
  }
  cvt_scalar<std::int32_t, double, SS, DS>(dst + 8 * i, src + 4 * i, n - i);
}

}  // namespace

KernelFn ssse3_swap_kernel(unsigned width) {
  switch (width) {
    case 2: return &swap_simd<2>;
    case 4: return &swap_simd<4>;
    case 8: return &swap_simd<8>;
    default: return nullptr;
  }
}

// Select the <SSwap, DSwap> instantiation of kernel FN.
#define PBIO_PICK_SWAPS(FN)                                     \
  (ss ? (ds ? &FN<true, true> : &FN<true, false>)               \
      : (ds ? &FN<false, true> : &FN<false, false>))
#define PBIO_PICK_SWAPS1(FN, A)                                 \
  (ss ? (ds ? &FN<A, true, true> : &FN<A, true, false>)         \
      : (ds ? &FN<A, false, true> : &FN<A, false, false>))

KernelFn ssse3_cvt_kernel(const CvtKey& k) {
  const bool ss = k.src_swap;
  const bool ds = k.dst_swap;
  const bool s_float = k.src_kind == NumKind::kFloat;
  const bool d_float = k.dst_kind == NumKind::kFloat;
  const bool s_signed = k.src_kind == NumKind::kInt;
  if (s_float && d_float) {
    if (k.width_src == 4 && k.width_dst == 8)
      return PBIO_PICK_SWAPS(cvt_f32_f64);
    if (k.width_src == 8 && k.width_dst == 4)
      return PBIO_PICK_SWAPS(cvt_f64_f32);
    return nullptr;
  }
  if (!s_float && !d_float) {
    if (k.width_src == 4 && k.width_dst == 8) {
      return s_signed ? PBIO_PICK_SWAPS1(cvt_i32_i64, true)
                      : PBIO_PICK_SWAPS1(cvt_i32_i64, false);
    }
    // 8 -> 4 truncation with no byte swap stays scalar: the shufps form
    // ran at 0.5-1.0x scalar at every count, against 2-4x when either side
    // swaps (BENCH_kernels.json, "i64->i32" and "i64be->i32").
    if (k.width_src == 8 && k.width_dst == 4 && (ss || ds)) {
      return ss ? (ds ? &cvt_i64_i32<true, true> : &cvt_i64_i32<true, false>)
                : &cvt_i64_i32<false, true>;
    }
    if (k.width_src == 2 && k.width_dst == 4) {
      return s_signed ? PBIO_PICK_SWAPS1(cvt_i16_i32, true)
                      : PBIO_PICK_SWAPS1(cvt_i16_i32, false);
    }
    if (k.width_src == 4 && k.width_dst == 2)
      return PBIO_PICK_SWAPS(cvt_i32_i16);
    return nullptr;
  }
  if (!s_float && d_float && s_signed && k.width_src == 4 &&
      k.width_dst == 8) {
    return PBIO_PICK_SWAPS(cvt_i32_f64);
  }
  // float -> integer keeps the scalar form: the saturation semantics
  // (cvttsd2si out-of-range behaviour through a 64-bit intermediate) have
  // no cheap packed equivalent that stays bit-identical.
  return nullptr;
}

#undef PBIO_PICK_SWAPS
#undef PBIO_PICK_SWAPS1

}  // namespace pbio::convert::kernels

#else  // non-x86 (or toolchain without -mssse3): scalar dispatch only.

namespace pbio::convert::kernels {
KernelFn ssse3_swap_kernel(unsigned) { return nullptr; }
KernelFn ssse3_cvt_kernel(const CvtKey&) { return nullptr; }
}  // namespace pbio::convert::kernels

#endif
