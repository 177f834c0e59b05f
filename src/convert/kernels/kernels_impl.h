// Internal to src/convert/kernels: the scalar kernel templates (used both
// as the scalar tier and as the tail/fallback of every SIMD kernel) and
// the per-tier lookup functions each translation unit provides.
//
// The conversion semantics here must stay bit-for-bit identical to the
// interpreter's exec_cvt (convert/interp.cc) and the DCG's emit_cvt_elem:
// integers widen through int64/uint64 and store their low bytes, floats
// widen through double, float->integer truncates with the cvttsd2si
// out-of-range result (int64 min). kernels_property_test.cc asserts this
// against an independent oracle built on util/endian.h.
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>

#include "convert/kernels/kernels.h"
#include "util/endian.h"

namespace pbio::convert::kernels {

template <std::size_t W>
struct UIntBits;
template <>
struct UIntBits<1> { using type = std::uint8_t; };
template <>
struct UIntBits<2> { using type = std::uint16_t; };
template <>
struct UIntBits<4> { using type = std::uint32_t; };
template <>
struct UIntBits<8> { using type = std::uint64_t; };

template <typename T>
using uint_bits_t = typename UIntBits<sizeof(T)>::type;

/// float64 -> int64 with x86 cvttsd2si semantics: NaN and out-of-range
/// both produce int64 min. Matches interp.cc's exec_cvt expression.
inline std::int64_t f64_to_i64_sat(double v) {
  return v >= 9223372036854775808.0    ? std::numeric_limits<std::int64_t>::min()
         : v <= -9223372036854775808.0 ? std::numeric_limits<std::int64_t>::min()
         : v != v                      ? std::numeric_limits<std::int64_t>::min()
                                       : static_cast<std::int64_t>(v);
}

/// One element of exec_cvt, monomorphized: S is the true source type
/// (signedness matters for widening), D is the destination type with
/// integer destinations normalized to unsigned (only the stored low bytes
/// matter — exec_cvt stores via store_uint regardless of dst_kind).
template <typename S, typename D>
inline D cvt_value(S s) {
  if constexpr (std::is_floating_point_v<S>) {
    const double v = static_cast<double>(s);
    if constexpr (std::is_floating_point_v<D>) {
      return static_cast<D>(v);
    } else {
      return static_cast<D>(static_cast<std::uint64_t>(f64_to_i64_sat(v)));
    }
  } else if constexpr (std::is_signed_v<S>) {
    const std::int64_t v = s;
    if constexpr (std::is_floating_point_v<D>) {
      return static_cast<D>(static_cast<double>(v));
    } else {
      return static_cast<D>(static_cast<std::uint64_t>(v));
    }
  } else {
    const std::uint64_t v = s;
    if constexpr (std::is_floating_point_v<D>) {
      return static_cast<D>(static_cast<double>(v));
    } else {
      return static_cast<D>(v);
    }
  }
}

/// Scalar byte-swap kernel, unrolled x4. T is the unsigned element type.
template <typename T>
void swap_scalar(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  constexpr std::size_t w = sizeof(T);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    T a, b, c, d;
    std::memcpy(&a, src + (i + 0) * w, w);
    std::memcpy(&b, src + (i + 1) * w, w);
    std::memcpy(&c, src + (i + 2) * w, w);
    std::memcpy(&d, src + (i + 3) * w, w);
    a = byte_swap(a);
    b = byte_swap(b);
    c = byte_swap(c);
    d = byte_swap(d);
    std::memcpy(dst + (i + 0) * w, &a, w);
    std::memcpy(dst + (i + 1) * w, &b, w);
    std::memcpy(dst + (i + 2) * w, &c, w);
    std::memcpy(dst + (i + 3) * w, &d, w);
  }
  for (; i < n; ++i) {
    T v;
    std::memcpy(&v, src + i * w, w);
    v = byte_swap(v);
    std::memcpy(dst + i * w, &v, w);
  }
}

/// Scalar numeric-conversion kernel: load (optionally byte-swapped) S,
/// convert, store (optionally byte-swapped) D. Raw bits move through the
/// unsigned representation so a byte-swapped float never exists as a
/// live float value.
template <typename S, typename D, bool SSwap, bool DSwap>
void cvt_scalar(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  using SU = uint_bits_t<S>;
  using DU = uint_bits_t<D>;
  for (std::size_t i = 0; i < n; ++i) {
    SU sraw;
    std::memcpy(&sraw, src + i * sizeof(S), sizeof(S));
    if constexpr (SSwap) sraw = byte_swap(sraw);
    S s;
    std::memcpy(&s, &sraw, sizeof(S));
    const D d = cvt_value<S, D>(s);
    DU draw;
    std::memcpy(&draw, &d, sizeof(D));
    if constexpr (DSwap) draw = byte_swap(draw);
    std::memcpy(dst + i * sizeof(D), &draw, sizeof(D));
  }
}

/// A SIMD kernel's scalar head: converts, one at a time, the elements that
/// bring `dst` to an Align-byte boundary and returns their count; none
/// for a run under kAlignMinBytes, or when dst is not element-aligned (no
/// whole number of elements gets there). Going first keeps the ascending,
/// load-before-store order of the forward-overlap contract (kernels.h).
template <typename S, typename D, bool SSwap, bool DSwap, std::size_t Align>
inline std::size_t cvt_head(std::uint8_t* dst, const std::uint8_t* src,
                            std::size_t n) {
  const auto addr = reinterpret_cast<std::uintptr_t>(dst);
  if (n * sizeof(D) < kAlignMinBytes || addr % sizeof(D) != 0) return 0;
  const std::size_t head = (Align - addr % Align) % Align / sizeof(D);
  cvt_scalar<S, D, SSwap, DSwap>(dst, src, head);
  return head;
}

// Per-tier lookups. The scalar ones live in kernels.cc; the AVX2 ones in
// kernels_avx2.cc compile to nullptr-returning stubs on non-x86 targets
// (and return nullptr on x86 for every key without an AVX2 form — the
// dispatcher falls back to the scalar form for those).
KernelFn scalar_swap_kernel(unsigned width);
KernelFn scalar_cvt_kernel(const CvtKey& key);
KernelFn avx2_swap_kernel(unsigned width);
Resolved avx2_cvt_kernel(const CvtKey& key);

}  // namespace pbio::convert::kernels
