// Property tests for the batch conversion kernels (src/convert/kernels):
// for random widths, counts, alignments and values — including dst == src
// in-place, forward overlaps (dst below src, never widening), odd
// misaligned offsets and every dst offset from a 32-byte boundary — every
// SIMD tier produces output
// byte-identical to an independent scalar oracle built on util/endian.h,
// and both conversion engines stay correct with dispatch forced to the
// scalar tier (the non-SIMD fallback path).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "convert/interp.h"
#include "convert/kernels/kernels.h"
#include "obs/obs.h"
#include "util/cpu.h"
#include "util/endian.h"
#include "vcode/jit_convert.h"

namespace pbio::convert::kernels {
namespace {

ByteOrder flipped(ByteOrder o) {
  return o == ByteOrder::kLittle ? ByteOrder::kBig : ByteOrder::kLittle;
}

/// exec_cvt's per-element semantics, written against util/endian.h only —
/// deliberately independent of both kernels_impl.h and interp.cc.
void oracle_cvt(const CvtKey& k, std::uint8_t* dst, const std::uint8_t* src,
                std::size_t n) {
  const ByteOrder so =
      k.src_swap ? flipped(host_byte_order()) : host_byte_order();
  const ByteOrder dord =
      k.dst_swap ? flipped(host_byte_order()) : host_byte_order();
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t* sp = src + i * k.width_src;
    std::uint8_t* dp = dst + i * k.width_dst;
    if (k.src_kind == NumKind::kFloat) {
      const double v = load_float(sp, k.width_src, so);
      if (k.dst_kind == NumKind::kFloat) {
        store_float(dp, v, k.width_dst, dord);
      } else {
        const std::int64_t t =
            v >= 9223372036854775808.0    ? std::numeric_limits<std::int64_t>::min()
            : v <= -9223372036854775808.0 ? std::numeric_limits<std::int64_t>::min()
            : v != v                      ? std::numeric_limits<std::int64_t>::min()
                                          : static_cast<std::int64_t>(v);
        store_uint(dp, static_cast<std::uint64_t>(t), k.width_dst, dord);
      }
    } else if (k.src_kind == NumKind::kInt) {
      const std::int64_t v = load_int(sp, k.width_src, so);
      if (k.dst_kind == NumKind::kFloat) {
        store_float(dp, static_cast<double>(v), k.width_dst, dord);
      } else {
        store_uint(dp, static_cast<std::uint64_t>(v), k.width_dst, dord);
      }
    } else {
      const std::uint64_t v = load_uint(sp, k.width_src, so);
      if (k.dst_kind == NumKind::kFloat) {
        store_float(dp, static_cast<double>(v), k.width_dst, dord);
      } else {
        store_uint(dp, v, k.width_dst, dord);
      }
    }
  }
}

void oracle_swap(unsigned w, std::uint8_t* dst, const std::uint8_t* src,
                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::memmove(dst + i * w, src + i * w, w);
    byte_swap_inplace(dst + i * w, w);
  }
}

std::vector<Isa> tiers_up_to_detected() {
  std::vector<Isa> tiers = {Isa::kScalar};
  if (detected_isa() >= Isa::kAvx2) tiers.push_back(Isa::kAvx2);
  return tiers;
}

/// Random bytes include plenty of float special patterns by chance (NaN
/// payloads, infinities, denormals) — conversions must match bit-for-bit
/// regardless.
void fill_random(std::uint8_t* p, std::size_t n, std::mt19937& rng) {
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<std::uint8_t>(rng());
  }
}

TEST(KernelsProperty, SwapMatchesOracleAllTiersCountsAlignments) {
  std::mt19937 rng(20260806);
  const std::size_t counts[] = {0,  1,  3,   7,   15,  16,  17,
                                31, 33, 100, 255, 1024, 4097};
  for (unsigned w : {2u, 4u, 8u}) {
    for (Isa isa : tiers_up_to_detected()) {
      KernelFn fn = resolve_swap_kernel(w, isa).fn;
      ASSERT_NE(fn, nullptr);
      for (std::size_t n : counts) {
        for (std::size_t align : {0u, 1u, 3u, 7u, 13u}) {
          std::vector<std::uint8_t> src(align + n * w + 64);
          fill_random(src.data(), src.size(), rng);
          std::vector<std::uint8_t> got(align + n * w + 64, 0xAB);
          std::vector<std::uint8_t> want = got;

          fn(got.data() + align, src.data() + align, n);
          oracle_swap(w, want.data() + align, src.data() + align, n);
          ASSERT_EQ(got, want) << "w=" << w << " n=" << n
                               << " align=" << align << " isa="
                               << to_string(isa);

          // In-place: dst == src, identical element addresses.
          std::vector<std::uint8_t> inplace = src;
          fn(inplace.data() + align, inplace.data() + align, n);
          std::vector<std::uint8_t> want_ip = src;
          oracle_swap(w, want_ip.data() + align, src.data() + align, n);
          ASSERT_EQ(inplace, want_ip)
              << "in-place w=" << w << " n=" << n << " align=" << align
              << " isa=" << to_string(isa);
        }
      }
    }
  }
}

TEST(KernelsProperty, CvtMatchesOracleAllPairsTiersAlignments) {
  std::mt19937 rng(987654321);
  struct Side {
    NumKind kind;
    std::uint8_t width;
  };
  const Side sides[] = {
      {NumKind::kInt, 1},  {NumKind::kInt, 2},  {NumKind::kInt, 4},
      {NumKind::kInt, 8},  {NumKind::kUInt, 1}, {NumKind::kUInt, 2},
      {NumKind::kUInt, 4}, {NumKind::kUInt, 8}, {NumKind::kFloat, 4},
      {NumKind::kFloat, 8},
  };
  const std::size_t counts[] = {1, 5, 16, 33, 257, 1024};
  for (const Side& s : sides) {
    for (const Side& d : sides) {
      for (bool sswap : {false, true}) {
        for (bool dswap : {false, true}) {
          CvtKey key;
          key.src_kind = s.kind;
          key.width_src = s.width;
          key.src_swap = sswap && s.width > 1;
          key.dst_kind = d.kind;
          key.width_dst = d.width;
          key.dst_swap = dswap && d.width > 1;
          // Same-width float->float is deliberately uncovered (never
          // produced by the plan compiler; see scalar_cvt_kernel).
          const bool uncovered = s.kind == NumKind::kFloat &&
                                 d.kind == NumKind::kFloat &&
                                 s.width == d.width;
          for (Isa isa : tiers_up_to_detected()) {
            KernelFn fn = resolve_cvt_kernel(key, isa).fn;
            if (uncovered) {
              ASSERT_EQ(fn, nullptr);
              continue;
            }
            ASSERT_NE(fn, nullptr);  // scalar covers all these widths
            for (std::size_t n : counts) {
              const std::size_t align = rng() % 16;
              std::vector<std::uint8_t> src(align + n * s.width + 32);
              fill_random(src.data(), src.size(), rng);
              std::vector<std::uint8_t> got(align + n * d.width + 32, 0xCD);
              std::vector<std::uint8_t> want = got;
              fn(got.data() + align, src.data() + align, n);
              oracle_cvt(key, want.data() + align, src.data() + align, n);
              ASSERT_EQ(got, want)
                  << "src(" << int(s.kind) << ",w" << int(s.width) << ",s"
                  << key.src_swap << ") dst(" << int(d.kind) << ",w"
                  << int(d.width) << ",s" << key.dst_swap << ") n=" << n
                  << " align=" << align << " isa=" << to_string(isa);
            }
          }
          // Same-width pairs support the dst == src in-place case.
          if (s.width == d.width && !uncovered) {
            KernelFn fn = resolve_cvt_kernel(key).fn;
            const std::size_t n = 513;
            std::vector<std::uint8_t> buf(1 + n * s.width);
            fill_random(buf.data(), buf.size(), rng);
            std::vector<std::uint8_t> want(buf.size(), 0);
            oracle_cvt(key, want.data() + 1, buf.data() + 1, n);
            fn(buf.data() + 1, buf.data() + 1, n);
            ASSERT_EQ(std::memcmp(buf.data() + 1, want.data() + 1,
                                  n * d.width),
                      0)
                << "in-place cvt w=" << int(s.width);
          }
        }
      }
    }
  }
}

/// The forward half of the overlap contract: dst = src - shift with
/// width_dst <= width_src, for shifts of 1..64 bytes and counts from
/// kMinCount past every block and tail boundary (the largest block is
/// AVX2's 64 bytes, 32 two-byte elements, plus its 32-byte half block).
/// The buffer must read exactly as if the oracle had converted into it
/// from an untouched copy: the dst range converted, every byte above it
/// left as it was. Each shift takes four of the counts, rotating, so every
/// count meets many shifts.
template <typename Oracle>
void expect_forward_overlap_matches(KernelFn fn, unsigned width_src,
                                    Oracle&& oracle, std::mt19937& rng,
                                    const std::string& what) {
  const std::size_t counts[] = {kMinCount, 17, 19, 24, 31, 37,
                                48,        53, 64, 77, 101};
  constexpr std::size_t kPerShift = 4;
  std::size_t next = 0;
  for (std::size_t shift = 1; shift <= 64; ++shift) {
    for (std::size_t j = 0; j < kPerShift; ++j) {
      const std::size_t n = counts[next++ % std::size(counts)];
      std::vector<std::uint8_t> buf(shift + n * width_src + 8);
      fill_random(buf.data(), buf.size(), rng);
      std::vector<std::uint8_t> want = buf;
      oracle(want.data(), buf.data() + shift, n);
      fn(buf.data(), buf.data() + shift, n);
      ASSERT_EQ(buf, want) << what << " shift=" << shift << " n=" << n;
    }
  }
}

TEST(KernelsProperty, SwapForwardOverlapMatchesOracleAllTiers) {
  std::mt19937 rng(4242);
  for (unsigned w : {2u, 4u, 8u}) {
    for (Isa isa : tiers_up_to_detected()) {
      expect_forward_overlap_matches(
          resolve_swap_kernel(w, isa).fn, w,
          [w](std::uint8_t* d, const std::uint8_t* s, std::size_t n) {
            oracle_swap(w, d, s, n);
          },
          rng, "swap w=" + std::to_string(w) + " isa=" + to_string(isa));
    }
  }
}

/// Calls check(key, fn, what) once per distinct kernel function of each
/// cvt key over every kind, width and swap pair (widening keys only when
/// asked), at each tier up to the detected one, and returns how many it
/// checked. A tier without its own form resolves to a lower tier's
/// kernel, so each distinct function is checked once.
template <typename Check>
int for_each_cvt_kernel(bool widening, Check&& check) {
  const NumKind kinds[] = {NumKind::kInt, NumKind::kUInt, NumKind::kFloat};
  int checked = 0;
  for (NumKind sk : kinds) {
    for (NumKind dk : kinds) {
      for (unsigned ws : {1u, 2u, 4u, 8u}) {
        for (unsigned wd : {1u, 2u, 4u, 8u}) {
          if (wd > ws && !widening) continue;
          for (int swaps = 0; swaps < 4; ++swaps) {
            CvtKey key;
            key.src_kind = sk;
            key.width_src = static_cast<std::uint8_t>(ws);
            key.src_swap = (swaps & 1) != 0 && ws > 1;
            key.dst_kind = dk;
            key.width_dst = static_cast<std::uint8_t>(wd);
            key.dst_swap = (swaps & 2) != 0 && wd > 1;
            KernelFn seen[2] = {};
            for (Isa isa : tiers_up_to_detected()) {
              KernelFn fn = resolve_cvt_kernel(key, isa).fn;
              if (fn == nullptr ||
                  std::find(std::begin(seen), std::end(seen), fn) !=
                      std::end(seen)) {
                continue;
              }
              seen[static_cast<int>(isa)] = fn;
              ++checked;
              check(key, fn,
                    "cvt src(" + std::to_string(int(sk)) + ",w" +
                        std::to_string(ws) + ",s" +
                        std::to_string(key.src_swap) + ") dst(" +
                        std::to_string(int(dk)) + ",w" +
                        std::to_string(wd) + ",s" +
                        std::to_string(key.dst_swap) +
                        ") isa=" + to_string(isa));
            }
          }
        }
      }
    }
  }
  return checked;
}

TEST(KernelsProperty, CvtForwardOverlapMatchesOracleAllTiers) {
  std::mt19937 rng(8484);
  // Widening is outside the overlap contract.
  const int checked = for_each_cvt_kernel(
      false, [&rng](const CvtKey& key, KernelFn fn, const std::string& what) {
        expect_forward_overlap_matches(
            fn, key.width_src,
            [&key](std::uint8_t* d, const std::uint8_t* s, std::size_t n) {
              oracle_cvt(key, d, s, n);
            },
            rng, what);
      });
  // Float kinds only exist at widths 4 and 8 (the loops' other float
  // keys have no kernel); the sweep must not pass vacuously.
  EXPECT_GT(checked, 100);
}

/// Every dst offset 0..31 from a 32-byte boundary, which moves the SIMD
/// kernels' scalar heads through every length they can take: each offset
/// converts disjointly from an independent random src offset and, unless
/// the kernel widens, in place over a forward overlap (dst = src - shift,
/// shift 0..64). Each offset runs a count below kAlignMinBytes (no head);
/// each element-aligned offset, which is where a head can start, also runs
/// one past it with a tail.
template <typename Oracle>
void expect_every_dst_offset_matches(KernelFn fn, unsigned width_src,
                                     unsigned width_dst, Oracle&& oracle,
                                     std::mt19937& rng,
                                     const std::string& what) {
  const std::size_t small = kMinCount + 7;
  const std::size_t large = kAlignMinBytes / width_dst + 37;
  // The first 32-byte boundary in a vector: base(v) + k is k mod 32.
  const auto base = [](std::vector<std::uint8_t>& v) {
    const auto addr = reinterpret_cast<std::uintptr_t>(v.data());
    return v.data() + (32 - addr % 32) % 32;
  };
  for (std::size_t dst_off = 0; dst_off < 32; ++dst_off) {
    for (std::size_t n : {small, large}) {
      if (n == large && dst_off % width_dst != 0) continue;
      const std::size_t src_off = rng() % 32;
      std::vector<std::uint8_t> src(32 + src_off + n * width_src + 32);
      fill_random(src.data(), src.size(), rng);
      std::vector<std::uint8_t> got(32 + dst_off + n * width_dst + 32, 0xEE);
      std::vector<std::uint8_t> want = got;
      const std::uint8_t* s = base(src) + src_off;
      std::uint8_t* d = base(got) + dst_off;
      fn(d, s, n);
      oracle(want.data() + (d - got.data()), s, n);
      ASSERT_EQ(got, want) << what << " dst_off=" << dst_off
                           << " src_off=" << src_off << " n=" << n;

      if (width_dst > width_src) continue;  // outside the overlap contract
      const std::size_t shift =
          width_dst == width_src ? rng() % 65 : 1 + rng() % 64;
      std::vector<std::uint8_t> buf(32 + dst_off + shift + n * width_src + 8);
      fill_random(buf.data(), buf.size(), rng);
      std::vector<std::uint8_t> want_ov = buf;
      d = base(buf) + dst_off;
      const std::ptrdiff_t at = d - buf.data();
      oracle(want_ov.data() + at, d + shift, n);
      fn(d, d + shift, n);
      ASSERT_EQ(buf, want_ov) << what << " overlap dst_off=" << dst_off
                              << " shift=" << shift << " n=" << n;
    }
  }
}

TEST(KernelsProperty, SwapEveryDstOffsetMatchesOracleAllTiers) {
  std::mt19937 rng(3131);
  for (unsigned w : {2u, 4u, 8u}) {
    for (Isa isa : tiers_up_to_detected()) {
      expect_every_dst_offset_matches(
          resolve_swap_kernel(w, isa).fn, w, w,
          [w](std::uint8_t* d, const std::uint8_t* s, std::size_t n) {
            oracle_swap(w, d, s, n);
          },
          rng, "swap w=" + std::to_string(w) + " isa=" + to_string(isa));
    }
  }
}

TEST(KernelsProperty, CvtEveryDstOffsetMatchesOracleAllTiers) {
  std::mt19937 rng(6262);
  const int checked = for_each_cvt_kernel(
      true, [&rng](const CvtKey& key, KernelFn fn, const std::string& what) {
        expect_every_dst_offset_matches(
            fn, key.width_src, key.width_dst,
            [&key](std::uint8_t* d, const std::uint8_t* s, std::size_t n) {
              oracle_cvt(key, d, s, n);
            },
            rng, what);
      });
  EXPECT_GT(checked, 100);
}

TEST(KernelsProperty, UnusualWidthsHaveNoBatchKernel) {
  EXPECT_EQ(resolve_swap_kernel(3).fn, nullptr);
  EXPECT_EQ(resolve_swap_kernel(16).fn, nullptr);
  CvtKey key;
  key.src_kind = NumKind::kFloat;
  key.width_src = 16;  // simulated long-double slot
  key.dst_kind = NumKind::kFloat;
  key.width_dst = 8;
  EXPECT_EQ(resolve_cvt_kernel(key).fn, nullptr);
}

/// 8->4 integer truncation: the forms that swap either side resolve to AVX2
/// at the AVX2 tier; the no-swap form, and every form at the scalar tier,
/// resolve to scalar.
TEST(KernelsProperty, TruncationResolutionTable) {
  for (NumKind kind : {NumKind::kInt, NumKind::kUInt}) {
    for (Isa isa : tiers_up_to_detected()) {
      for (int swaps = 0; swaps < 4; ++swaps) {
        CvtKey key;
        key.src_kind = kind;
        key.width_src = 8;
        key.src_swap = (swaps & 1) != 0;
        key.dst_kind = kind;
        key.width_dst = 4;
        key.dst_swap = (swaps & 2) != 0;
        const Resolved r = resolve_cvt_kernel(key, isa);
        ASSERT_NE(r.fn, nullptr);
        const Isa expect =
            swaps != 0 && isa == Isa::kAvx2 ? Isa::kAvx2 : Isa::kScalar;
        EXPECT_STREQ(to_string(r.isa), to_string(expect))
            << "asked " << to_string(isa) << ", src_swap " << key.src_swap
            << ", dst_swap " << key.dst_swap;
      }
    }
  }
}

/// Widening conversions resolve to AVX2 at the AVX2 tier in every swap
/// form, and to scalar at the scalar tier.
TEST(KernelsProperty, WideningResolutionTable) {
  struct Row {
    NumKind src, dst;
    unsigned width_src, width_dst;
  };
  const Row rows[] = {
      {NumKind::kInt, NumKind::kInt, 2, 4},
      {NumKind::kUInt, NumKind::kUInt, 2, 4},
      {NumKind::kInt, NumKind::kInt, 4, 8},
      {NumKind::kUInt, NumKind::kUInt, 4, 8},
      {NumKind::kInt, NumKind::kFloat, 4, 8},
      {NumKind::kFloat, NumKind::kFloat, 4, 8},
  };
  for (const Row& row : rows) {
    for (Isa isa : tiers_up_to_detected()) {
      for (int swaps = 0; swaps < 4; ++swaps) {
        CvtKey key;
        key.src_kind = row.src;
        key.width_src = static_cast<std::uint8_t>(row.width_src);
        key.src_swap = (swaps & 1) != 0;
        key.dst_kind = row.dst;
        key.width_dst = static_cast<std::uint8_t>(row.width_dst);
        key.dst_swap = (swaps & 2) != 0;
        const Resolved r = resolve_cvt_kernel(key, isa);
        ASSERT_NE(r.fn, nullptr);
        EXPECT_STREQ(to_string(r.isa), to_string(isa))
            << "asked " << to_string(isa) << ", widths " << row.width_src
            << "->" << row.width_dst << ", src_swap " << key.src_swap
            << ", dst_swap " << key.dst_swap;
      }
    }
  }
}

/// The whole resolution map: every swap width and every cvt key the plan
/// compiler can emit (integer kinds at widths 1/2/4/8, floats at 4/8, each
/// swap combination) resolves, at each tier the host has, to the tier this
/// table names. A key resolves to AVX2 exactly when a row below covers it;
/// every other key, and every key at the scalar tier, resolves to scalar.
/// Each row is an AVX2 form that reads >= 1.10x its scalar kernel at some
/// count in every Release run (docs/kernels.md, "The rule"), so an AVX2
/// instantiation added without a row, or a row left behind by a deleted
/// one, fails here. A row also pins the shortest run its form takes
/// without a byte swap (docs/kernels.md, "Short runs"): one element less
/// resolves to scalar. Swapping forms take kMinCount.
TEST(KernelsProperty, ResolutionMapTable) {
  constexpr unsigned kInts = 1u << static_cast<int>(NumKind::kInt) |
                             1u << static_cast<int>(NumKind::kUInt);
  constexpr unsigned kSigned = 1u << static_cast<int>(NumKind::kInt);
  constexpr unsigned kUnsigned = 1u << static_cast<int>(NumKind::kUInt);
  constexpr unsigned kFloats = 1u << static_cast<int>(NumKind::kFloat);
  // Swap combinations, bit (src_swap | dst_swap << 1).
  constexpr unsigned kNone = 1u << 0, kSrc = 1u << 1, kDst = 1u << 2,
                     kBoth = 1u << 3, kSwapping = kSrc | kDst | kBoth,
                     kAll = kNone | kSwapping;
  struct Row {
    unsigned src_kinds;
    unsigned width_src;
    unsigned dst_kinds;
    unsigned width_dst;
    unsigned swaps;
    std::uint32_t no_swap_min = kMinCount;
  };
  const Row avx2_rows[] = {
      {kFloats, 4, kFloats, 8, kAll, 32},     // f32->f64
      {kFloats, 8, kFloats, 4, kAll},         // f64->f32
      {kSigned, 2, kInts, 4, kAll, 64},       // i16->i32
      {kUnsigned, 2, kInts, 4, kAll, 128},    // u16->u32
      {kSigned, 4, kInts, 8, kAll, 48},       // i32->i64
      {kUnsigned, 4, kInts, 8, kAll, 512},    // u32->u64
      {kInts, 4, kInts, 2, kSwapping},        // i32be->i16, i32->i16be, ...
      {kInts, 8, kInts, 4, kSwapping},        // i64be->i32, i64->i32be, ...
      {kSigned, 4, kFloats, 8, kAll, 64},     // i32->f64
  };
  const unsigned avx2_swap_widths[] = {2, 4, 8};

  const std::vector<Isa> tiers = tiers_up_to_detected();
  for (unsigned w = 1; w <= 16; ++w) {
    const bool has_kernel = w == 2 || w == 4 || w == 8;
    const bool has_avx2 = std::find(std::begin(avx2_swap_widths),
                                    std::end(avx2_swap_widths),
                                    w) != std::end(avx2_swap_widths);
    for (Isa isa : tiers) {
      const Resolved r = resolve_swap_kernel(w, isa);
      ASSERT_EQ(r.fn != nullptr, has_kernel) << "swap w=" << w;
      if (!has_kernel) continue;
      const Isa expect = isa == Isa::kAvx2 && has_avx2 ? isa : Isa::kScalar;
      EXPECT_STREQ(to_string(r.isa), to_string(expect))
          << "swap w=" << w << " asked " << to_string(isa);
    }
  }

  std::vector<int> row_hits(std::size(avx2_rows), 0);
  const NumKind kinds[] = {NumKind::kInt, NumKind::kUInt, NumKind::kFloat};
  for (NumKind sk : kinds) {
    for (NumKind dk : kinds) {
      for (unsigned ws : {1u, 2u, 4u, 8u}) {
        for (unsigned wd : {1u, 2u, 4u, 8u}) {
          const bool s_float = sk == NumKind::kFloat;
          const bool d_float = dk == NumKind::kFloat;
          // The plan compiler emits floats of 4 and 8 bytes only.
          if ((s_float && ws < 4) || (d_float && wd < 4)) continue;
          // Same-width float->float has no batch form (scalar_cvt_kernel).
          const bool has_kernel = !(s_float && d_float && ws == wd);
          for (unsigned swaps = 0; swaps < 4; ++swaps) {
            CvtKey key;
            key.src_kind = sk;
            key.width_src = static_cast<std::uint8_t>(ws);
            key.src_swap = (swaps & 1) != 0 && ws > 1;
            key.dst_kind = dk;
            key.width_dst = static_cast<std::uint8_t>(wd);
            key.dst_swap = (swaps & 2) != 0 && wd > 1;
            const unsigned form = (key.src_swap ? 1u : 0u) |
                                  (key.dst_swap ? 2u : 0u);
            int row = -1;
            for (std::size_t i = 0; i < std::size(avx2_rows); ++i) {
              const Row& r = avx2_rows[i];
              if ((r.src_kinds >> static_cast<int>(sk) & 1u) != 0 &&
                  (r.dst_kinds >> static_cast<int>(dk) & 1u) != 0 &&
                  r.width_src == ws && r.width_dst == wd &&
                  (r.swaps >> form & 1u) != 0) {
                row = static_cast<int>(i);
              }
            }
            for (Isa isa : tiers) {
              const Resolved r = resolve_cvt_kernel(key, isa);
              const std::string what =
                  "cvt src(" + std::to_string(int(sk)) + ",w" +
                  std::to_string(ws) + ",s" + std::to_string(key.src_swap) +
                  ") dst(" + std::to_string(int(dk)) + ",w" +
                  std::to_string(wd) + ",s" + std::to_string(key.dst_swap) +
                  ") asked " + to_string(isa);
              ASSERT_EQ(r.fn != nullptr, has_kernel) << what;
              if (!has_kernel) continue;
              const bool avx2 = isa == Isa::kAvx2 && row >= 0;
              if (avx2) ++row_hits[static_cast<std::size_t>(row)];
              EXPECT_STREQ(to_string(r.isa),
                           to_string(avx2 ? Isa::kAvx2 : Isa::kScalar))
                  << what;
              const std::uint32_t min =
                  avx2 && form == 0
                      ? avx2_rows[static_cast<std::size_t>(row)].no_swap_min
                      : kMinCount;
              EXPECT_EQ(r.min_count, min) << what;
              EXPECT_EQ(resolve_cvt_kernel(key, isa, min).fn, r.fn) << what;
              if (avx2 && min > kMinCount) {
                const Resolved below = resolve_cvt_kernel(key, isa, min - 1);
                EXPECT_STREQ(to_string(below.isa), to_string(Isa::kScalar))
                    << what;
                EXPECT_EQ(below.fn, resolve_cvt_kernel(key, Isa::kScalar).fn)
                    << what;
              }
            }
          }
        }
      }
    }
  }
  if (detected_isa() >= Isa::kAvx2) {
    for (std::size_t i = 0; i < std::size(avx2_rows); ++i) {
      EXPECT_GT(row_hits[i], 0) << "avx2 row " << i << " covers no key";
    }
  }
}

/// Both engines pass an op's count to the resolver: a no-swap u32->u64 run
/// below its AVX2 form's min_count runs the scalar kernel (the interpreter
/// counts the tier that ran; generated code embeds the kernel's address),
/// and a run of min_count elements runs the AVX2 form.
TEST(KernelsProperty, EnginesResolveEachRunByItsCount) {
  if (detected_isa() < Isa::kAvx2) GTEST_SKIP() << "no AVX2 tier";
  CvtKey key;
  key.src_kind = NumKind::kUInt;
  key.width_src = 4;
  key.dst_kind = NumKind::kUInt;
  key.width_dst = 8;
  const std::uint32_t min = resolve_cvt_kernel(key).min_count;
  ASSERT_GT(min, kMinCount);
  const auto calls = [](Isa isa) {
    const obs::Snapshot snap = obs::snapshot();
    const obs::CounterSample* c = snap.find_counter(
        std::string("convert.kernels.") + to_string(isa) + ".calls");
    return c == nullptr ? std::uint64_t{0} : c->value;
  };
  for (const std::uint32_t count : {min - 1, min}) {
    const Isa want = count >= min ? Isa::kAvx2 : Isa::kScalar;
    Plan plan;
    plan.src_order = host_byte_order();
    plan.dst_order = host_byte_order();
    plan.src_fixed_size = count * 4;
    plan.dst_fixed_size = count * 8;
    Op op;
    op.code = OpCode::kCvtNum;
    op.src_kind = NumKind::kUInt;
    op.dst_kind = NumKind::kUInt;
    op.width_src = 4;
    op.width_dst = 8;
    op.count = count;
    plan.ops.push_back(op);
    std::vector<std::uint8_t> src(plan.src_fixed_size, 7);
    std::vector<std::uint8_t> out(plan.dst_fixed_size);
    ExecInput in;
    in.src = src.data();
    in.src_size = src.size();
    in.dst = out.data();
    in.dst_size = out.size();
    const std::uint64_t before = calls(want);
    ASSERT_TRUE(run_plan(plan, in).is_ok());
    EXPECT_EQ(calls(want) - before, 1u) << "interp, count " << count;

    const vcode::CompiledConvert dcg(plan);
    if (!dcg.jitted()) continue;
    const auto fn = reinterpret_cast<std::uintptr_t>(
        resolve_cvt_kernel(key, want).fn);
    std::uint8_t addr[sizeof fn];
    std::memcpy(addr, &fn, sizeof fn);
    const auto code = dcg.code();
    EXPECT_NE(std::search(code.begin(), code.end(), std::begin(addr),
                          std::end(addr)),
              code.end())
        << "jit, count " << count << " calls no " << to_string(want)
        << " kernel";
  }
}

/// Both engines, dispatch forced to every tier including scalar (the
/// non-SIMD build / old-CPU path), on a large-array plan exercised through
/// run_plan and CompiledConvert — including the in-place contract.
TEST(KernelsProperty, EnginesBitIdenticalAcrossForcedTiers) {
  constexpr std::uint32_t kCount = 2048;
  Plan plan;
  plan.src_order = flipped(host_byte_order());
  plan.dst_order = host_byte_order();
  plan.src_fixed_size = kCount * 4 + 8;
  plan.dst_fixed_size = kCount * 4 + 8;
  plan.inplace_safe = true;
  {
    Op op;
    op.code = OpCode::kSwap;
    op.src_off = 4;  // odd geometry: misaligned relative to the buffer
    op.dst_off = 4;
    op.width_src = 4;
    op.width_dst = 4;
    op.count = kCount;
    plan.ops.push_back(op);
  }
  {
    Op op;  // trailing small cvt run (below kMinCount: generic loop path)
    op.code = OpCode::kCvtNum;
    op.src_off = 4 + kCount * 4;
    op.dst_off = 4 + kCount * 4;
    op.src_kind = NumKind::kFloat;
    op.dst_kind = NumKind::kFloat;
    op.width_src = 4;
    op.width_dst = 4;
    op.count = 1;
    plan.ops.push_back(op);
  }

  std::mt19937 rng(77);
  std::vector<std::uint8_t> src(plan.src_fixed_size);
  fill_random(src.data(), src.size(), rng);

  auto apply_oracle = [&](std::vector<std::uint8_t>& out) {
    oracle_swap(4, out.data() + 4, src.data() + 4, kCount);
    CvtKey trail;
    trail.src_kind = NumKind::kFloat;
    trail.width_src = 4;
    trail.src_swap = true;
    trail.dst_kind = NumKind::kFloat;
    trail.width_dst = 4;
    oracle_cvt(trail, out.data() + 4 + kCount * 4,
               src.data() + 4 + kCount * 4, 1);
  };
  std::vector<std::uint8_t> expected(plan.dst_fixed_size, 0);
  apply_oracle(expected);
  // In-place runs leave the unconverted leading bytes as they were.
  std::vector<std::uint8_t> expected_ip = src;
  apply_oracle(expected_ip);

  for (Isa isa : tiers_up_to_detected()) {
    force_isa(isa);
    ASSERT_EQ(active_isa(), isa);

    std::vector<std::uint8_t> out(plan.dst_fixed_size, 0);
    ExecInput in;
    in.src = src.data();
    in.src_size = src.size();
    in.dst = out.data();
    in.dst_size = out.size();
    ASSERT_TRUE(run_plan(plan, in).is_ok());
    EXPECT_EQ(out, expected) << "interp, isa=" << to_string(isa);

    // JIT resolves kernel pointers at codegen time: compile per tier.
    const vcode::CompiledConvert dcg(plan);
    std::vector<std::uint8_t> out2(plan.dst_fixed_size, 0);
    in.dst = out2.data();
    in.dst_size = out2.size();
    ASSERT_TRUE(dcg.run(in).is_ok());
    EXPECT_EQ(out2, expected) << "jit, isa=" << to_string(isa);

    // In-place: dst == src reusing the receive buffer.
    std::vector<std::uint8_t> buf = src;
    in.src = buf.data();
    in.src_size = buf.size();
    in.dst = buf.data();
    in.dst_size = buf.size();
    ASSERT_TRUE(run_plan(plan, in).is_ok());
    EXPECT_EQ(buf, expected_ip) << "interp in-place, isa=" << to_string(isa);

    buf = src;
    ASSERT_TRUE(dcg.run(in).is_ok());
    EXPECT_EQ(buf, expected_ip) << "jit in-place, isa=" << to_string(isa);
  }
  reset_isa();
}

TEST(KernelsProperty, ForceIsaClampsToDetected) {
  force_isa(Isa::kAvx2);
  EXPECT_LE(active_isa(), detected_isa());
  force_isa(Isa::kScalar);
  EXPECT_EQ(active_isa(), Isa::kScalar);
  reset_isa();
  EXPECT_EQ(active_isa(), detected_isa());
}

}  // namespace
}  // namespace pbio::convert::kernels
