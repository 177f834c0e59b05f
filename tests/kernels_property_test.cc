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
  if (detected_isa() >= Isa::kSsse3) tiers.push_back(Isa::kSsse3);
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
      KernelFn fn = swap_kernel(w, isa);
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
            KernelFn fn = cvt_kernel(key, isa);
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
            KernelFn fn = cvt_kernel(key);
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
          swap_kernel(w, isa), w,
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
            KernelFn seen[3] = {};
            for (Isa isa : tiers_up_to_detected()) {
              KernelFn fn = cvt_kernel(key, isa);
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
          swap_kernel(w, isa), w, w,
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
  EXPECT_EQ(swap_kernel(3), nullptr);
  EXPECT_EQ(swap_kernel(16), nullptr);
  CvtKey key;
  key.src_kind = NumKind::kFloat;
  key.width_src = 16;  // simulated long-double slot
  key.dst_kind = NumKind::kFloat;
  key.width_dst = 8;
  EXPECT_EQ(cvt_kernel(key), nullptr);
}

/// The 8 -> 4 integer truncation table: with no byte swap the SSSE3 form
/// ran at half the scalar loop's speed, so that tier resolves it to scalar;
/// AVX2 keeps its own no-swap form, and each swapping form keeps the tier
/// that was asked for (BENCH_kernels.json, "i64->i32" and "i64be->i32").
TEST(KernelsProperty, TruncationResolutionTable) {
  for (NumKind kind : {NumKind::kInt, NumKind::kUInt}) {
    for (Isa isa : tiers_up_to_detected()) {
      if (isa == Isa::kScalar) continue;
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
            swaps == 0 && isa == Isa::kSsse3 ? Isa::kScalar : isa;
        EXPECT_STREQ(to_string(r.isa), to_string(expect))
            << "asked " << to_string(isa) << ", src_swap " << key.src_swap
            << ", dst_swap " << key.dst_swap;
      }
    }
  }
}

/// The widening table: with no byte swap the SSSE3 integer widenings ran
/// at 0.71-1.07x the scalar kernel, so that tier resolves them to scalar;
/// SSSE3 int -> double keeps its own no-swap form (up to 1.11x at 64
/// elements), AVX2 keeps every form, and each swapping form keeps the tier
/// that was asked for (BENCH_kernels.json, "i16->i32", "i32->i64",
/// "i32->f64").
TEST(KernelsProperty, WideningResolutionTable) {
  struct Row {
    NumKind src, dst;
    unsigned width_src, width_dst;
    bool no_swap_scalar_at_ssse3;
  };
  const Row rows[] = {
      {NumKind::kInt, NumKind::kInt, 2, 4, true},
      {NumKind::kUInt, NumKind::kUInt, 2, 4, true},
      {NumKind::kInt, NumKind::kInt, 4, 8, true},
      {NumKind::kUInt, NumKind::kUInt, 4, 8, true},
      {NumKind::kInt, NumKind::kFloat, 4, 8, false},
  };
  for (const Row& row : rows) {
    for (Isa isa : tiers_up_to_detected()) {
      if (isa == Isa::kScalar) continue;
      for (int swaps = 0; swaps < 4; ++swaps) {
        CvtKey key;
        key.src_kind = row.src;
        key.width_src = row.width_src;
        key.src_swap = (swaps & 1) != 0;
        key.dst_kind = row.dst;
        key.width_dst = row.width_dst;
        key.dst_swap = (swaps & 2) != 0;
        const Resolved r = resolve_cvt_kernel(key, isa);
        ASSERT_NE(r.fn, nullptr);
        const Isa expect = swaps == 0 && isa == Isa::kSsse3 &&
                                   row.no_swap_scalar_at_ssse3
                               ? Isa::kScalar
                               : isa;
        EXPECT_STREQ(to_string(r.isa), to_string(expect))
            << "asked " << to_string(isa) << ", widths " << row.width_src
            << "->" << row.width_dst << ", src_swap " << key.src_swap
            << ", dst_swap " << key.dst_swap;
      }
    }
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
