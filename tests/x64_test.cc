// Execute small generated functions and check their behaviour — catches
// instruction-encoding mistakes at the source.
#include "vcode/x64.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "util/endian.h"
#include "vcode/execmem.h"
#include "vcode/vcode.h"

namespace pbio::vcode {
namespace {

/// Assemble `emit(e)` into executable memory (kept alive by `keepalive`)
/// and return the entry point as Fn.
template <typename Fn, typename EmitFn>
Fn assemble(EmitFn&& emit, ExecBuffer& keepalive) {
  X64Emitter e;
  emit(e);
  keepalive = ExecBuffer(e.size());
  std::memcpy(keepalive.data(), e.code().data(), e.size());
  keepalive.make_executable();
  return keepalive.entry<Fn>();
}

TEST(X64, ReturnImmediate) {
  ExecBuffer buf(1);
  auto fn = assemble<std::uint64_t (*)()>(
      [](X64Emitter& e) {
        e.mov_ri64(Gp::rax, 0x1122334455667788ull);
        e.ret();
      },
      buf);
  EXPECT_EQ(fn(), 0x1122334455667788ull);
}

TEST(X64, Mov32ZeroExtends) {
  ExecBuffer buf(1);
  auto fn = assemble<std::uint64_t (*)()>(
      [](X64Emitter& e) {
        e.mov_ri64(Gp::rax, ~0ull);
        e.mov_ri32(Gp::rax, 0xAABBCCDD);
        e.ret();
      },
      buf);
  EXPECT_EQ(fn(), 0xAABBCCDDull);
}

TEST(X64, LoadStoreAllWidths) {
  // fn(src, dst): dst[0..7] = src[0..7] via 8/4/2/1 loads+stores.
  ExecBuffer buf(1);
  auto fn = assemble<void (*)(const void*, void*)>(
      [](X64Emitter& e) {
        e.load_zx(Gp::rax, Gp::rdi, 0, 8);
        e.store(Gp::rsi, 0, Gp::rax, 8);
        e.load_zx(Gp::rax, Gp::rdi, 8, 4);
        e.store(Gp::rsi, 8, Gp::rax, 4);
        e.load_zx(Gp::rax, Gp::rdi, 12, 2);
        e.store(Gp::rsi, 12, Gp::rax, 2);
        e.load_zx(Gp::rax, Gp::rdi, 14, 1);
        e.store(Gp::rsi, 14, Gp::rax, 1);
        e.ret();
      },
      buf);
  std::uint8_t src[16], dst[16];
  for (int i = 0; i < 16; ++i) src[i] = static_cast<std::uint8_t>(i + 1);
  std::memset(dst, 0, 16);
  fn(src, dst);
  EXPECT_EQ(std::memcmp(src, dst, 15), 0);
  EXPECT_EQ(dst[15], 0);  // untouched
}

TEST(X64, SignExtendingLoads) {
  ExecBuffer buf(1);
  auto fn = assemble<std::int64_t (*)(const void*, int)>(
      [](X64Emitter& e) {
        // width selector in esi: 1, 2 or 4
        Label w2, w4, done;
        e.mov_ri32(Gp::rax, 2);
        e.test_rr32(Gp::rsi, Gp::rax);  // bit 1 set -> width 2
        e.jcc(Cond::ne, w2);
        e.mov_ri32(Gp::rax, 4);
        e.test_rr32(Gp::rsi, Gp::rax);
        e.jcc(Cond::ne, w4);
        e.load_sx64(Gp::rax, Gp::rdi, 0, 1);
        e.jmp(done);
        e.bind(w2);
        e.load_sx64(Gp::rax, Gp::rdi, 0, 2);
        e.jmp(done);
        e.bind(w4);
        e.load_sx64(Gp::rax, Gp::rdi, 0, 4);
        e.bind(done);
        e.ret();
      },
      buf);
  const std::int32_t neg = -5;
  EXPECT_EQ(fn(&neg, 1), -5);
  EXPECT_EQ(fn(&neg, 2), -5);
  EXPECT_EQ(fn(&neg, 4), -5);
}

TEST(X64, DisplacementEncodingBoundaries) {
  // disp==0 / disp8 / disp32 forms must all address correctly, including
  // the rbp/r13 special case (no mod=00 form) and rsp/r12 (SIB required).
  std::vector<std::uint8_t> buf_mem(4096, 0);
  for (std::int32_t disp : {0, 1, 127, 128, 255, 2048}) {
    buf_mem[static_cast<std::size_t>(disp)] = static_cast<std::uint8_t>(
        0xA0 + (disp & 0xF));
  }
  for (Gp base : {Gp::rdi, Gp::rbp, Gp::r12, Gp::r13}) {
    for (std::int32_t disp : {0, 1, 127, 128, 255, 2048}) {
      ExecBuffer buf(1);
      auto fn = assemble<std::uint64_t (*)(const void*)>(
          [&](X64Emitter& e) {
            if (base != Gp::rdi) {
              e.push(base);
              e.mov_rr64(base, Gp::rdi);
            }
            e.load_zx(Gp::rax, base, disp, 1);
            if (base != Gp::rdi) e.pop(base);
            e.ret();
          },
          buf);
      EXPECT_EQ(fn(buf_mem.data()),
                static_cast<std::uint64_t>(0xA0 + (disp & 0xF)))
          << "base=" << static_cast<int>(base) << " disp=" << disp;
    }
  }
}

TEST(X64, NegativeDisplacement) {
  std::vector<std::uint8_t> mem(256, 0);
  mem[100] = 0x5C;
  ExecBuffer buf(1);
  auto fn = assemble<std::uint64_t (*)(const void*)>(
      [](X64Emitter& e) {
        e.lea(Gp::rcx, Gp::rdi, 164);
        e.load_zx(Gp::rax, Gp::rcx, -64, 1);
        e.ret();
      },
      buf);
  EXPECT_EQ(fn(mem.data()), 0x5Cu);
}

TEST(X64, BswapWorks) {
  ExecBuffer buf(1);
  auto fn = assemble<std::uint64_t (*)(std::uint64_t)>(
      [](X64Emitter& e) {
        e.mov_rr64(Gp::rax, Gp::rdi);
        e.bswap64(Gp::rax);
        e.ret();
      },
      buf);
  EXPECT_EQ(fn(0x0102030405060708ull), 0x0807060504030201ull);
}

TEST(X64, R12R13MemoryOperandsNeedSib) {
  // r12/rsp encodings exercise the SIB path; r13/rbp the disp path.
  ExecBuffer buf(1);
  auto fn = assemble<std::uint64_t (*)(const void*, const void*)>(
      [](X64Emitter& e) {
        e.push(Gp::r12);
        e.push(Gp::r13);
        e.mov_rr64(Gp::r12, Gp::rdi);
        e.mov_rr64(Gp::r13, Gp::rsi);
        e.load_zx(Gp::rax, Gp::r12, 0, 8);
        e.load_zx(Gp::rcx, Gp::r13, 0, 8);
        e.or_rr64(Gp::rax, Gp::rcx);
        e.pop(Gp::r13);
        e.pop(Gp::r12);
        e.ret();
      },
      buf);
  const std::uint64_t a = 0xF0F0F0F000000000ull;
  const std::uint64_t b = 0x000000000F0F0F0Full;
  EXPECT_EQ(fn(&a, &b), a | b);
}

TEST(X64, ShiftAndArith) {
  ExecBuffer buf(1);
  auto fn = assemble<std::uint64_t (*)(std::uint64_t)>(
      [](X64Emitter& e) {
        e.mov_rr64(Gp::rax, Gp::rdi);
        e.shl_imm(Gp::rax, 8, true);
        e.shr_imm(Gp::rax, 4, true);
        e.add_ri(Gp::rax, 100);
        e.sub_ri(Gp::rax, 1);
        e.ret();
      },
      buf);
  EXPECT_EQ(fn(16), (16ull << 8 >> 4) + 99);
}

TEST(X64, SarSignExtends) {
  ExecBuffer buf(1);
  auto fn = assemble<std::int64_t (*)(std::uint64_t)>(
      [](X64Emitter& e) {
        e.mov_rr64(Gp::rax, Gp::rdi);
        e.shl_imm(Gp::rax, 32, true);
        e.sar_imm(Gp::rax, 32, true);
        e.ret();
      },
      buf);
  EXPECT_EQ(fn(0xFFFFFFFFull), -1);
  EXPECT_EQ(fn(0x7FFFFFFFull), 0x7FFFFFFF);
}

TEST(X64, FloatConversionPath) {
  // f(bits_of_f32) -> (int64) of the doubled value
  ExecBuffer buf(1);
  auto fn = assemble<std::int64_t (*)(std::uint64_t)>(
      [](X64Emitter& e) {
        e.movd_xr(Xmm::xmm0, Gp::rdi);
        e.cvtss2sd(Xmm::xmm0, Xmm::xmm0);
        e.addsd(Xmm::xmm0, Xmm::xmm0);
        e.cvttsd2si(Gp::rax, Xmm::xmm0);
        e.ret();
      },
      buf);
  float f = 21.25f;
  std::uint32_t bits;
  std::memcpy(&bits, &f, 4);
  EXPECT_EQ(fn(bits), 42);
}

TEST(X64, LoopWithLabels) {
  // Sum of n..1 via a dec/jnz loop: fn(n) == n*(n+1)/2.
  ExecBuffer buf(1);
  auto fn = assemble<std::uint64_t (*)(std::uint64_t)>(
      [](X64Emitter& e) {
        e.xor_rr32(Gp::rax, Gp::rax);
        e.mov_rr64(Gp::rcx, Gp::rdi);
        Label top;
        e.bind(top);
        e.add_rr64(Gp::rax, Gp::rcx);
        e.dec32(Gp::rcx);
        e.jcc(Cond::ne, top);
        e.ret();
      },
      buf);
  EXPECT_EQ(fn(1), 1u);
  EXPECT_EQ(fn(10), 55u);
  EXPECT_EQ(fn(100), 5050u);
}

TEST(Vcode, BuilderU64ToF64Composite) {
  ExecBuffer buf(1);
  Builder b;
  // int fn(src, dst, ctx): dst[f64] = (double)src[u64]
  b.prologue();
  b.ld(Regs::scratch0, Regs::src_base, 0, 8, false);
  b.u64_to_f64(Xmm::xmm0, Regs::scratch0);
  b.xmm_to_gp(Regs::scratch0, Xmm::xmm0, 8);
  b.st(Regs::dst_base, 0, Regs::scratch0, 8);
  b.ret_ok();
  b.finish();
  buf = ExecBuffer(b.code().size());
  std::memcpy(buf.data(), b.code().data(), b.code().size());
  buf.make_executable();
  auto fn = buf.entry<int (*)(const void*, void*, void*)>();
  for (std::uint64_t v : {0ull, 1ull, 1ull << 62, 0x8000000000000000ull,
                          0xFFFFFFFFFFFFF800ull}) {
    double out = -1;
    EXPECT_EQ(fn(&v, &out, nullptr), 0);
    EXPECT_EQ(out, static_cast<double>(v)) << v;
  }
}

TEST(Vcode, BuilderSwap16Composite) {
  ExecBuffer buf(1);
  Builder b;
  b.prologue();
  b.ld(Regs::scratch0, Regs::src_base, 0, 2, false);
  b.swap(Regs::scratch0, 2);
  b.st(Regs::dst_base, 0, Regs::scratch0, 2);
  b.ret_ok();
  b.finish();
  buf = ExecBuffer(b.code().size());
  std::memcpy(buf.data(), b.code().data(), b.code().size());
  buf.make_executable();
  auto fn = buf.entry<int (*)(const void*, void*, void*)>();
  std::uint16_t in = 0x1234, out = 0;
  EXPECT_EQ(fn(&in, &out, nullptr), 0);
  EXPECT_EQ(out, 0x3412);
}

TEST(Vcode, CountedLoopCopiesElements) {
  ExecBuffer buf(1);
  Builder b;
  b.prologue();
  b.counted_loop(10, 0, 0, 4, 4, [&] {
    b.ld(Regs::scratch0, Regs::cur_src, 0, 4, false);
    b.swap(Regs::scratch0, 4);
    b.st(Regs::cur_dst, 0, Regs::scratch0, 4);
  });
  b.ret_ok();
  b.finish();
  buf = ExecBuffer(b.code().size());
  std::memcpy(buf.data(), b.code().data(), b.code().size());
  buf.make_executable();
  auto fn = buf.entry<int (*)(const void*, void*, void*)>();
  std::uint32_t in[10], out[10];
  for (int i = 0; i < 10; ++i) in[i] = 0x01020304u + static_cast<unsigned>(i);
  EXPECT_EQ(fn(in, out, nullptr), 0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i], byte_swap(in[i])) << i;
  }
}

TEST(Vcode, BuilderMisuseThrows) {
  Builder b;
  b.prologue();
  EXPECT_THROW(b.prologue(), PbioError);
  b.finish();
  EXPECT_THROW(b.finish(), PbioError);
}

TEST(Vcode, BadWidthsThrow) {
  Builder b;
  b.prologue();
  EXPECT_THROW(b.swap(Regs::scratch0, 3), PbioError);
  EXPECT_THROW(b.ld(Regs::scratch0, Regs::src_base, 0, 5, false), PbioError);
  EXPECT_THROW(b.st(Regs::dst_base, 0, Regs::scratch0, 7), PbioError);
}

TEST(X64, LabelBoundTwiceThrows) {
  X64Emitter e;
  Label l;
  e.bind(l);
  EXPECT_THROW(e.bind(l), PbioError);
}

TEST(ExecBuffer, MoveTransfersOwnership) {
  ExecBuffer a(64);
  a.data()[0] = 0xC3;  // ret
  a.make_executable();
  ExecBuffer b = std::move(a);
  EXPECT_TRUE(b.executable());
  EXPECT_NE(b.data(), nullptr);
  b.entry<void (*)()>()();  // still callable after the move
  ExecBuffer c(32);
  c = std::move(b);
  c.entry<void (*)()>()();
}

TEST(ExecBuffer, CapacityRoundsToPages) {
  ExecBuffer buf(1);
  EXPECT_GE(buf.capacity(), 4096u);
  EXPECT_EQ(buf.capacity() % 4096, 0u);
}

TEST(ExecBuffer, WProtectionToggles) {
  ExecBuffer buf(64);
  EXPECT_FALSE(buf.executable());
  buf.data()[0] = 0xC3;  // ret
  buf.make_executable();
  EXPECT_TRUE(buf.executable());
  buf.entry<void (*)()>()();
  buf.make_writable();
  buf.data()[0] = 0xC3;
  EXPECT_FALSE(buf.executable());
}

TEST(ExecBuffer, JitSupportedOnThisHost) {
#if defined(__x86_64__)
  EXPECT_TRUE(jit_supported());
#else
  EXPECT_FALSE(jit_supported());
#endif
}

/// The kernel's view of the mapping containing an address, from
/// /proc/self/maps: its bounds and protection flags (e.g. "rw-p").
struct Mapping {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
  std::string perms;  // empty if the mapping (or procfs) is not found
};

Mapping find_mapping(const void* addr) {
  std::ifstream maps("/proc/self/maps");
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  std::string line;
  while (std::getline(maps, line)) {
    std::uintptr_t lo = 0, hi = 0;
    char perms[8] = {0};
    if (std::sscanf(line.c_str(), "%" SCNxPTR "-%" SCNxPTR " %4s", &lo, &hi,
                    perms) != 3) {
      continue;
    }
    if (a >= lo && a < hi) return {lo, hi, perms};
  }
  return {};
}

std::string prot(const void* addr) {
  return find_mapping(addr).perms.substr(0, 3);
}

std::size_t page_size() {
  return static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

/// Where a buffer under test comes from: a pool slot, the slot a sealed
/// buffer just released, or an mmap fallback (more than one page, or a
/// one-page buffer taken while every slot is live).
enum class Source { kPooled, kRecycled, kMultiPage, kWindowFull };

bool pooled(Source src) {
  return src == Source::kPooled || src == Source::kRecycled;
}

/// Run `body` on a fresh buffer from each source. Every buffer must start
/// zeroed, and its page must not be executable once it is released.
template <typename Body>
void for_each_source(Body&& body) {
  const std::size_t page = page_size();
  for (const auto& [src, name] :
       {std::pair{Source::kPooled, "pooled"},
        std::pair{Source::kRecycled, "recycled"},
        std::pair{Source::kMultiPage, "multi-page"},
        std::pair{Source::kWindowFull, "window full"}}) {
    SCOPED_TRACE(name);
    std::vector<ExecBuffer> held;
    if (src == Source::kWindowFull) {
      held.reserve(kExecPoolSlots);
      for (std::size_t i = 0; i < kExecPoolSlots; ++i) {
        held.emplace_back(1).make_executable();
      }
      // Every slot sealed at once: without guards between them, adjacent
      // sealed slots would merge into one mapping.
      for (const ExecBuffer& h : held) {
        const Mapping m = find_mapping(h.data());
        EXPECT_EQ(m.hi - m.lo, page) << "sealed slot shares its mapping";
      }
    }
    const std::uint8_t* prior = nullptr;
    if (src == Source::kRecycled) {
      ExecBuffer used(1);
      std::memset(used.data(), 0xC3, used.capacity());  // ret ret ret ...
      used.make_executable();
      prior = used.data();
    }
    const std::uint8_t* data = nullptr;
    {
      ExecBuffer buf(src == Source::kMultiPage ? 3 * page : 64);
      data = buf.data();
      if (src == Source::kRecycled) {
        EXPECT_EQ(data, prior);
      }
      if (src == Source::kWindowFull) {
        const auto a = reinterpret_cast<std::uintptr_t>(data);
        for (const ExecBuffer& h : held) {
          const auto slot = reinterpret_cast<std::uintptr_t>(h.data());
          EXPECT_TRUE(a + page < slot || a > slot + page)
              << "a buffer taken with every slot live sits in the window";
        }
      }
      EXPECT_EQ(std::count(data, data + buf.capacity(), 0),
                static_cast<std::ptrdiff_t>(buf.capacity()))
          << "a new buffer must be all zeros";
      body(buf, src);
    }
    EXPECT_EQ(prot(data).find('x'), std::string::npos)
        << "released page still executable";
  }
}

TEST(ExecBuffer, WxProtectionTransitions) {
  // The W^X contract, verified against the kernel's own view of the pages:
  // writable while emitting, executable only after sealing, and never both
  // at once at any point in the lifecycle — for pooled, recycled and
  // mmap'd buffers alike.
  if (!std::ifstream("/proc/self/maps").good()) {
    GTEST_SKIP() << "/proc/self/maps not available";
  }
  for_each_source([](ExecBuffer& buf, Source src) {
    EXPECT_EQ(prot(buf.data()), "rw-");

    buf.data()[0] = 0xC3;  // ret
    buf.make_executable();
    const Mapping rx = find_mapping(buf.data());
    EXPECT_EQ(rx.perms.substr(0, 3), "r-x");
    if (pooled(src)) {
      // Guard pages keep a sealed slot its own one-page mapping.
      EXPECT_EQ(rx.hi - rx.lo, page_size());
    }
    buf.entry<void (*)()>()();

    buf.make_writable();
    EXPECT_EQ(prot(buf.data()), "rw-");

    buf.make_executable();  // released sealed
    EXPECT_EQ(prot(buf.data()), "r-x");
  });
}

TEST(ExecBuffer, EntryRefusedWhileWritable) {
  // W^X enforcement at the API level: no callable handed out while the
  // pages are writable, at creation or after reopening for regeneration.
  for_each_source([](ExecBuffer& buf, Source) {
    buf.data()[0] = 0xC3;
    EXPECT_THROW(buf.entry<void (*)()>(), PbioError);
    buf.make_executable();
    EXPECT_NO_THROW(buf.entry<void (*)()>());
    buf.make_writable();
    EXPECT_THROW(buf.entry<void (*)()>(), PbioError);
  });
}

TEST(ExecBuffer, MovedFromBufferRejectsSealing) {
  ExecBuffer a(16);
  ExecBuffer b(std::move(a));
  EXPECT_THROW(a.make_executable(), PbioError);
  EXPECT_THROW(a.make_writable(), PbioError);
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_NE(b.data(), nullptr);
}

}  // namespace
}  // namespace pbio::vcode
