// Raw x86-64 instruction encoder.
//
// Only the instruction forms the conversion JIT needs — loads/stores of all
// widths with sign/zero extension, bswap, SSE2 scalar conversions, immediate
// arithmetic, branches, calls. Deliberately small: this is the "native
// machine instructions generated directly into a memory buffer" layer under
// the Vcode-style API in vcode.h.
#pragma once

#include <cstdint>
#include <vector>

#include "util/error.h"

namespace pbio::vcode {

/// General-purpose registers (hardware encoding order).
enum class Gp : std::uint8_t {
  rax = 0, rcx = 1, rdx = 2, rbx = 3, rsp = 4, rbp = 5, rsi = 6, rdi = 7,
  r8 = 8, r9 = 9, r10 = 10, r11 = 11, r12 = 12, r13 = 13, r14 = 14, r15 = 15,
};

/// SSE registers.
enum class Xmm : std::uint8_t { xmm0 = 0, xmm1 = 1, xmm2 = 2, xmm3 = 3 };

/// Condition codes (for jcc).
enum class Cond : std::uint8_t {
  o = 0x0, no = 0x1, b = 0x2, ae = 0x3, e = 0x4, ne = 0x5, be = 0x6, a = 0x7,
  s = 0x8, ns = 0x9, l = 0xC, ge = 0xD, le = 0xE, g = 0xF,
};

/// Forward-referenceable position in the instruction stream.
class Label {
 public:
  bool bound() const { return pos_ >= 0; }

 private:
  friend class X64Emitter;
  std::int64_t pos_ = -1;
  std::vector<std::size_t> patches_;  // rel32 sites awaiting the address
};

class X64Emitter {
 public:
  const std::vector<std::uint8_t>& code() const { return code_; }
  std::size_t size() const { return code_.size(); }

  /// Reserve room for `code_bytes` of code and `labels` label binds, so
  /// emission does not grow the buffers instruction by instruction.
  void reserve(std::size_t code_bytes, std::size_t labels) {
    code_.reserve(code_bytes);
    labels_.reserve(labels);
  }

  /// Move the code and the label table out; the emitter is spent after.
  std::vector<std::uint8_t> take_code() { return std::move(code_); }
  std::vector<std::size_t> take_labels() { return std::move(labels_); }

  /// Offsets at which labels were bound, in bind order — decoder-friendly
  /// emission metadata (loop tops, the shared epilogue) for disassembly
  /// annotation. Diagnostics only: the translation validator re-derives
  /// control flow from the bytes and never trusts this table.
  const std::vector<std::size_t>& label_table() const { return labels_; }

  // --- moves -------------------------------------------------------------
  void mov_ri64(Gp r, std::uint64_t imm);           // movabs r, imm64
  void mov_ri32(Gp r, std::uint32_t imm);           // mov r32, imm32
  void mov_rr64(Gp dst, Gp src);                    // mov dst, src
  void xor_rr32(Gp dst, Gp src);                    // xor (zeroing idiom)

  // --- memory, [base + disp32] -------------------------------------------
  void load_zx(Gp dst, Gp base, std::int32_t disp, unsigned width);
  void load_sx64(Gp dst, Gp base, std::int32_t disp, unsigned width);
  void store(Gp base, std::int32_t disp, Gp src, unsigned width);
  void lea(Gp dst, Gp base, std::int32_t disp);

  // --- bit manipulation ----------------------------------------------------
  void bswap32(Gp r);
  void bswap64(Gp r);
  void shr_imm(Gp r, unsigned bits, bool w64);
  void shl_imm(Gp r, unsigned bits, bool w64);
  void sar_imm(Gp r, unsigned bits, bool w64);
  void and_ri32(Gp r, std::uint32_t imm);
  void or_rr64(Gp dst, Gp src);

  // --- arithmetic ----------------------------------------------------------
  void add_ri(Gp r, std::int32_t imm);              // add r64, imm32
  void add_rr64(Gp dst, Gp src);
  void sub_ri(Gp r, std::int32_t imm);
  void dec32(Gp r);
  void test_rr64(Gp a, Gp b);
  void test_rr32(Gp a, Gp b);

  // --- SSE2 scalar ---------------------------------------------------------
  void movq_xr(Xmm dst, Gp src);                    // movq xmm, r64
  void movq_rx(Gp dst, Xmm src);                    // movq r64, xmm
  void movd_xr(Xmm dst, Gp src);                    // movd xmm, r32
  void movd_rx(Gp dst, Xmm src);                    // movd r32, xmm
  void cvtsi2sd(Xmm dst, Gp src);                   // signed i64 -> f64
  void cvttsd2si(Gp dst, Xmm src);                  // f64 -> i64 (truncate)
  void cvtsd2ss(Xmm dst, Xmm src);                  // f64 -> f32
  void cvtss2sd(Xmm dst, Xmm src);                  // f32 -> f64
  void addsd(Xmm dst, Xmm src);

  // --- control flow ----------------------------------------------------------
  void bind(Label& l);
  void jmp(Label& l);
  void jcc(Cond cc, Label& l);
  void call_reg(Gp r);
  void push(Gp r);
  void pop(Gp r);
  void ret();

 private:
  void byte(std::uint8_t b) { code_.push_back(b); }
  void imm32(std::uint32_t v);
  void imm64(std::uint64_t v);
  /// REX prefix; emitted when any bit set or `force` (byte-reg access).
  void rex(bool w, std::uint8_t reg, std::uint8_t rm, bool force = false);
  /// ModRM (+SIB when base requires it) for [base + disp32].
  void modrm_mem(std::uint8_t reg, Gp base, std::int32_t disp);
  void modrm_reg(std::uint8_t reg, std::uint8_t rm);
  void patch_rel32(std::size_t at, std::size_t target);

  std::vector<std::uint8_t> code_;
  std::vector<std::size_t> labels_;
};

}  // namespace pbio::vcode
