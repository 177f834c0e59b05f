// Vcode-style code generation API.
//
// The paper builds PBIO's dynamic code generation on Vcode (Engler, PLDI'96),
// "an API for a virtual RISC instruction set [where] most instruction macros
// generate only one or two native machine instructions". This Builder is our
// equivalent: a small macro set — explicit-width loads/stores, byte swap,
// numeric conversions, counted loops, helper calls — each expanding to one
// or two x86-64 instructions (conversion composites expand to a handful).
//
// Generated functions use the fixed register convention:
//   r12 = wire record base (arg 1)       rbx = loop source cursor
//   r13 = native record base (arg 2)     rbp = loop destination cursor
//   r14 = runtime context   (arg 3)      r15 = loop counter
//   rax/rcx/rdx/rdi/rsi/r8..r11, xmm0/1 = scratch
// and return an int status in eax (0 = ok).
#pragma once

#include <cstdint>

#include "vcode/x64.h"

namespace pbio::vcode {

/// One Builder macro expansion: the code offset where it began and its
/// name. Decoder-friendly emission metadata for annotated disassembly
/// (pbio_dump --disasm). Diagnostics only — the translation validator
/// deliberately ignores it and proves everything from the bytes.
struct MacroNote {
  std::size_t off = 0;
  const char* macro = "";
};

/// Everything a finished Builder produced, moved out by Builder::take().
struct Emitted {
  std::vector<std::uint8_t> code;
  std::vector<MacroNote> notes;
  std::vector<std::size_t> labels;
};

/// Well-known registers of the generated-function convention.
struct Regs {
  static constexpr Gp src_base = Gp::r12;
  static constexpr Gp dst_base = Gp::r13;
  static constexpr Gp ctx = Gp::r14;
  static constexpr Gp cur_src = Gp::rbx;
  static constexpr Gp cur_dst = Gp::rbp;
  static constexpr Gp counter = Gp::r15;
  static constexpr Gp scratch0 = Gp::rax;
  static constexpr Gp scratch1 = Gp::rcx;
  static constexpr Gp scratch2 = Gp::rdx;
};

class Builder {
 public:
  Builder() = default;

  /// Reserve room for `code_bytes` of code and `macros` macro notes (and a
  /// few labels and call sites), so emission does not grow its buffers
  /// instruction by instruction.
  void reserve(std::size_t code_bytes, std::size_t macros);

  /// Move code, notes, labels and call sites out (after finish()); the
  /// Builder is spent after.
  Emitted take();

  /// Emit the function prologue: save callee-saved registers, move the
  /// System V argument registers into the convention registers.
  void prologue();

  /// Emit `return 0`.
  void ret_ok();

  /// Branch to the (shared) epilogue if eax != 0 — error propagation after
  /// helper calls.
  void ret_if_error();

  /// Bind the shared epilogue. Must be called exactly once, last.
  void finish();

  // --- one/two-instruction macros -------------------------------------------

  /// Load `width` bytes from [base+disp]; zero- or sign-extend to 64 bits.
  void ld(Gp dst, Gp base, std::int32_t disp, unsigned width, bool sign);
  /// Store the low `width` bytes of src to [base+disp].
  void st(Gp base, std::int32_t disp, Gp src, unsigned width);
  /// Reverse the low `width` bytes of r (2, 4 or 8); upper bits zeroed.
  void swap(Gp r, unsigned width);
  void mov(Gp dst, Gp src);
  void lea(Gp dst, Gp base, std::int32_t disp);

  // --- numeric conversion composites ----------------------------------------

  void i64_to_f64(Xmm dst, Gp src);   // signed
  void u64_to_f64(Xmm dst, Gp src);   // branchy; clobbers r10/r11
  void f64_to_i64(Gp dst, Xmm src);   // truncating
  void f32_to_f64(Xmm x);             // in place
  void f64_to_f32(Xmm x);             // in place
  void gp_to_xmm(Xmm dst, Gp src, unsigned width);  // 4 or 8 bytes of bits
  void xmm_to_gp(Gp dst, Xmm src, unsigned width);

  // --- control ----------------------------------------------------------------

  /// Counted loop over `count` iterations: positions cur_src/cur_dst at
  /// src_base+src_off / dst_base+dst_off, advances them by the strides each
  /// iteration. The body emits code addressing [cur_src+k] / [cur_dst+k].
  template <typename BodyFn>
  void counted_loop(std::uint32_t count, std::int32_t src_off,
                    std::int32_t dst_off, std::int32_t src_stride,
                    std::int32_t dst_stride, BodyFn&& body) {
    note("counted_loop");
    lea(Regs::cur_src, Regs::src_base, src_off);
    lea(Regs::cur_dst, Regs::dst_base, dst_off);
    ld_imm32(Regs::counter, count);
    Label top;
    e_.bind(top);
    body();
    e_.add_ri(Regs::cur_src, src_stride);
    e_.add_ri(Regs::cur_dst, dst_stride);
    e_.dec32(Regs::counter);
    e_.jcc(Cond::ne, top);
  }

  /// Call a C function at a fixed address: args must already be in
  /// rdi/rsi/rdx/rcx; result lands in eax/rax. Clobbers rax + caller-saved.
  void call(const void* fn);

  void ld_imm32(Gp r, std::uint32_t v);

  /// Direct access for composites the macro set doesn't cover.
  X64Emitter& raw() { return e_; }
  const std::vector<std::uint8_t>& code() const { return e_.code(); }

  /// Per-macro byte ranges: notes()[i] covers [notes()[i].off,
  /// notes()[i+1].off). Diagnostics only, never trusted by validation.
  const std::vector<MacroNote>& notes() const { return notes_; }

  /// Label-bind offsets from the underlying emitter.
  const std::vector<std::size_t>& labels() const { return e_.label_table(); }

 private:
  void note(const char* macro) { notes_.push_back({e_.size(), macro}); }

  X64Emitter e_;
  Label out_;
  std::vector<MacroNote> notes_;
  bool prologue_done_ = false;
  bool finished_ = false;
};

}  // namespace pbio::vcode
