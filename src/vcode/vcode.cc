#include "vcode/vcode.h"

namespace pbio::vcode {

namespace {
/// Labels a conversion function typically binds.
constexpr std::size_t kSmallTableReserve = 4;
}  // namespace

void Builder::reserve(std::size_t code_bytes, std::size_t macros) {
  e_.reserve(code_bytes, kSmallTableReserve);
  notes_.reserve(macros);
}

Emitted Builder::take() {
  return {e_.take_code(), std::move(notes_), e_.take_labels()};
}

void Builder::prologue() {
  note("prologue");
  if (prologue_done_) throw PbioError("vcode: prologue emitted twice");
  prologue_done_ = true;
  e_.push(Gp::rbp);
  e_.push(Gp::rbx);
  e_.push(Gp::r12);
  e_.push(Gp::r13);
  e_.push(Gp::r14);
  e_.push(Gp::r15);
  e_.sub_ri(Gp::rsp, 8);  // realign to 16 for nested calls
  e_.mov_rr64(Regs::src_base, Gp::rdi);
  e_.mov_rr64(Regs::dst_base, Gp::rsi);
  e_.mov_rr64(Regs::ctx, Gp::rdx);
}

void Builder::ret_ok() {
  note("ret_ok");
  e_.xor_rr32(Gp::rax, Gp::rax);
  e_.jmp(out_);
}

void Builder::ret_if_error() {
  note("ret_if_error");
  e_.test_rr32(Gp::rax, Gp::rax);
  e_.jcc(Cond::ne, out_);
}

void Builder::finish() {
  note("epilogue");
  if (finished_) throw PbioError("vcode: finish called twice");
  finished_ = true;
  e_.bind(out_);
  e_.add_ri(Gp::rsp, 8);
  e_.pop(Gp::r15);
  e_.pop(Gp::r14);
  e_.pop(Gp::r13);
  e_.pop(Gp::r12);
  e_.pop(Gp::rbx);
  e_.pop(Gp::rbp);
  e_.ret();
}

void Builder::ld(Gp dst, Gp base, std::int32_t disp, unsigned width,
                 bool sign) {
  note("ld");
  if (sign) {
    e_.load_sx64(dst, base, disp, width);
  } else {
    e_.load_zx(dst, base, disp, width);
  }
}

void Builder::st(Gp base, std::int32_t disp, Gp src, unsigned width) {
  note("st");
  e_.store(base, disp, src, width);
}

void Builder::ld_imm32(Gp r, std::uint32_t v) { note("ld_imm32"); e_.mov_ri32(r, v); }

void Builder::swap(Gp r, unsigned width) {
  note("swap");
  switch (width) {
    case 2:
      // Value is zero-extended 16 bits: bswap32 moves them to the top,
      // shr brings them back down — still zero-extended.
      e_.bswap32(r);
      e_.shr_imm(r, 16, /*w64=*/false);
      return;
    case 4:
      e_.bswap32(r);
      return;
    case 8:
      e_.bswap64(r);
      return;
    default:
      throw PbioError("vcode: bad swap width");
  }
}

void Builder::mov(Gp dst, Gp src) { note("mov"); e_.mov_rr64(dst, src); }

void Builder::lea(Gp dst, Gp base, std::int32_t disp) {
  note("lea");
  e_.lea(dst, base, disp);
}

void Builder::i64_to_f64(Xmm dst, Gp src) { note("i64_to_f64"); e_.cvtsi2sd(dst, src); }

void Builder::u64_to_f64(Xmm dst, Gp src) {
  note("u64_to_f64");
  // Standard unsigned-to-double idiom: values >= 2^63 are halved (with the
  // lost bit or-ed back for correct rounding), converted, then doubled.
  Label big;
  Label done;
  e_.test_rr64(src, src);
  e_.jcc(Cond::s, big);
  e_.cvtsi2sd(dst, src);
  e_.jmp(done);
  e_.bind(big);
  e_.mov_rr64(Gp::r10, src);
  e_.shr_imm(Gp::r10, 1, /*w64=*/true);
  e_.mov_rr64(Gp::r11, src);
  e_.and_ri32(Gp::r11, 1);
  e_.or_rr64(Gp::r10, Gp::r11);
  e_.cvtsi2sd(dst, Gp::r10);
  e_.addsd(dst, dst);
  e_.bind(done);
}

void Builder::f64_to_i64(Gp dst, Xmm src) { note("f64_to_i64"); e_.cvttsd2si(dst, src); }

void Builder::f32_to_f64(Xmm x) { note("f32_to_f64"); e_.cvtss2sd(x, x); }

void Builder::f64_to_f32(Xmm x) { note("f64_to_f32"); e_.cvtsd2ss(x, x); }

void Builder::gp_to_xmm(Xmm dst, Gp src, unsigned width) {
  note("gp_to_xmm");
  if (width == 4) {
    e_.movd_xr(dst, src);
  } else {
    e_.movq_xr(dst, src);
  }
}

void Builder::xmm_to_gp(Gp dst, Xmm src, unsigned width) {
  note("xmm_to_gp");
  if (width == 4) {
    e_.movd_rx(dst, src);
  } else {
    e_.movq_rx(dst, src);
  }
}

void Builder::call(const void* fn) {
  note("call");
  // The target is an absolute imm64 (the generated code's only absolute
  // address); the translation validator checks it against the allowlist.
  e_.mov_ri64(Gp::rax, reinterpret_cast<std::uint64_t>(fn));
  e_.call_reg(Gp::rax);
}

}  // namespace pbio::vcode
