#include "verify/tval/decode.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace pbio::verify::tval {

namespace {

/// Internal decode failure; caught at the decode() loop boundary and turned
/// into a Decoded{ok=false}. Never escapes this TU.
struct DecodeFail {
  std::string msg;
};

[[noreturn]] void fail(std::string msg) { throw DecodeFail{std::move(msg)}; }

/// Condition codes the emitter's Cond enum can express. 0xA/0xB (p/np) are
/// absent from the enum and therefore never emitted.
bool cc_in_vocabulary(std::uint8_t cc) { return cc != 0xA && cc != 0xB; }

class Cursor {
 public:
  Cursor(std::span<const std::uint8_t> code, std::size_t pos)
      : code_(code), pos_(pos) {}

  std::size_t pos() const { return pos_; }
  bool done() const { return pos_ >= code_.size(); }

  std::uint8_t peek() const {
    if (pos_ >= code_.size()) fail("truncated instruction");
    return code_[pos_];
  }

  std::uint8_t u8() {
    std::uint8_t b = peek();
    ++pos_;
    return b;
  }

  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{u8()} << (8 * i);
    return v;
  }

  std::uint64_t u64() {
    std::uint64_t v = u32();
    return v | (std::uint64_t{u32()} << 32);
  }

 private:
  std::span<const std::uint8_t> code_;
  std::size_t pos_;
};

struct Prefixes {
  std::uint8_t legacy = 0;  // 0x66 / 0xF2 / 0xF3, or 0
  bool has_rex = false;
  bool w = false, r = false, b = false;
};

struct ModRm {
  std::uint8_t mod = 0;
  std::uint8_t reg = 0;  // full 4-bit (REX.R folded in)
  std::uint8_t rm = 0;   // full 4-bit (REX.B folded in)
  std::int32_t disp = 0;
};

/// Read a ModRM in register-direct form (mod=11). The emitter's reg-reg
/// instructions never take memory operands.
ModRm reg_form(Cursor& c, const Prefixes& pfx) {
  std::uint8_t m = c.u8();
  if ((m >> 6) != 3) fail("expected register-direct modrm");
  ModRm out;
  out.mod = 3;
  out.reg = static_cast<std::uint8_t>(((m >> 3) & 7) | (pfx.r ? 8 : 0));
  out.rm = static_cast<std::uint8_t>((m & 7) | (pfx.b ? 8 : 0));
  return out;
}

/// Read a ModRM+SIB+disp in memory form, enforcing the emitter's canonical
/// shortest-displacement choices: mod=00 only when disp==0 and base is not
/// rbp/r13; disp8 for [-128,127]; disp32 otherwise; SIB only (and exactly
/// 0x24) for rsp/r12 bases; never rip-relative, never an index register.
ModRm mem_form(Cursor& c, const Prefixes& pfx) {
  std::uint8_t m = c.u8();
  ModRm out;
  out.mod = m >> 6;
  out.reg = static_cast<std::uint8_t>(((m >> 3) & 7) | (pfx.r ? 8 : 0));
  const std::uint8_t rm_lo = m & 7;
  out.rm = static_cast<std::uint8_t>(rm_lo | (pfx.b ? 8 : 0));
  if (out.mod == 3) fail("expected memory operand");
  if (rm_lo == 4) {
    if (c.u8() != 0x24) fail("SIB with index register not in vocabulary");
  }
  switch (out.mod) {
    case 0:
      if (rm_lo == 5) fail("rip-relative addressing not in vocabulary");
      out.disp = 0;
      break;
    case 1:
      out.disp = static_cast<std::int8_t>(c.u8());
      if (out.disp == 0 && rm_lo != 5) fail("non-canonical disp8 of zero");
      break;
    default:
      out.disp = static_cast<std::int32_t>(c.u32());
      if (out.disp >= -128 && out.disp <= 127) {
        fail("non-canonical disp32 for small displacement");
      }
      break;
  }
  return out;
}

Reg reg_of(std::uint8_t idx) { return static_cast<Reg>(idx & 15); }

/// The xmm side of an operand; the emitter only has xmm0-3 so any higher
/// index means the bytes were not produced by it.
std::uint8_t xmm_of(std::uint8_t idx) {
  if (idx > 3) fail("xmm register above xmm3 not in vocabulary");
  return idx;
}

/// Decode the instruction at `start` into `inst`, a value-initialized slot
/// the caller owns. Filling the slot in place, rather than returning an Inst
/// built field by field on the stack, avoids a store-forwarding stall per
/// instruction on the copy out.
void decode_one(std::span<const std::uint8_t> code, std::size_t start,
                Inst& inst) {
  Cursor c(code, start);
  Prefixes pfx;

  std::uint8_t b = c.u8();
  if (b == 0x66 || b == 0xF2 || b == 0xF3) {
    pfx.legacy = b;
    b = c.u8();
  }
  std::uint8_t rex_byte = 0;
  if ((b & 0xF0) == 0x40) {
    pfx.has_rex = true;
    rex_byte = b;
    if (rex_byte & 0x02) fail("REX.X never emitted");
    pfx.w = rex_byte & 0x08;
    pfx.r = rex_byte & 0x04;
    pfx.b = rex_byte & 0x01;
    b = c.u8();
  }
  // The emitter omits a valueless REX everywhere except the width-1 store,
  // where it is forced so sil/dil encode as byte registers.
  if (pfx.has_rex && rex_byte == 0x40 && b != 0x88) {
    fail("redundant REX prefix never emitted");
  }

  inst.off = start;

  auto expect_no_legacy = [&] {
    if (pfx.legacy != 0) fail("unexpected legacy prefix");
  };
  auto expect_w = [&](bool want) {
    if (pfx.w != want) fail(want ? "missing REX.W" : "unexpected REX.W");
  };
  auto expect_no_r = [&] {
    if (pfx.r) fail("REX.R set on single-register form");
  };
  auto finish = [&](Opc opc) {
    inst.opc = opc;
    inst.len = static_cast<std::uint8_t>(c.pos() - start);
  };

  switch (b) {
    case 0x0F: {
      std::uint8_t b2 = c.u8();
      if (b2 >= 0x80 && b2 <= 0x8F) {  // jcc rel32
        expect_no_legacy();
        if (pfx.has_rex) fail("REX before jcc never emitted");
        inst.cc = b2 & 0xF;
        if (!cc_in_vocabulary(inst.cc)) fail("condition code not in Cond enum");
        inst.rel = static_cast<std::int32_t>(c.u32());
        return finish(Opc::kJcc);
      }
      if (b2 >= 0xC8 && b2 <= 0xCF) {  // bswap
        expect_no_legacy();
        expect_no_r();
        inst.reg = reg_of(static_cast<std::uint8_t>((b2 - 0xC8) |
                                                    (pfx.b ? 8 : 0)));
        inst.width = pfx.w ? 8 : 4;
        return finish(Opc::kBswap);
      }
      switch (b2) {
        case 0xB6:    // movzx r32, m8
        case 0xB7: {  // movzx r32, m16
          expect_no_legacy();
          expect_w(false);
          ModRm m = mem_form(c, pfx);
          inst.reg = reg_of(m.reg);
          inst.base = reg_of(m.rm);
          inst.is_mem = true;
          inst.disp = m.disp;
          inst.width = b2 == 0xB6 ? 1 : 2;
          return finish(Opc::kLoad);
        }
        case 0xBE:    // movsx r64, m8
        case 0xBF: {  // movsx r64, m16
          expect_no_legacy();
          expect_w(true);
          ModRm m = mem_form(c, pfx);
          inst.reg = reg_of(m.reg);
          inst.base = reg_of(m.rm);
          inst.is_mem = true;
          inst.disp = m.disp;
          inst.width = b2 == 0xBE ? 1 : 2;
          inst.sign = true;
          return finish(Opc::kLoad);
        }
        case 0x6E:    // movd/movq xmm, gp
        case 0x7E: {  // movd/movq gp, xmm
          if (pfx.legacy != 0x66) fail("movd/movq requires 0x66 prefix");
          ModRm m = reg_form(c, pfx);
          if (pfx.r) fail("REX.R on xmm operand never emitted");
          inst.xmm = xmm_of(m.reg);
          inst.reg = reg_of(m.rm);
          inst.width = pfx.w ? 8 : 4;
          return finish(b2 == 0x6E ? Opc::kMovGpXmm : Opc::kMovXmmGp);
        }
        case 0x2A: {  // cvtsi2sd xmm, r64
          if (pfx.legacy != 0xF2) fail("cvtsi2sd requires 0xF2 prefix");
          expect_w(true);
          ModRm m = reg_form(c, pfx);
          if (pfx.r) fail("REX.R on xmm operand never emitted");
          inst.xmm = xmm_of(m.reg);
          inst.reg = reg_of(m.rm);
          return finish(Opc::kCvtSi2Sd);
        }
        case 0x2C: {  // cvttsd2si r64, xmm
          if (pfx.legacy != 0xF2) fail("cvttsd2si requires 0xF2 prefix");
          expect_w(true);
          ModRm m = reg_form(c, pfx);
          inst.reg = reg_of(m.reg);
          inst.xmm = xmm_of(m.rm);
          return finish(Opc::kCvtTSd2Si);
        }
        case 0x5A:    // cvtsd2ss / cvtss2sd
        case 0x58: {  // addsd
          if (pfx.has_rex) fail("REX on xmm-xmm op never emitted");
          ModRm m = reg_form(c, pfx);
          inst.xmm = xmm_of(m.reg);
          inst.xmm2 = xmm_of(m.rm);
          if (b2 == 0x58) {
            if (pfx.legacy != 0xF2) fail("addsd requires 0xF2 prefix");
            return finish(Opc::kAddSd);
          }
          if (pfx.legacy == 0xF2) return finish(Opc::kCvtSd2Ss);
          if (pfx.legacy == 0xF3) return finish(Opc::kCvtSs2Sd);
          fail("cvt 0x5A requires 0xF2/0xF3 prefix");
        }
        default:
          fail("0F opcode not in vocabulary");
      }
    }

    case 0x89: {  // mov r/m, r: reg-reg move or store of width 2/4/8
      if ((c.peek() >> 6) == 3) {
        expect_no_legacy();
        expect_w(true);
        ModRm m = reg_form(c, pfx);
        inst.base = reg_of(m.rm);  // destination
        inst.reg = reg_of(m.reg);  // source
        return finish(Opc::kMovRR);
      }
      if (pfx.legacy == 0x66) {
        expect_w(false);
        inst.width = 2;
      } else {
        expect_no_legacy();
        inst.width = pfx.w ? 8 : 4;
      }
      ModRm m = mem_form(c, pfx);
      inst.reg = reg_of(m.reg);
      inst.base = reg_of(m.rm);
      inst.is_mem = true;
      inst.disp = m.disp;
      return finish(Opc::kStore);
    }

    case 0x88: {  // byte store, REX always forced
      expect_no_legacy();
      expect_w(false);
      if (!pfx.has_rex) fail("byte store without forced REX");
      ModRm m = mem_form(c, pfx);
      inst.reg = reg_of(m.reg);
      inst.base = reg_of(m.rm);
      inst.is_mem = true;
      inst.disp = m.disp;
      inst.width = 1;
      return finish(Opc::kStore);
    }

    case 0x8B: {  // mov r, m (width 4 zero-extends, width 8)
      expect_no_legacy();
      ModRm m = mem_form(c, pfx);
      inst.reg = reg_of(m.reg);
      inst.base = reg_of(m.rm);
      inst.is_mem = true;
      inst.disp = m.disp;
      inst.width = pfx.w ? 8 : 4;
      return finish(Opc::kLoad);
    }

    case 0x63: {  // movsxd r64, m32
      expect_no_legacy();
      expect_w(true);
      ModRm m = mem_form(c, pfx);
      inst.reg = reg_of(m.reg);
      inst.base = reg_of(m.rm);
      inst.is_mem = true;
      inst.disp = m.disp;
      inst.width = 4;
      inst.sign = true;
      return finish(Opc::kLoad);
    }

    case 0x8D: {  // lea r64, [base+disp]
      expect_no_legacy();
      expect_w(true);
      ModRm m = mem_form(c, pfx);
      inst.reg = reg_of(m.reg);
      inst.base = reg_of(m.rm);
      inst.is_mem = true;
      inst.disp = m.disp;
      return finish(Opc::kLea);
    }

    case 0x31: {  // xor r32, r32
      expect_no_legacy();
      expect_w(false);
      ModRm m = reg_form(c, pfx);
      inst.base = reg_of(m.rm);
      inst.reg = reg_of(m.reg);
      return finish(Opc::kXorRR32);
    }

    case 0x01:    // add r64, r64
    case 0x09: {  // or r64, r64
      expect_no_legacy();
      expect_w(true);
      ModRm m = reg_form(c, pfx);
      inst.base = reg_of(m.rm);
      inst.reg = reg_of(m.reg);
      return finish(b == 0x01 ? Opc::kAddRR : Opc::kOrRR);
    }

    case 0x85: {  // test
      expect_no_legacy();
      ModRm m = reg_form(c, pfx);
      inst.base = reg_of(m.rm);
      inst.reg = reg_of(m.reg);
      return finish(pfx.w ? Opc::kTestRR64 : Opc::kTestRR32);
    }

    case 0xC1: {  // shift by imm8
      expect_no_legacy();
      expect_no_r();
      ModRm m = reg_form(c, pfx);
      inst.reg = reg_of(m.rm);
      inst.width = pfx.w ? 8 : 4;
      inst.shift = c.u8();
      switch (m.reg & 7) {
        case 4: return finish(Opc::kShl);
        case 5: return finish(Opc::kShr);
        case 7: return finish(Opc::kSar);
        default: fail("shift digit not in vocabulary");
      }
    }

    case 0x81: {  // add/sub r64, imm32 | and r32, imm32
      expect_no_legacy();
      expect_no_r();
      ModRm m = reg_form(c, pfx);
      inst.reg = reg_of(m.rm);
      inst.imm = c.u32();
      switch (m.reg & 7) {
        case 0:
          expect_w(true);
          return finish(Opc::kAddRI);
        case 4:
          expect_w(false);
          return finish(Opc::kAndRI32);
        case 5:
          expect_w(true);
          return finish(Opc::kSubRI);
        default:
          fail("group-1 digit not in vocabulary");
      }
    }

    case 0xFF: {  // dec r32 | call reg
      expect_no_legacy();
      expect_no_r();
      expect_w(false);
      ModRm m = reg_form(c, pfx);
      inst.reg = reg_of(m.rm);
      switch (m.reg & 7) {
        case 1: return finish(Opc::kDec32);
        case 2: return finish(Opc::kCallReg);
        default: fail("group-5 digit not in vocabulary");
      }
    }

    case 0xE9: {  // jmp rel32
      expect_no_legacy();
      if (pfx.has_rex) fail("REX before jmp never emitted");
      inst.rel = static_cast<std::int32_t>(c.u32());
      return finish(Opc::kJmp);
    }

    case 0xC3: {  // ret
      expect_no_legacy();
      if (pfx.has_rex) fail("REX before ret never emitted");
      return finish(Opc::kRet);
    }

    default:
      if (b >= 0xB8 && b <= 0xBF) {  // mov r, imm
        expect_no_legacy();
        expect_no_r();
        inst.reg = reg_of(static_cast<std::uint8_t>((b - 0xB8) |
                                                    (pfx.b ? 8 : 0)));
        if (pfx.w) {
          inst.imm = c.u64();
          return finish(Opc::kMovRI64);
        }
        inst.imm = c.u32();
        return finish(Opc::kMovRI32);
      }
      if (b >= 0x50 && b <= 0x5F) {  // push / pop
        expect_no_legacy();
        expect_no_r();
        expect_w(false);
        const bool is_push = b < 0x58;
        inst.reg = reg_of(static_cast<std::uint8_t>(
            (b - (is_push ? 0x50 : 0x58)) | (pfx.b ? 8 : 0)));
        return finish(is_push ? Opc::kPush : Opc::kPop);
      }
      fail("opcode not in vocabulary");
  }
}

}  // namespace

std::size_t Decoded::index_at(std::size_t off) const {
  auto it = std::lower_bound(
      insts.begin(), insts.end(), off,
      [](const Inst& inst, std::size_t o) { return inst.off < o; });
  if (it == insts.end() || it->off != off) return SIZE_MAX;
  return static_cast<std::size_t>(it - insts.begin());
}

void decode_into(std::span<const std::uint8_t> code, Decoded& out) {
  out.insts.clear();
  out.ok = false;
  out.fail_off = 0;
  out.error.clear();
  std::size_t pos = 0;
  try {
    while (pos < code.size()) {
      Inst& inst = out.insts.emplace_back();
      decode_one(code, pos, inst);
      pos += inst.len;
    }
  } catch (const DecodeFail& f) {
    out.insts.pop_back();  // the partly decoded instruction
    out.fail_off = pos;
    out.error = f.msg;
    return;
  }
  out.ok = true;
}

Decoded decode(std::span<const std::uint8_t> code) {
  Decoded out;
  decode_into(code, out);
  return out;
}

const char* to_string(Reg r) {
  static const char* const kNames[16] = {
      "rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
      "r8",  "r9",  "r10", "r11", "r12", "r13", "r14", "r15"};
  return kNames[static_cast<std::uint8_t>(r) & 15];
}

const char* to_string(Opc o) {
  switch (o) {
    case Opc::kPush: return "push";
    case Opc::kPop: return "pop";
    case Opc::kRet: return "ret";
    case Opc::kMovRR: return "mov";
    case Opc::kMovRI32: return "mov";
    case Opc::kMovRI64: return "movabs";
    case Opc::kXorRR32: return "xor";
    case Opc::kLoad: return "load";
    case Opc::kStore: return "store";
    case Opc::kLea: return "lea";
    case Opc::kBswap: return "bswap";
    case Opc::kShl: return "shl";
    case Opc::kShr: return "shr";
    case Opc::kSar: return "sar";
    case Opc::kAndRI32: return "and";
    case Opc::kOrRR: return "or";
    case Opc::kAddRR: return "add";
    case Opc::kAddRI: return "add";
    case Opc::kSubRI: return "sub";
    case Opc::kDec32: return "dec";
    case Opc::kTestRR32: return "test";
    case Opc::kTestRR64: return "test";
    case Opc::kMovGpXmm: return "movq";
    case Opc::kMovXmmGp: return "movq";
    case Opc::kCvtSi2Sd: return "cvtsi2sd";
    case Opc::kCvtTSd2Si: return "cvttsd2si";
    case Opc::kCvtSd2Ss: return "cvtsd2ss";
    case Opc::kCvtSs2Sd: return "cvtss2sd";
    case Opc::kAddSd: return "addsd";
    case Opc::kJmp: return "jmp";
    case Opc::kJcc: return "jcc";
    case Opc::kCallReg: return "call";
  }
  return "?";
}

namespace {

std::string mem_str(const Inst& i) {
  char buf[48];
  if (i.disp == 0) {
    std::snprintf(buf, sizeof buf, "[%s]", to_string(i.base));
  } else {
    std::snprintf(buf, sizeof buf, "[%s%+d]", to_string(i.base), i.disp);
  }
  return buf;
}

const char* cc_str(std::uint8_t cc) {
  static const char* const kNames[16] = {"o",  "no", "b",  "ae", "e", "ne",
                                         "be", "a",  "s",  "ns", "p", "np",
                                         "l",  "ge", "le", "g"};
  return kNames[cc & 15];
}

}  // namespace

std::string to_string(const Inst& i) {
  char buf[96];
  switch (i.opc) {
    case Opc::kPush:
    case Opc::kPop:
    case Opc::kDec32:
    case Opc::kCallReg:
      std::snprintf(buf, sizeof buf, "%s %s", to_string(i.opc),
                    to_string(i.reg));
      break;
    case Opc::kRet:
      return "ret";
    case Opc::kMovRR:
    case Opc::kXorRR32:
    case Opc::kOrRR:
    case Opc::kAddRR:
    case Opc::kTestRR32:
    case Opc::kTestRR64:
      std::snprintf(buf, sizeof buf, "%s %s, %s", to_string(i.opc),
                    to_string(i.base), to_string(i.reg));
      break;
    case Opc::kMovRI32:
    case Opc::kMovRI64:
    case Opc::kAndRI32:
      std::snprintf(buf, sizeof buf, "%s %s, 0x%" PRIx64, to_string(i.opc),
                    to_string(i.reg), i.imm);
      break;
    case Opc::kAddRI:
    case Opc::kSubRI:
      std::snprintf(buf, sizeof buf, "%s %s, %" PRId64, to_string(i.opc),
                    to_string(i.reg),
                    static_cast<std::int64_t>(
                        static_cast<std::int32_t>(i.imm)));
      break;
    case Opc::kLoad:
      std::snprintf(buf, sizeof buf, "%s%u %s, %s", i.sign ? "ldsx" : "ld",
                    i.width, to_string(i.reg), mem_str(i).c_str());
      break;
    case Opc::kStore:
      std::snprintf(buf, sizeof buf, "st%u %s, %s", i.width,
                    mem_str(i).c_str(), to_string(i.reg));
      break;
    case Opc::kLea:
      std::snprintf(buf, sizeof buf, "lea %s, %s", to_string(i.reg),
                    mem_str(i).c_str());
      break;
    case Opc::kBswap:
      std::snprintf(buf, sizeof buf, "bswap%u %s", i.width * 8,
                    to_string(i.reg));
      break;
    case Opc::kShl:
    case Opc::kShr:
    case Opc::kSar:
      std::snprintf(buf, sizeof buf, "%s%u %s, %u", to_string(i.opc),
                    i.width * 8, to_string(i.reg), i.shift);
      break;
    case Opc::kMovGpXmm:
      std::snprintf(buf, sizeof buf, "%s xmm%u, %s", i.width == 8 ? "movq"
                                                                  : "movd",
                    i.xmm, to_string(i.reg));
      break;
    case Opc::kMovXmmGp:
      std::snprintf(buf, sizeof buf, "%s %s, xmm%u", i.width == 8 ? "movq"
                                                                  : "movd",
                    to_string(i.reg), i.xmm);
      break;
    case Opc::kCvtSi2Sd:
      std::snprintf(buf, sizeof buf, "cvtsi2sd xmm%u, %s", i.xmm,
                    to_string(i.reg));
      break;
    case Opc::kCvtTSd2Si:
      std::snprintf(buf, sizeof buf, "cvttsd2si %s, xmm%u", to_string(i.reg),
                    i.xmm);
      break;
    case Opc::kCvtSd2Ss:
    case Opc::kCvtSs2Sd:
    case Opc::kAddSd:
      std::snprintf(buf, sizeof buf, "%s xmm%u, xmm%u", to_string(i.opc),
                    i.xmm, i.xmm2);
      break;
    case Opc::kJmp:
      std::snprintf(buf, sizeof buf, "jmp 0x%llx",
                    static_cast<unsigned long long>(i.target()));
      break;
    case Opc::kJcc:
      std::snprintf(buf, sizeof buf, "j%s 0x%llx", cc_str(i.cc),
                    static_cast<unsigned long long>(i.target()));
      break;
  }
  return buf;
}

}  // namespace pbio::verify::tval
