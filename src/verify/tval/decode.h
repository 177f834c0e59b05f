// Self-contained x86-64 decoder for JIT translation validation.
//
// Covers exactly the instruction vocabulary vcode::X64Emitter can produce —
// and nothing else. Any byte sequence outside that vocabulary (including
// legal x86 the emitter never generates, non-canonical displacement
// encodings, REX bits the emitter would not set, or a SIB byte with an
// index register) is a decode failure, which the translation validator
// treats as a rejection.
//
// Deliberately independent of src/vcode: the decoder defines its own
// register/condition vocabulary and never includes the emitter's headers,
// so a bug in the encoder cannot hide in a shared table. This is the
// "trust the generator, verify each output" split of classic translation
// validation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace pbio::verify::tval {

/// General-purpose registers, hardware encoding order.
enum class Reg : std::uint8_t {
  rax = 0, rcx = 1, rdx = 2, rbx = 3, rsp = 4, rbp = 5, rsi = 6, rdi = 7,
  r8 = 8, r9 = 9, r10 = 10, r11 = 11, r12 = 12, r13 = 13, r14 = 14, r15 = 15,
};

const char* to_string(Reg r);

/// Decoded operation kinds. One kind per emitter macro family; width/sign
/// distinctions that matter to the validator are carried in Inst fields.
enum class Opc : std::uint8_t {
  kPush, kPop, kRet,
  kMovRR,      // mov r64, r64 (reg-direct)
  kMovRI32,    // mov r32, imm32 (zero-extends)
  kMovRI64,    // movabs r64, imm64
  kXorRR32,    // xor r32, r32
  kLoad,       // load [base+disp] into reg; width 1/2/4/8, sign flag
  kStore,      // store low `width` bytes of reg to [base+disp]
  kLea,        // lea reg, [base+disp]
  kBswap,      // byte-reverse reg; width 4 or 8
  kShl, kShr, kSar,  // reg shift by imm8; width 4 or 8
  kAndRI32,    // and r32, imm32
  kOrRR,       // or r64, r64
  kAddRR,      // add r64, r64
  kAddRI,      // add r64, imm32 (sign-extended)
  kSubRI,      // sub r64, imm32
  kDec32,      // dec r32
  kTestRR32, kTestRR64,
  kMovGpXmm,   // movd/movq xmm, r (width 4/8)
  kMovXmmGp,   // movd/movq r, xmm
  kCvtSi2Sd,   // cvtsi2sd xmm, r64
  kCvtTSd2Si,  // cvttsd2si r64, xmm
  kCvtSd2Ss, kCvtSs2Sd, kAddSd,  // xmm, xmm
  kJmp,        // jmp rel32
  kJcc,        // jcc rel32
  kCallReg,    // call reg
};

const char* to_string(Opc o);

/// One decoded instruction. Operand roles by kind:
///  * kLoad/kLea:  reg = destination, base/disp = memory operand
///  * kStore:      reg = source,      base/disp = memory operand
///  * two-register ALU (kMovRR/kOrRR/kAddRR/kXorRR32/kTest*):
///                 base = destination (modrm rm), reg = source (modrm reg)
///  * single-register ops: reg
///  * xmm<->gp moves and converts: reg = the gp side, xmm = the xmm side
struct Inst {
  std::size_t off = 0;   // byte offset in the buffer
  std::uint8_t len = 0;  // encoded length
  Opc opc = Opc::kRet;
  Reg reg = Reg::rax;
  Reg base = Reg::rax;
  bool is_mem = false;        // memory form (kLoad/kStore/kLea)
  std::int32_t disp = 0;
  std::uint8_t width = 0;     // access / operation width in bytes
  bool sign = false;          // sign-extending load
  std::uint64_t imm = 0;      // immediate operand
  std::uint8_t shift = 0;     // shift amount
  std::uint8_t xmm = 0;       // xmm register index (dst for xmm/xmm pairs)
  std::uint8_t xmm2 = 0;      // second xmm (src of xmm/xmm pairs)
  std::uint8_t cc = 0;        // jcc condition (low nibble of 0F 8x)
  std::int32_t rel = 0;       // rel32 of kJmp/kJcc

  /// Branch target as a buffer offset (kJmp/kJcc only).
  std::int64_t target() const {
    return static_cast<std::int64_t>(off) + len + rel;
  }
};

/// Condition-code values the validator cares about.
inline constexpr std::uint8_t kCcNe = 0x5;

struct Decoded {
  std::vector<Inst> insts;   // in ascending offset order
  bool ok = false;
  std::size_t fail_off = 0;  // first undecodable offset when !ok
  std::string error;         // what went wrong there

  /// Instruction index starting at byte offset `off`, or SIZE_MAX. A binary
  /// search: `insts` is sorted by offset by construction.
  std::size_t index_at(std::size_t off) const;
};

/// Decode the whole buffer front to back. Stops at the first byte sequence
/// outside the emitter vocabulary (ok = false, fail_off/error say where and
/// why).
Decoded decode(std::span<const std::uint8_t> code);

/// decode() into `out`, reusing its capacity: once `out` has seen a buffer
/// of this size, decoding an accepted buffer allocates nothing.
void decode_into(std::span<const std::uint8_t> code, Decoded& out);

/// Render one instruction as text (intel-ish, for pbio_dump --disasm and
/// rejection diagnostics).
std::string to_string(const Inst& inst);

}  // namespace pbio::verify::tval
