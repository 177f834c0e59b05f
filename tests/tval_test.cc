// Translation validation: the tval gate must accept every legitimately
// compiled plan (no false rejects — in release a reject silently falls back
// to the interpreter, so these tests assert the report directly) and must
// reject a corpus of adversarially mutated code buffers (no false accepts).
#include "verify/tval/tval.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <random>
#include <thread>

#include "arch/layout.h"
#include "value/random.h"
#include "vcode/execmem.h"
#include "vcode/jit_convert.h"
#include "verify/tval/decode.h"

namespace pbio {
namespace {

namespace tval = verify::tval;

using arch::CType;
using arch::StructSpec;
using convert::Plan;
using vcode::CompiledConvert;

StructSpec mixed_spec() {
  StructSpec s;
  s.name = "mixed";
  s.fields = {
      {.name = "a", .type = CType::kInt},
      {.name = "x", .type = CType::kDouble},
      {.name = "l", .type = CType::kLong},
      {.name = "f", .type = CType::kFloat, .array_elems = 5},
      {.name = "t", .type = CType::kChar, .array_elems = 6},
      {.name = "u", .type = CType::kUShort},
  };
  return s;
}

void expect_accepted(const Plan& plan, const std::string& context) {
  CompiledConvert cc(plan);
  ASSERT_TRUE(cc.jitted()) << context;
  EXPECT_TRUE(cc.tval_report().ok)
      << context << ": " << cc.tval_report().to_string();
  EXPECT_EQ(cc.tval_report().fault, tval::Fault::kNone) << context;
}

void expect_accepted(const StructSpec& spec, const arch::Abi& src_abi,
                     const arch::Abi& dst_abi, const std::string& context) {
  expect_accepted(convert::compile_plan(arch::layout_format(spec, src_abi),
                                        arch::layout_format(spec, dst_abi)),
                  context);
}

#define REQUIRE_JIT()                                      \
  do {                                                     \
    if (!vcode::jit_supported()) {                         \
      GTEST_SKIP() << "no JIT on this host";               \
    }                                                      \
  } while (0)

// ---------------------------------------------------------------------------
// Acceptance: tval must accept 100% of legitimately compiled plans.
// ---------------------------------------------------------------------------

TEST(TvalAccept, HeterogeneousAllAbiPairs) {
  REQUIRE_JIT();
  for (const auto* src : arch::all_abis()) {
    for (const auto* dst : arch::all_abis()) {
      expect_accepted(mixed_spec(), *src, *dst, src->name + "->" + dst->name);
    }
  }
}

TEST(TvalAccept, HomogeneousIdentity) {
  REQUIRE_JIT();
  expect_accepted(mixed_spec(), arch::abi_x86_64(), arch::abi_x86_64(),
                  "identity");
}

TEST(TvalAccept, TypeExtension) {
  REQUIRE_JIT();
  // Sender sends narrower numeric types than the receiver expects: the
  // paper's type-extension story, compiled to kCvtNum ops (including the
  // branchy unsigned->double path from a big-endian sender).
  StructSpec send_spec;
  send_spec.name = "v1";
  send_spec.fields = {{.name = "i", .type = CType::kInt},
                      {.name = "s", .type = CType::kShort},
                      {.name = "u", .type = CType::kULongLong},
                      {.name = "f", .type = CType::kFloat}};
  StructSpec recv_spec;
  recv_spec.name = "v1";
  recv_spec.fields = {{.name = "i", .type = CType::kLongLong},
                      {.name = "s", .type = CType::kDouble},
                      {.name = "u", .type = CType::kDouble},
                      {.name = "f", .type = CType::kDouble}};
  for (const auto* src : arch::all_abis()) {
    const auto sf = arch::layout_format(send_spec, *src);
    const auto df = arch::layout_format(recv_spec, arch::abi_x86_64());
    expect_accepted(convert::compile_plan(sf, df), "type-ext from " + src->name);
  }
}

TEST(TvalAccept, VariableLength) {
  REQUIRE_JIT();
  StructSpec s;
  s.name = "msg";
  s.fields = {{.name = "n", .type = CType::kUInt},
              {.name = "name", .type = CType::kString},
              {.name = "vals", .type = CType::kDouble, .var_dim_field = "n"},
              {.name = "tail", .type = CType::kInt}};
  for (const auto* src : arch::all_abis()) {
    expect_accepted(s, *src, arch::abi_x86_64(), "var from " + src->name);
  }
}

TEST(TvalAccept, SubLoopAndNestedLoop) {
  REQUIRE_JIT();
  StructSpec block;
  block.name = "blk";
  block.fields = {{.name = "vals", .type = CType::kDouble, .array_elems = 16},
                  {.name = "tag", .type = CType::kInt}};
  StructSpec top;
  top.name = "grid";
  top.fields = {{.name = "blocks", .array_elems = 10, .subformat = "blk"}};
  top.subs = {block};
  for (const auto* src : arch::all_abis()) {
    expect_accepted(top, *src, arch::abi_x86_64(), "grid from " + src->name);
  }
}

TEST(TvalAccept, KernelCallPath) {
  REQUIRE_JIT();
  // Long top-level array of swapped doubles: compiled to a batch-kernel call.
  StructSpec s;
  s.name = "vec";
  s.fields = {{.name = "vals", .type = CType::kDouble, .array_elems = 64}};
  expect_accepted(s, arch::abi_sparc_v9(), arch::abi_x86_64(), "swap kernel");
}

TEST(TvalAccept, MemmoveAndMemsetPaths) {
  REQUIRE_JIT();
  StructSpec send_spec;
  send_spec.name = "big";
  send_spec.fields = {{.name = "blob", .type = CType::kChar,
                       .array_elems = 4096}};
  StructSpec recv_spec = send_spec;
  recv_spec.fields.push_back(
      {.name = "extra", .type = CType::kDouble, .array_elems = 512});
  expect_accepted(convert::compile_plan(
                      arch::layout_format(send_spec, arch::abi_x86_64()),
                      arch::layout_format(recv_spec, arch::abi_x86_64())),
                  "memmove+memset");
}

TEST(TvalAccept, UnoptimizedPlans) {
  REQUIRE_JIT();
  convert::CompileOptions opts;
  opts.optimize = false;
  const auto sf = arch::layout_format(mixed_spec(), arch::abi_sparc_v8());
  const auto df = arch::layout_format(mixed_spec(), arch::abi_x86_64());
  expect_accepted(convert::compile_plan(sf, df, opts), "unoptimized");
}

TEST(TvalAccept, RandomCorpus) {
  REQUIRE_JIT();
  for (int seed = 0; seed < 10; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 7919 + 3);
    const StructSpec spec = value::random_spec(rng);
    for (const auto* src : arch::all_abis()) {
      for (const auto* dst : arch::all_abis()) {
        expect_accepted(spec, *src, *dst,
                        "seed " + std::to_string(seed) + " " + src->name +
                            "->" + dst->name);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Mutation corpus: every adversarial byte-level mutation must be rejected.
// ---------------------------------------------------------------------------

struct Fixture {
  Plan plan;
  std::unique_ptr<CompiledConvert> cc;
  std::vector<std::uint8_t> bytes;
  tval::Decoded dec;

  tval::Report validate() const {
    return tval::validate(bytes, plan, vcode::make_tval_options(plan));
  }
};

Fixture make_fixture(Plan plan) {
  Fixture f;
  f.plan = std::move(plan);
  f.cc = std::make_unique<CompiledConvert>(f.plan);
  EXPECT_TRUE(f.cc->jitted());
  EXPECT_TRUE(f.cc->tval_report().ok) << f.cc->tval_report().to_string();
  f.bytes.assign(f.cc->code().begin(), f.cc->code().end());
  f.dec = tval::decode(f.bytes);
  EXPECT_TRUE(f.dec.ok) << f.dec.error;
  return f;
}

Fixture make_fixture(const StructSpec& spec, const arch::Abi& src_abi,
                     const arch::Abi& dst_abi) {
  return make_fixture(
      convert::compile_plan(arch::layout_format(spec, src_abi),
                            arch::layout_format(spec, dst_abi)));
}

Fixture het_fixture() {
  return make_fixture(mixed_spec(), arch::abi_sparc_v8(), arch::abi_x86_64());
}

Fixture loop_fixture() {
  StructSpec point;
  point.name = "pt";
  point.fields = {{.name = "x", .type = CType::kDouble},
                  {.name = "y", .type = CType::kFloat},
                  {.name = "id", .type = CType::kShort}};
  StructSpec top;
  top.name = "cloud";
  top.fields = {{.name = "pts", .array_elems = 100, .subformat = "pt"}};
  top.subs = {point};
  return make_fixture(top, arch::abi_sparc_v9(), arch::abi_x86_64());
}

Fixture memmove_fixture() {
  StructSpec s;
  s.name = "big";
  s.fields = {{.name = "blob", .type = CType::kChar, .array_elems = 4096},
              {.name = "tail", .type = CType::kInt}};
  return make_fixture(s, arch::abi_x86_64(), arch::abi_x86_64());
}

Fixture var_fixture() {
  StructSpec s;
  s.name = "msg";
  s.fields = {{.name = "id", .type = CType::kInt},
              {.name = "text", .type = CType::kString}};
  return make_fixture(s, arch::abi_x86_64(), arch::abi_x86_64());
}

/// Big-endian unsigned 64-bit into double: the branchy u64_to_f64 idiom, so
/// the body carries forward branches that join at a later label.
Fixture branchy_fixture() {
  StructSpec send_spec;
  send_spec.name = "u";
  send_spec.fields = {{.name = "u", .type = CType::kULongLong}};
  StructSpec recv_spec;
  recv_spec.name = "u";
  recv_spec.fields = {{.name = "u", .type = CType::kDouble}};
  return make_fixture(convert::compile_plan(
      arch::layout_format(send_spec, arch::abi_sparc_v9()),
      arch::layout_format(recv_spec, arch::abi_x86_64())));
}

Fixture kernel_fixture() {
  StructSpec s;
  s.name = "vec";
  s.fields = {{.name = "vals", .type = CType::kDouble, .array_elems = 64}};
  return make_fixture(s, arch::abi_sparc_v9(), arch::abi_x86_64());
}

/// Every fixture above, by name.
const std::pair<const char*, Fixture (*)()> kFixtures[] = {
    {"het", het_fixture},       {"loop", loop_fixture},
    {"memmove", memmove_fixture}, {"var", var_fixture},
    {"kernel", kernel_fixture}, {"branchy", branchy_fixture},
};

template <typename Pred>
std::size_t find_inst(const tval::Decoded& d, Pred p) {
  for (std::size_t i = 0; i < d.insts.size(); ++i) {
    if (p(d.insts[i])) return i;
  }
  return SIZE_MAX;
}

void put_u32(std::vector<std::uint8_t>& b, std::size_t pos, std::uint32_t v) {
  ASSERT_LE(pos + 4, b.size());
  b[pos] = static_cast<std::uint8_t>(v);
  b[pos + 1] = static_cast<std::uint8_t>(v >> 8);
  b[pos + 2] = static_cast<std::uint8_t>(v >> 16);
  b[pos + 3] = static_cast<std::uint8_t>(v >> 24);
}

#define EXPECT_REJECTED(f)                                        \
  do {                                                            \
    const tval::Report rep_ = (f).validate();                     \
    EXPECT_FALSE(rep_.ok) << "mutation was accepted";             \
    EXPECT_NE(rep_.fault, tval::Fault::kNone);                    \
  } while (0)

TEST(TvalMutation, TruncatedEpilogue) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  f.bytes.pop_back();  // drop the ret
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, TrailingBytesAfterRet) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  f.bytes.push_back(0xC3);
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, WrongFirstPush) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  ASSERT_EQ(f.bytes[0], 0x55);  // push rbp
  f.bytes[0] = 0x50;            // push rax
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kPrologue) << rep.to_string();
}

TEST(TvalMutation, WrongStackAdjustment) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kSubRI && in.reg == tval::Reg::rsp;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  put_u32(f.bytes, in.off + in.len - 4, 16);  // sub rsp, 16
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kPrologue) << rep.to_string();
}

TEST(TvalMutation, SwappedEpiloguePops) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  // pop rbx (0x5B) and pop rbp (0x5D) near the end: swap restore order.
  std::size_t pos_rbx = SIZE_MAX, pos_rbp = SIZE_MAX;
  for (const auto& in : f.dec.insts) {
    if (in.opc != tval::Opc::kPop) continue;
    if (in.reg == tval::Reg::rbx) pos_rbx = in.off;
    if (in.reg == tval::Reg::rbp) pos_rbp = in.off;
  }
  ASSERT_NE(pos_rbx, SIZE_MAX);
  ASSERT_NE(pos_rbp, SIZE_MAX);
  std::swap(f.bytes[pos_rbx], f.bytes[pos_rbp]);
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kEpilogue) << rep.to_string();
}

TEST(TvalMutation, MissingPop) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  // Erase the two bytes of `pop r15` (0x41 0x5F).
  std::size_t pos = SIZE_MAX;
  for (const auto& in : f.dec.insts) {
    if (in.opc == tval::Opc::kPop && in.reg == tval::Reg::r15) pos = in.off;
  }
  ASSERT_NE(pos, SIZE_MAX);
  f.bytes.erase(f.bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                f.bytes.begin() + static_cast<std::ptrdiff_t>(pos) + 2);
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, UnknownOpcodeInBody) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  // First instruction after the 10-instruction prologue.
  ASSERT_GT(f.dec.insts.size(), 10u);
  f.bytes[f.dec.insts[10].off] = 0x90;  // nop: outside the vocabulary
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kDecode) << rep.to_string();
}

TEST(TvalMutation, RetInBody) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  ASSERT_GT(f.dec.insts.size(), 10u);
  f.bytes[f.dec.insts[10].off] = 0xC3;
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, PushInBody) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  ASSERT_GT(f.dec.insts.size(), 10u);
  f.bytes[f.dec.insts[10].off] = 0x50;  // push rax
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, RexXBitSet) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  const std::size_t i = find_inst(f.dec, [&](const tval::Inst& in) {
    return in.opc == tval::Opc::kLoad && in.base == tval::Reg::r12 &&
           f.bytes[in.off] == 0x41;
  });
  ASSERT_NE(i, SIZE_MAX);
  f.bytes[f.dec.insts[i].off] |= 0x02;  // set REX.X
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kDecode) << rep.to_string();
}

TEST(TvalMutation, StoreDisplacementBelowRecord) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kStore && in.base == tval::Reg::r13 &&
           in.disp > 0 && in.disp <= 127;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  f.bytes[in.off + in.len - 1] = 0x80;  // disp8 = -128
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kBounds) << rep.to_string();
}

TEST(TvalMutation, LoadDisplacementPastRecord) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  ASSERT_LT(f.plan.src_fixed_size, 120u);
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kLoad && in.base == tval::Reg::r12 &&
           in.disp > 0 && in.disp <= 127;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  f.bytes[in.off + in.len - 1] = 0x7F;  // disp8 = 127
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kBounds) << rep.to_string();
}

TEST(TvalMutation, WidenedLoadExceedsFootprint) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  const std::size_t i = find_inst(f.dec, [&](const tval::Inst& in) {
    return in.opc == tval::Opc::kLoad && in.base == tval::Reg::r12 &&
           in.width == 4 && !in.sign && f.bytes[in.off] == 0x41;
  });
  ASSERT_NE(i, SIZE_MAX);
  f.bytes[f.dec.insts[i].off] |= 0x08;  // set REX.W: 4-byte load becomes 8
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kBounds) << rep.to_string();
}

TEST(TvalMutation, ClobberPinnedSrcBase) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  const std::size_t i = find_inst(f.dec, [&](const tval::Inst& in) {
    return in.opc == tval::Opc::kLoad && in.base == tval::Reg::r12 &&
           in.reg == tval::Reg::rax && f.bytes[in.off] == 0x41 &&
           f.bytes[in.off + 1] == 0x8B;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  f.bytes[in.off] |= 0x04;      // REX.R
  f.bytes[in.off + 2] |= 0x20;  // modrm reg 0 -> 4: destination becomes r12
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kConvention) << rep.to_string();
}

TEST(TvalMutation, NonCanonicalDisp32) {
  REQUIRE_JIT();
  Fixture f = het_fixture();
  const std::size_t i = find_inst(f.dec, [&](const tval::Inst& in) {
    return in.opc == tval::Opc::kStore && in.base == tval::Reg::r13 &&
           in.width == 4 && f.bytes[in.off] == 0x41 &&
           f.bytes[in.off + 1] == 0x89;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  // mod 01 -> 10: the disp8 plus the next instruction's bytes become a
  // garbage disp32 and the stream shifts under the decoder.
  f.bytes[in.off + 2] = static_cast<std::uint8_t>(
      (f.bytes[in.off + 2] & 0x3F) | 0x80);
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, LoopCountOffByOne) {
  REQUIRE_JIT();
  Fixture f = loop_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kMovRI32 && in.reg == tval::Reg::r15;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  put_u32(f.bytes, in.off + in.len - 4,
          static_cast<std::uint32_t>(in.imm) + 1);
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kLoop) << rep.to_string();
}

TEST(TvalMutation, LoopCountZero) {
  REQUIRE_JIT();
  Fixture f = loop_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kMovRI32 && in.reg == tval::Reg::r15;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  put_u32(f.bytes, in.off + in.len - 4, 0);
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kLoop) << rep.to_string();
}

TEST(TvalMutation, LoopStrideMismatch) {
  REQUIRE_JIT();
  Fixture f = loop_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kAddRI && in.reg == tval::Reg::rbx;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  put_u32(f.bytes, in.off + in.len - 4,
          static_cast<std::uint32_t>(in.imm) + 1);
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kLoop) << rep.to_string();
}

TEST(TvalMutation, BackedgeIntoLoopInterior) {
  REQUIRE_JIT();
  Fixture f = loop_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kJcc && in.rel < 0;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  put_u32(f.bytes, in.off + in.len - 4, static_cast<std::uint32_t>(in.rel + 1));
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, BackedgeConditionFlipped) {
  REQUIRE_JIT();
  Fixture f = loop_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kJcc && in.rel < 0;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  ASSERT_EQ(f.bytes[in.off + 1], 0x85);  // jne
  f.bytes[in.off + 1] = 0x84;            // je
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, LoopCursorRegisterSwapped) {
  REQUIRE_JIT();
  Fixture f = loop_fixture();
  // Preheader `lea rbx, [r12+off]` -> `lea rsi, ...`: breaks the register
  // convention the loop recognizer requires.
  const std::size_t i = find_inst(f.dec, [&](const tval::Inst& in) {
    return in.opc == tval::Opc::kLea && in.reg == tval::Reg::rbx &&
           in.base == tval::Reg::r12 && f.bytes[in.off] == 0x49;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  f.bytes[in.off + 2] = static_cast<std::uint8_t>(
      (f.bytes[in.off + 2] & ~0x38) | 0x30);  // modrm reg rbx -> rsi
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, StoreThroughSourceCursor) {
  REQUIRE_JIT();
  Fixture f = loop_fixture();
  // Store [rbp+disp] (dst cursor) retargeted to [rbx+disp] (src cursor):
  // a write into the wire record.
  const std::size_t i = find_inst(f.dec, [&](const tval::Inst& in) {
    return in.opc == tval::Opc::kStore && in.base == tval::Reg::rbp &&
           in.disp > 0 && in.width == 4 && f.bytes[in.off] == 0x89;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  f.bytes[in.off + 1] = static_cast<std::uint8_t>(
      (f.bytes[in.off + 1] & ~0x07) | 0x03);  // modrm rm rbp -> rbx
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kBounds) << rep.to_string();
}

TEST(TvalMutation, RetargetedCallAddress) {
  REQUIRE_JIT();
  Fixture f = memmove_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kMovRI64 && in.reg == tval::Reg::rax;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  f.bytes[in.off + in.len - 8] += 1;  // low byte of the imm64 target
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kCall) << rep.to_string();
}

TEST(TvalMutation, CallThroughWrongRegister) {
  REQUIRE_JIT();
  Fixture f = memmove_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kCallReg && in.reg == tval::Reg::rax;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  ASSERT_EQ(f.bytes[in.off + in.len - 1], 0xD0);  // call rax
  f.bytes[in.off + in.len - 1] = 0xD1;            // call rcx
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, MemmoveLengthInflated) {
  REQUIRE_JIT();
  Fixture f = memmove_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return (in.opc == tval::Opc::kMovRI32 || in.opc == tval::Opc::kMovRI64) &&
           in.reg == tval::Reg::rdx && in.imm > 64;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  put_u32(f.bytes, in.off + in.len - (in.opc == tval::Opc::kMovRI32 ? 4 : 8),
          static_cast<std::uint32_t>(in.imm) + 0x10000);
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kCall) << rep.to_string();
}

TEST(TvalMutation, KernelCountInflated) {
  REQUIRE_JIT();
  Fixture f = kernel_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kMovRI32 && in.reg == tval::Reg::rdx;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  put_u32(f.bytes, in.off + in.len - 4,
          static_cast<std::uint32_t>(in.imm) + 1);
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  // The inflated count makes the call's implied record read escape bounds.
  EXPECT_TRUE(rep.fault == tval::Fault::kCall ||
              rep.fault == tval::Fault::kBounds)
      << rep.to_string();
}

TEST(TvalMutation, VarOpIndexOutOfRange) {
  REQUIRE_JIT();
  Fixture f = var_fixture();
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kMovRI32 && in.reg == tval::Reg::rsi;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  put_u32(f.bytes, in.off + in.len - 4, 0x7FFF);
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kCall) << rep.to_string();
}

TEST(TvalMutation, VarOpIndexNamesFixedOp) {
  REQUIRE_JIT();
  Fixture f = var_fixture();
  // Find the fixed (non-variable) op index to smuggle in.
  std::size_t fixed_idx = SIZE_MAX;
  for (std::size_t k = 0; k < f.plan.ops.size(); ++k) {
    if (f.plan.ops[k].code != convert::OpCode::kString &&
        f.plan.ops[k].code != convert::OpCode::kVarArray) {
      fixed_idx = k;
      break;
    }
  }
  ASSERT_NE(fixed_idx, SIZE_MAX);
  const std::size_t i = find_inst(f.dec, [&](const tval::Inst& in) {
    return in.opc == tval::Opc::kMovRI32 && in.reg == tval::Reg::rsi &&
           in.imm != fixed_idx;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  put_u32(f.bytes, in.off + in.len - 4, static_cast<std::uint32_t>(fixed_idx));
  const tval::Report rep = f.validate();
  EXPECT_FALSE(rep.ok);
  EXPECT_EQ(rep.fault, tval::Fault::kCall) << rep.to_string();
}

TEST(TvalMutation, ErrorCheckRemoved) {
  REQUIRE_JIT();
  Fixture f = var_fixture();
  // `test eax, eax` before the jne-to-epilogue becomes `xor eax, eax`.
  const std::size_t i = find_inst(f.dec, [&](const tval::Inst& in) {
    return in.opc == tval::Opc::kTestRR32 && in.base == tval::Reg::rax &&
           in.reg == tval::Reg::rax && f.bytes[in.off] == 0x85;
  });
  ASSERT_NE(i, SIZE_MAX);
  f.bytes[f.dec.insts[i].off] = 0x31;
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, ReturnValueNotProvenZero) {
  REQUIRE_JIT();
  // The `xor eax, eax` of ret_ok becomes `test eax, eax`: eax is no longer
  // provably 0 on the jmp to the epilogue. (The het fixture, not the var
  // one: after a jne-to-epilogue fallthrough eax is already proven 0, so
  // there the same mutation is semantically harmless and is accepted.)
  Fixture f = het_fixture();
  std::size_t pos = SIZE_MAX;
  for (std::size_t k = 0; k + 1 < f.dec.insts.size(); ++k) {
    const auto& a = f.dec.insts[k];
    const auto& b = f.dec.insts[k + 1];
    if (a.opc == tval::Opc::kXorRR32 && a.base == tval::Reg::rax &&
        a.reg == tval::Reg::rax && b.opc == tval::Opc::kJmp &&
        f.bytes[a.off] == 0x31) {
      pos = a.off;
      break;
    }
  }
  ASSERT_NE(pos, SIZE_MAX);
  f.bytes[pos] = 0x85;
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, ForwardBranchIntoLoopBody) {
  REQUIRE_JIT();
  Fixture f = var_fixture();
  // Retarget the jne-to-epilogue to the next instruction + 1 byte: a branch
  // to a non-boundary offset.
  const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
    return in.opc == tval::Opc::kJcc && in.rel > 0;
  });
  ASSERT_NE(i, SIZE_MAX);
  const auto& in = f.dec.insts[i];
  put_u32(f.bytes, in.off + in.len - 4, static_cast<std::uint32_t>(in.rel - 1));
  EXPECT_REJECTED(f);
}

TEST(TvalMutation, EveryPrologueByteMatters) {
  REQUIRE_JIT();
  // Flip each byte of the prologue in turn; all must be rejected (the
  // prologue is an exact shape).
  Fixture f = het_fixture();
  const std::size_t prologue_end = f.dec.insts[10].off;
  for (std::size_t pos = 0; pos < prologue_end; ++pos) {
    Fixture g;
    g.plan = f.plan;
    g.bytes = f.bytes;
    g.bytes[pos] ^= 0xFF;
    const tval::Report rep =
        tval::validate(g.bytes, g.plan, vcode::make_tval_options(g.plan));
    EXPECT_FALSE(rep.ok) << "byte " << pos << " flip accepted";
  }
}

TEST(TvalMutation, RandomByteFlipFuzz) {
  REQUIRE_JIT();
  // Fuzz robustness: the validator must return a verdict (never crash or
  // hang) for arbitrary single-bit corruptions. A rare flip can be accepted
  // legitimately — e.g. a store displacement nudged to another offset still
  // inside the plan's write footprint is different-but-safe, and safety is
  // the property tval proves — but flips must overwhelmingly be rejected,
  // and opcode-level corruption always is.
  for (const auto& [name, make] : kFixtures) {
    const Fixture f = make();
    const auto opts = vcode::make_tval_options(f.plan);
    std::mt19937_64 rng(2024);
    int rejected = 0;
    const int kIters = 300;
    for (int iter = 0; iter < kIters; ++iter) {
      const std::size_t pos = rng() % f.bytes.size();
      const std::uint8_t flip = static_cast<std::uint8_t>(1u << (rng() % 8));
      std::vector<std::uint8_t> mutated = f.bytes;
      mutated[pos] ^= flip;
      if (!tval::validate(mutated, f.plan, opts).ok) ++rejected;
    }
    EXPECT_GT(rejected, kIters * 3 / 4)
        << name << ": only " << rejected << "/" << kIters
        << " corruptions rejected";
  }
}

TEST(TvalMutation, NopSledWithZeroedCallSlots) {
  REQUIRE_JIT();
  // Every byte a nop except the call-target immediates, which are zeroed:
  // the buffer keeps its length and its call slots but has no prologue,
  // epilogue or bounds logic left.
  std::size_t slots = 0;
  for (const auto& [name, make] : kFixtures) {
    Fixture f = make();
    std::fill(f.bytes.begin(), f.bytes.end(), 0x90);
    for (const tval::Inst& in : f.dec.insts) {
      if (in.opc != tval::Opc::kMovRI64 || in.reg != tval::Reg::rax) continue;
      const std::size_t imm = in.off + in.len - 8;  // the call target
      std::fill_n(f.bytes.begin() + static_cast<std::ptrdiff_t>(imm), 8, 0);
      ++slots;
    }
    const tval::Report rep = f.validate();
    EXPECT_FALSE(rep.ok) << name << ": nop sled accepted";
    EXPECT_NE(rep.fault, tval::Fault::kNone) << name;
  }
  EXPECT_GT(slots, 0u) << "no fixture carries a call slot";
}

TEST(TvalMutation, CursorWidenedThroughThreeLoops) {
  REQUIRE_JIT();
  // Hand-made code: a cursor copied out of a struct-array nest (two loop
  // dimensions) seeds a later top-level loop, which would widen it a third
  // time. The emitter nests at most two deep and never re-uses a cursor, so
  // the validator refuses to track a third dimension.
  StructSpec block;
  block.name = "blk";
  block.fields = {{.name = "vals", .type = CType::kDouble, .array_elems = 16},
                  {.name = "tag", .type = CType::kInt}};
  StructSpec top;
  top.name = "grid";
  top.fields = {{.name = "blocks", .array_elems = 10, .subformat = "blk"}};
  top.subs = {block};
  const Plan plan =
      convert::compile_plan(arch::layout_format(top, arch::abi_sparc_v9()),
                            arch::layout_format(top, arch::abi_x86_64()));
  ASSERT_EQ(plan.ops.size(), 1u);
  const convert::Op& outer = plan.ops[0];
  ASSERT_EQ(outer.code, convert::OpCode::kSubLoop);
  const auto inner = std::find_if(
      outer.sub.begin(), outer.sub.end(),
      [](const convert::Op& op) { return op.count > 4; });
  ASSERT_NE(inner, outer.sub.end());

  using vcode::Gp;
  const auto soff = static_cast<std::int32_t>(outer.src_off);
  const auto doff = static_cast<std::int32_t>(outer.dst_off);
  const auto ss = static_cast<std::int32_t>(outer.src_stride);
  const auto sd = static_cast<std::int32_t>(outer.dst_stride);
  auto build = [&](bool third_loop) {
    vcode::Builder b;
    b.prologue();
    b.counted_loop(outer.count, soff, doff, ss, sd, [&] {
      b.lea(Gp::r8, Gp::rbx, 0);
      b.lea(Gp::r9, Gp::rbp, 0);
      b.ld_imm32(Gp::rdi, inner->count);
      vcode::Label top_label;
      b.raw().bind(top_label);
      b.mov(Gp::rax, Gp::r8);  // the two-dimensional cursor escapes
      b.raw().add_ri(Gp::r8, inner->width_src);
      b.raw().add_ri(Gp::r9, inner->width_dst);
      b.raw().dec32(Gp::rdi);
      b.raw().jcc(vcode::Cond::ne, top_label);
    });
    if (third_loop) {
      b.lea(Gp::rbx, Gp::rax, 0);
      b.lea(Gp::rbp, Gp::r13, doff);
      b.ld_imm32(Gp::r15, outer.count);
      vcode::Label top_label;
      b.raw().bind(top_label);
      b.raw().add_ri(Gp::rbx, ss);
      b.raw().add_ri(Gp::rbp, sd);
      b.raw().dec32(Gp::r15);
      b.raw().jcc(vcode::Cond::ne, top_label);
    }
    b.ret_ok();
    b.finish();
    return b.code();
  };
  const auto opts = vcode::make_tval_options(plan);
  const tval::Report two = tval::validate(build(false), plan, opts);
  EXPECT_TRUE(two.ok) << two.to_string();
  const tval::Report three = tval::validate(build(true), plan, opts);
  EXPECT_FALSE(three.ok);
  EXPECT_EQ(three.fault, tval::Fault::kLoop) << three.to_string();
  EXPECT_EQ(three.message, "cursor widened through too many loops");
}

// ---------------------------------------------------------------------------
// Scratch reuse: validations share one per-thread scratch, so a rejection
// part-way through must leave nothing that changes the next verdict.
// ---------------------------------------------------------------------------

std::string verdict_on_fresh_thread(const Fixture& f,
                                    const std::vector<std::uint8_t>& bytes) {
  std::string out;
  std::thread([&] {
    out = tval::validate(bytes, f.plan, vcode::make_tval_options(f.plan))
              .to_string();
  }).join();
  return out;
}

/// `mutate` edits the fixture's bytes into one the validator rejects with
/// `fault` part-way through its walk.
void expect_reuse_is_stateless(
    const Fixture& f, tval::Fault fault,
    const std::function<void(const Fixture&, std::vector<std::uint8_t>&)>&
        mutate) {
  std::vector<std::uint8_t> bad = f.bytes;
  mutate(f, bad);
  if (::testing::Test::HasFatalFailure()) return;
  const auto opts = vcode::make_tval_options(f.plan);
  const tval::Report before = tval::validate(f.bytes, f.plan, opts);
  const tval::Report rejected = tval::validate(bad, f.plan, opts);
  const tval::Report after = tval::validate(f.bytes, f.plan, opts);
  EXPECT_TRUE(before.ok) << before.to_string();
  EXPECT_EQ(rejected.fault, fault) << rejected.to_string();
  EXPECT_EQ(before.to_string(), after.to_string());
  EXPECT_EQ(after.to_string(), verdict_on_fresh_thread(f, f.bytes));
  EXPECT_EQ(rejected.to_string(), verdict_on_fresh_thread(f, bad));
  // Stale state would reach the validation right after the rejection, and
  // only show where offsets differ: follow the rejection with every fixture.
  for (const auto& [name, make] : kFixtures) {
    const Fixture g = make();
    EXPECT_FALSE(tval::validate(bad, f.plan, opts).ok);
    EXPECT_EQ(g.validate().to_string(), verdict_on_fresh_thread(g, g.bytes))
        << "after the rejection: " << name;
  }
}

TEST(TvalScratch, RejectInsideLoopLeavesNoState) {
  REQUIRE_JIT();
  // A store in the struct loop's body retargeted to the source cursor:
  // rejected with the loop open.
  expect_reuse_is_stateless(
      loop_fixture(), tval::Fault::kBounds,
      [](const Fixture& f, std::vector<std::uint8_t>& b) {
        const std::size_t i = find_inst(f.dec, [&](const tval::Inst& in) {
          return in.opc == tval::Opc::kStore && in.base == tval::Reg::rbp &&
                 in.disp > 0 && in.width == 4 && b[in.off] == 0x89;
        });
        ASSERT_NE(i, SIZE_MAX);
        const auto& in = f.dec.insts[i];
        b[in.off + 1] = static_cast<std::uint8_t>((b[in.off + 1] & ~0x07) |
                                                  0x03);  // rbp -> rbx
      });
}

TEST(TvalScratch, RejectWithPendingBranchLeavesNoState) {
  REQUIRE_JIT();
  // `mov r10, src` on the big-value path becomes `mov r12, src`: rejected
  // after the forward jmp to the join label was registered, before it is
  // reached.
  expect_reuse_is_stateless(
      branchy_fixture(), tval::Fault::kConvention,
      [](const Fixture& f, std::vector<std::uint8_t>& b) {
        const std::size_t i = find_inst(f.dec, [](const tval::Inst& in) {
          return in.opc == tval::Opc::kMovRR && in.base == tval::Reg::r10;
        });
        ASSERT_NE(i, SIZE_MAX);
        const auto& in = f.dec.insts[i];
        b[in.off + 2] = static_cast<std::uint8_t>((b[in.off + 2] & ~0x07) |
                                                  0x04);  // r10 -> r12
      });
}

TEST(TvalScratch, RejectAtLastBranchLeavesNoState) {
  REQUIRE_JIT();
  // ret_ok's `xor eax, eax` becomes `test eax, eax`: rejected at the final
  // jmp to the epilogue, after the whole body was walked.
  expect_reuse_is_stateless(
      het_fixture(), tval::Fault::kFlow,
      [](const Fixture& f, std::vector<std::uint8_t>& b) {
        std::size_t pos = SIZE_MAX;
        for (std::size_t k = 0; k + 1 < f.dec.insts.size(); ++k) {
          const auto& a = f.dec.insts[k];
          if (a.opc == tval::Opc::kXorRR32 && a.base == tval::Reg::rax &&
              a.reg == tval::Reg::rax &&
              f.dec.insts[k + 1].opc == tval::Opc::kJmp && b[a.off] == 0x31) {
            pos = a.off;
          }
        }
        ASSERT_NE(pos, SIZE_MAX);
        b[pos] = 0x85;
      });
}

}  // namespace
}  // namespace pbio
