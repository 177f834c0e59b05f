// DCG conversion engine: directed cases plus the JIT-vs-interpreter
// cross-check property (both engines must produce byte-identical records).
#include "vcode/jit_convert.h"

#include <gtest/gtest.h>

#include <random>

#include "arch/layout.h"
#include "value/materialize.h"
#include "value/random.h"
#include "value/read.h"

namespace pbio::vcode {
namespace {

using arch::CType;
using arch::StructSpec;
using convert::CompileOptions;
using convert::ExecInput;
using convert::Plan;
using convert::VarMode;
using value::Record;
using value::Value;

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

Record mixed_record() {
  Record r;
  r.set("a", Value(-123456));
  r.set("x", Value(3.5));
  r.set("l", Value(987654));
  r.set("f", Value(Value::List{Value(1.5), Value(-2.0), Value(0.25),
                               Value(8.0), Value(-16.5)}));
  r.set("t", Value("hello"));
  r.set("u", Value(std::uint64_t{40000}));
  return r;
}

TEST(JitConvert, JitIsAvailableOnThisHost) {
  const auto f = arch::layout_format(mixed_spec(), arch::abi_x86_64());
  CompiledConvert cc(convert::compile_plan(f, f));
  EXPECT_TRUE(cc.jitted());
  EXPECT_GT(cc.code_size(), 0u);
}

TEST(JitConvert, HeterogeneousConversionMatchesValues) {
  const auto src = arch::layout_format(mixed_spec(), arch::abi_sparc_v8());
  const auto dst = arch::layout_format(mixed_spec(), arch::abi_x86_64());
  const auto wire = value::materialize(src, mixed_record());
  CompiledConvert cc(convert::compile_plan(src, dst));
  ASSERT_TRUE(cc.jitted());

  std::vector<std::uint8_t> out(dst.fixed_size, 0);
  ExecInput in;
  in.src = wire.data();
  in.src_size = wire.size();
  in.dst = out.data();
  in.dst_size = out.size();
  const Status st = cc.run(in);
  ASSERT_TRUE(st.is_ok()) << st.to_string();
  auto back = value::read_record(dst, out);
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(value::equivalent(back.value(), mixed_record()))
      << Value(back.value()).to_string();
}

TEST(JitConvert, TruncatedInputRejectedBeforeExecution) {
  const auto f = arch::layout_format(mixed_spec(), arch::abi_x86_64());
  CompiledConvert cc(convert::compile_plan(f, f));
  std::vector<std::uint8_t> out(f.fixed_size, 0);
  ExecInput in;
  in.src = out.data();
  in.src_size = 2;
  in.dst = out.data();
  in.dst_size = out.size();
  EXPECT_EQ(cc.run(in).code(), Errc::kTruncated);
}

TEST(JitConvert, VariableOpsDelegateWithErrorPropagation) {
  StructSpec s;
  s.name = "msg";
  s.fields = {{.name = "id", .type = CType::kInt},
              {.name = "text", .type = CType::kString}};
  const auto f = arch::layout_format(s, arch::abi_x86_64());
  Record r;
  r.set("id", Value(1));
  r.set("text", Value("jit-string"));
  auto wire = value::materialize(f, r);
  CompiledConvert cc(convert::compile_plan(f, f));
  ASSERT_TRUE(cc.jitted());

  struct Msg {
    int id;
    char* text;
  };
  Msg out{};
  Arena arena;
  ExecInput in;
  in.src = wire.data();
  in.src_size = wire.size();
  in.dst = reinterpret_cast<std::uint8_t*>(&out);
  in.dst_size = sizeof(out);
  in.mode = VarMode::kPointers;
  in.arena = &arena;
  ASSERT_TRUE(cc.run(in).is_ok());
  EXPECT_STREQ(out.text, "jit-string");

  // Now corrupt the string offset: the generated code must propagate the
  // helper's failure status.
  store_uint(wire.data() + f.find_field("text")->offset, 1u << 20, 8,
             ByteOrder::kLittle);
  const Status st = cc.run(in);
  EXPECT_EQ(st.code(), Errc::kMalformed);
  EXPECT_FALSE(st.message().empty());
}

/// Cross-check: run the interpreter and the JIT on identical inputs and
/// require byte-identical destination records (including variable data).
void cross_check(const StructSpec& spec, const arch::Abi& src_abi,
                 const arch::Abi& dst_abi, const Record& rec,
                 const std::string& context) {
  const auto src = arch::layout_format(spec, src_abi);
  const auto dst = arch::layout_format(spec, dst_abi);
  const auto wire = value::materialize(src, rec);
  Plan plan = convert::compile_plan(src, dst);
  CompiledConvert cc(plan);
  ASSERT_TRUE(cc.jitted());

  std::vector<std::uint8_t> out_interp(dst.fixed_size, 0);
  std::vector<std::uint8_t> out_jit(dst.fixed_size, 0);
  ByteBuffer var_interp, var_jit;

  ExecInput a;
  a.src = wire.data();
  a.src_size = wire.size();
  a.dst = out_interp.data();
  a.dst_size = out_interp.size();
  a.mode = VarMode::kOffsets;
  a.dst_var = &var_interp;
  ASSERT_TRUE(convert::run_plan(plan, a).is_ok()) << context;

  ExecInput b = a;
  b.dst = out_jit.data();
  b.dst_size = out_jit.size();
  b.dst_var = &var_jit;
  ASSERT_TRUE(cc.run(b).is_ok()) << context;

  EXPECT_EQ(out_interp, out_jit) << context << ": fixed parts differ";
  EXPECT_TRUE(var_interp == var_jit) << context << ": variable data differs";
}

class JitPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(JitPropertyTest, JitMatchesInterpreterBitForBit) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 31337 + 5);
  const StructSpec spec = value::random_spec(rng);
  const Record rec = value::random_record(spec, rng);
  for (const auto* src : arch::all_abis()) {
    for (const auto* dst : arch::all_abis()) {
      cross_check(spec, *src, *dst, rec,
                  src->name + "->" + dst->name + " seed " +
                      std::to_string(GetParam()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JitPropertyTest, ::testing::Range(0, 20));

TEST(JitConvert, MismatchedFormatsCrossCheck) {
  // Sender and receiver disagree on field order and one field each way.
  std::mt19937_64 rng(4242);
  for (int iter = 0; iter < 10; ++iter) {
    value::RandomSpecOptions opts;
    opts.allow_substructs = false;
    StructSpec send_spec = value::random_spec(rng, opts);
    StructSpec recv_spec = send_spec;
    std::shuffle(recv_spec.fields.begin(), recv_spec.fields.end(), rng);
    send_spec.fields.push_back({.name = "added", .type = CType::kInt});
    const Record rec = value::random_record(send_spec, rng);

    const auto src = arch::layout_format(send_spec, arch::abi_sparc_v9());
    const auto dst = arch::layout_format(recv_spec, arch::abi_x86_64());
    const auto wire = value::materialize(src, rec);
    Plan plan = convert::compile_plan(src, dst);
    CompiledConvert cc(plan);

    std::vector<std::uint8_t> oi(dst.fixed_size, 0), oj(dst.fixed_size, 0);
    ByteBuffer vi, vj;
    ExecInput a;
    a.src = wire.data();
    a.src_size = wire.size();
    a.dst = oi.data();
    a.dst_size = oi.size();
    a.mode = VarMode::kOffsets;
    a.dst_var = &vi;
    ASSERT_TRUE(convert::run_plan(plan, a).is_ok());
    ExecInput b = a;
    b.dst = oj.data();
    b.dst_size = oj.size();
    b.dst_var = &vj;
    ASSERT_TRUE(cc.run(b).is_ok());
    EXPECT_EQ(oi, oj) << "iter " << iter;
  }
}

TEST(JitConvert, SubLoopCodePath) {
  // Struct array with > kFlattenLimit elements: the JIT emits a counted
  // loop over the element conversion (rbx/rbp cursor registers).
  StructSpec point;
  point.name = "pt";
  point.fields = {{.name = "x", .type = CType::kDouble},
                  {.name = "y", .type = CType::kFloat},
                  {.name = "id", .type = CType::kShort}};
  StructSpec top;
  top.name = "cloud";
  top.fields = {{.name = "n", .type = CType::kInt},
                {.name = "pts", .array_elems = 100, .subformat = "pt"}};
  top.subs = {point};

  std::mt19937_64 rng(8);
  const value::Record rec = [&] {
    value::Record r;
    r.set("n", Value(100));
    Value::List pts;
    for (int i = 0; i < 100; ++i) {
      value::Record p;
      p.set("x", Value(i * 1.5));
      p.set("y", Value(static_cast<double>(static_cast<float>(i) / 4.f)));
      p.set("id", Value(i - 50));
      pts.push_back(Value(p));
    }
    r.set("pts", Value(std::move(pts)));
    return r;
  }();

  for (const auto* src_abi : arch::all_abis()) {
    const auto src = arch::layout_format(top, *src_abi);
    const auto dst = arch::layout_format(top, arch::abi_x86_64());
    const auto wire = value::materialize(src, rec);
    Plan plan = convert::compile_plan(src, dst);
    CompiledConvert cc(plan);
    ASSERT_TRUE(cc.jitted());
    std::vector<std::uint8_t> out(dst.fixed_size, 0);
    ExecInput in;
    in.src = wire.data();
    in.src_size = wire.size();
    in.dst = out.data();
    in.dst_size = out.size();
    ASSERT_TRUE(cc.run(in).is_ok()) << src_abi->name;
    auto back = value::read_record(dst, out);
    ASSERT_TRUE(back.is_ok()) << src_abi->name;
    EXPECT_TRUE(value::equivalent(back.value(), rec)) << src_abi->name;
  }
}

TEST(JitConvert, NestedLoopInsideSubLoop) {
  // A long array field *inside* the struct element forces the JIT's
  // secondary loop register set (r8/r9/rdi) nested within the primary
  // subloop (rbx/rbp/r15) — the deepest codegen path.
  StructSpec block;
  block.name = "blk";
  block.fields = {{.name = "vals", .type = CType::kDouble, .array_elems = 16},
                  {.name = "tag", .type = CType::kInt}};
  StructSpec top;
  top.name = "grid";
  top.fields = {{.name = "blocks", .array_elems = 10, .subformat = "blk"}};
  top.subs = {block};

  value::Record rec;
  Value::List blocks;
  for (int b = 0; b < 10; ++b) {
    value::Record blk;
    Value::List vals;
    for (int v = 0; v < 16; ++v) {
      vals.push_back(Value(b * 100.0 + v * 0.25));
    }
    blk.set("vals", Value(std::move(vals)));
    blk.set("tag", Value(b * 7));
    blocks.push_back(Value(blk));
  }
  rec.set("blocks", Value(std::move(blocks)));

  const auto src = arch::layout_format(top, arch::abi_sparc_v9());
  const auto dst = arch::layout_format(top, arch::abi_x86_64());
  const auto wire = value::materialize(src, rec);
  Plan plan = convert::compile_plan(src, dst);
  // Confirm we actually built the shape under test.
  ASSERT_EQ(plan.ops.size(), 1u);
  ASSERT_EQ(plan.ops[0].code, convert::OpCode::kSubLoop);
  bool has_long_inner_array = false;
  for (const auto& sub : plan.ops[0].sub) {
    if (sub.count > 4) has_long_inner_array = true;
  }
  ASSERT_TRUE(has_long_inner_array);

  CompiledConvert cc(plan);
  ASSERT_TRUE(cc.jitted());
  std::vector<std::uint8_t> out_jit(dst.fixed_size, 0);
  std::vector<std::uint8_t> out_interp(dst.fixed_size, 0);
  ExecInput in;
  in.src = wire.data();
  in.src_size = wire.size();
  in.dst = out_jit.data();
  in.dst_size = out_jit.size();
  ASSERT_TRUE(cc.run(in).is_ok());
  in.dst = out_interp.data();
  ASSERT_TRUE(convert::run_plan(plan, in).is_ok());
  EXPECT_EQ(out_jit, out_interp);
  auto back = value::read_record(dst, out_jit);
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(value::equivalent(back.value(), rec));
}

TEST(JitConvert, LargeCopyUsesMemcpyCall) {
  // Copies beyond the inline limit go through an emitted memcpy call.
  StructSpec s;
  s.name = "big";
  s.fields = {{.name = "blob", .type = CType::kChar, .array_elems = 4096},
              {.name = "tail", .type = CType::kInt}};
  const auto f = arch::layout_format(s, arch::abi_x86_64());
  value::Record rec;
  rec.set("blob", Value(std::string(4000, 'x')));
  rec.set("tail", Value(11));
  const auto wire = value::materialize(f, rec);
  CompiledConvert cc(convert::compile_plan(f, f));
  std::vector<std::uint8_t> out(f.fixed_size, 0);
  ExecInput in;
  in.src = wire.data();
  in.src_size = wire.size();
  in.dst = out.data();
  in.dst_size = out.size();
  ASSERT_TRUE(cc.run(in).is_ok());
  EXPECT_EQ(out, wire);
}

TEST(JitConvert, ZeroFillLargeMissingField) {
  // Large missing field exercises the emitted memset call.
  StructSpec send_spec;
  send_spec.name = "r";
  send_spec.fields = {{.name = "a", .type = CType::kInt}};
  StructSpec recv_spec = send_spec;
  recv_spec.fields.push_back(
      {.name = "big", .type = CType::kDouble, .array_elems = 512});
  const auto src = arch::layout_format(send_spec, arch::abi_x86_64());
  const auto dst = arch::layout_format(recv_spec, arch::abi_x86_64());
  value::Record rec;
  rec.set("a", Value(5));
  const auto wire = value::materialize(src, rec);
  CompiledConvert cc(convert::compile_plan(src, dst));
  std::vector<std::uint8_t> out(dst.fixed_size, 0xFF);
  ExecInput in;
  in.src = wire.data();
  in.src_size = wire.size();
  in.dst = out.data();
  in.dst_size = out.size();
  ASSERT_TRUE(cc.run(in).is_ok());
  auto back = value::read_record(dst, out);
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().find("a")->as_int(), 5);
  for (const auto& v : back.value().find("big")->as_list()) {
    EXPECT_EQ(v.as_double(), 0.0);
  }
}

TEST(JitConvert, PointerModeMatchesInterpreter) {
  // Cross-check the kPointers decode path (real host pointers into the
  // receive buffer / arena) between engines: the pointed-to *values* must
  // agree even though the pointers themselves may differ.
  struct Event {
    unsigned n;
    char* name;
    double* vals;
    int tail;
  };
  StructSpec spec;
  spec.name = "event";
  spec.fields = {
      {.name = "n", .type = CType::kUInt},
      {.name = "name", .type = CType::kString},
      {.name = "vals", .type = CType::kDouble, .var_dim_field = "n"},
      {.name = "tail", .type = CType::kInt},
  };
  std::mt19937_64 rng(77);
  for (const auto* src_abi : arch::all_abis()) {
    const auto src = arch::layout_format(spec, *src_abi);
    const auto dst = arch::layout_format(spec, arch::abi_x86_64());
    Record rec;
    const std::uint64_t n = rng() % 6;
    rec.set("n", Value(n));
    rec.set("name", Value("sensor-" + src_abi->name));
    Value::List vals;
    for (std::uint64_t i = 0; i < n; ++i) {
      vals.push_back(Value(static_cast<double>(i) * 1.25));
    }
    rec.set("vals", Value(std::move(vals)));
    rec.set("tail", Value(-9));
    const auto wire = value::materialize(src, rec);
    Plan plan = convert::compile_plan(src, dst);
    CompiledConvert cc(plan);

    auto decode = [&](bool use_jit, Event* out, Arena* arena) {
      ExecInput in;
      in.src = wire.data();
      in.src_size = wire.size();
      in.dst = reinterpret_cast<std::uint8_t*>(out);
      in.dst_size = sizeof(Event);
      in.mode = VarMode::kPointers;
      in.arena = arena;
      return use_jit ? cc.run(in) : convert::run_plan(plan, in);
    };
    Event a{}, b{};
    Arena arena_a, arena_b;
    ASSERT_TRUE(decode(true, &a, &arena_a).is_ok()) << src_abi->name;
    ASSERT_TRUE(decode(false, &b, &arena_b).is_ok()) << src_abi->name;
    EXPECT_EQ(a.n, b.n) << src_abi->name;
    EXPECT_EQ(a.tail, b.tail);
    EXPECT_STREQ(a.name, b.name);
    for (std::uint64_t i = 0; i < a.n; ++i) {
      EXPECT_EQ(a.vals[i], b.vals[i]) << src_abi->name << " " << i;
    }
  }
}

TEST(JitConvert, GeneratedCodeIsCompact) {
  // Sanity bound on code size: the disp8/disp32 selection should keep a
  // typical conversion of the 1KB FEM record in the low hundreds of bytes.
  const auto src = arch::layout_format(mixed_spec(), arch::abi_x86());
  const auto dst = arch::layout_format(mixed_spec(), arch::abi_sparc_v8());
  CompiledConvert cc(convert::compile_plan(src, dst));
  ASSERT_TRUE(cc.jitted());
  EXPECT_LT(cc.code_size(), 1024u);
  EXPECT_GT(cc.code_size(), 32u);
}

TEST(JitConvert, UnoptimizedPlansAlsoJit) {
  CompileOptions opts;
  opts.optimize = false;
  const auto src = arch::layout_format(mixed_spec(), arch::abi_sparc_v8());
  const auto dst = arch::layout_format(mixed_spec(), arch::abi_x86_64());
  const auto wire = value::materialize(src, mixed_record());
  CompiledConvert cc(convert::compile_plan(src, dst, opts));
  std::vector<std::uint8_t> out(dst.fixed_size, 0);
  ExecInput in;
  in.src = wire.data();
  in.src_size = wire.size();
  in.dst = out.data();
  in.dst_size = out.size();
  ASSERT_TRUE(cc.run(in).is_ok());
  auto back = value::read_record(dst, out);
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(value::equivalent(back.value(), mixed_record()));
}

}  // namespace
}  // namespace pbio::vcode
