// The central property test: for random specs, random values, and every
// ordered pair of modelled ABIs, materialize -> convert -> read-back must be
// lossless. Also checks that disabling the optimizer never changes results
// and that field reordering / extension / truncation behave per the paper's
// name-matching rules. Through a Reader, the interpreter that runs a
// pair's first record and the code generated on its reuse must agree byte
// for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>

#include "arch/layout.h"
#include "convert/interp.h"
#include "convert/kernels/kernels.h"
#include "convert/plan.h"
#include "obs/obs.h"
#include "pbio/pbio.h"
#include "transport/loopback.h"
#include "value/materialize.h"
#include "value/random.h"
#include "value/read.h"
#include "vcode/execmem.h"
#include "vcode/jit_convert.h"

namespace pbio::convert {
namespace {

using arch::Abi;
using arch::StructSpec;
using value::Record;
using value::Value;

struct AbiPair {
  const Abi* src;
  const Abi* dst;
};

std::vector<AbiPair> all_pairs() {
  std::vector<AbiPair> pairs;
  for (const Abi* s : arch::all_abis()) {
    for (const Abi* d : arch::all_abis()) pairs.push_back({s, d});
  }
  return pairs;
}

/// Full pipeline under test, offsets mode (works for any destination ABI).
Result<Record> roundtrip(const StructSpec& spec, const Abi& src_abi,
                         const Abi& dst_abi, const Record& rec,
                         bool optimize) {
  const auto src = arch::layout_format(spec, src_abi);
  const auto dst = arch::layout_format(spec, dst_abi);
  const auto wire = value::materialize(src, rec);
  CompileOptions opts;
  opts.optimize = optimize;
  const Plan plan = compile_plan(src, dst, opts);

  std::vector<std::uint8_t> out(dst.fixed_size, 0xAB);
  ByteBuffer var;
  ExecInput in;
  in.src = wire.data();
  in.src_size = wire.size();
  in.dst = out.data();
  in.dst_size = out.size();
  in.mode = VarMode::kOffsets;
  in.dst_var = &var;
  Status st = run_plan(plan, in);
  if (!st.is_ok()) return st;
  out.insert(out.end(), var.data(), var.data() + var.size());
  return value::read_record(dst, out);
}

class ConvertPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ConvertPropertyTest, LosslessAcrossAllAbiPairs) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  const StructSpec spec = value::random_spec(rng);
  const Record rec = value::random_record(spec, rng);
  for (const auto& [src, dst] : all_pairs()) {
    auto got = roundtrip(spec, *src, *dst, rec, /*optimize=*/true);
    ASSERT_TRUE(got.is_ok()) << src->name << "->" << dst->name << ": "
                             << got.status().to_string();
    EXPECT_TRUE(value::equivalent(got.value(), rec))
        << src->name << "->" << dst->name << "\n want "
        << Value(rec).to_string() << "\n got "
        << Value(got.value()).to_string();
  }
}

TEST_P(ConvertPropertyTest, OptimizerNeverChangesResults) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 1);
  const StructSpec spec = value::random_spec(rng);
  const Record rec = value::random_record(spec, rng);
  // One representative heterogeneous pair plus the homogeneous one.
  const std::vector<AbiPair> pairs = {
      {&arch::abi_sparc_v8(), &arch::abi_x86_64()},
      {&arch::abi_x86_64(), &arch::abi_x86_64()},
      {&arch::abi_x86(), &arch::abi_sparc_v9()},
  };
  for (const auto& [src, dst] : pairs) {
    auto a = roundtrip(spec, *src, *dst, rec, true);
    auto b = roundtrip(spec, *src, *dst, rec, false);
    ASSERT_TRUE(a.is_ok());
    ASSERT_TRUE(b.is_ok());
    EXPECT_TRUE(value::equivalent(a.value(), b.value()))
        << src->name << "->" << dst->name;
  }
}

/// Records decoded by one engine: its decode span's sample count.
std::uint64_t decodes(const char* name) {
  const obs::Snapshot snap = obs::snapshot();
  const obs::HistogramSample* h = snap.find_histogram(name);
  return h == nullptr ? 0 : h->count;
}

TEST_P(ConvertPropertyTest, ReaderInterpretsThenGeneratesIdenticalBytes) {
  // Through a Reader, a pair's first record runs the interpreter and the
  // kTierUpUses-th runs generated code. Both must write the same bytes,
  // padding included, into a destination filled the same way.
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 6151 + 3);
  value::RandomSpecOptions opts;
  opts.allow_strings = false;  // pointer-mode decode: fixed layouts only
  opts.allow_var_arrays = false;
  const StructSpec spec = value::random_spec(rng, opts);
  const Record rec = value::random_record(spec, rng);
  for (const auto& [src_abi, dst_abi] : all_pairs()) {
    const std::string pair = src_abi->name + "->" + dst_abi->name;
    const auto src = arch::layout_format(spec, *src_abi);
    const auto dst = arch::layout_format(spec, *dst_abi);
    Context wctx;
    Context rctx;
    auto [tx, rx] = transport::make_loopback_pair();
    Writer writer(wctx, *tx);
    Reader reader(rctx, *rx);
    const auto wire = wctx.register_format(src);
    reader.expect(rctx.register_format(dst));
    const auto image = value::materialize(src, rec);
    std::vector<std::vector<std::uint8_t>> outs;
    for (std::uint32_t i = 0; i < kTierUpUses; ++i) {
      ASSERT_TRUE(writer.write_image(wire, image).is_ok()) << pair;
      auto m = reader.next();
      ASSERT_TRUE(m.is_ok()) << pair << ": " << m.status().to_string();
      const std::uint64_t interp0 = decodes("pbio.decode.interp");
      const std::uint64_t dcg0 = decodes("pbio.decode.dcg");
      std::vector<std::uint8_t> out(dst.fixed_size, 0xAB);
      ASSERT_TRUE(m.value().decode_into(out.data(), out.size()).is_ok())
          << pair;
      if (!m.value().zero_copy()) {
        const bool dcg = i + 1 >= kTierUpUses && vcode::jit_supported();
        EXPECT_EQ(decodes("pbio.decode.interp") - interp0, dcg ? 0u : 1u)
            << pair << " record " << i;
        EXPECT_EQ(decodes("pbio.decode.dcg") - dcg0, dcg ? 1u : 0u)
            << pair << " record " << i;
      }
      outs.push_back(std::move(out));
    }
    EXPECT_EQ(outs.front(), outs.back()) << pair;
    auto back = value::read_record(dst, outs.back());
    ASSERT_TRUE(back.is_ok()) << pair;
    EXPECT_TRUE(value::equivalent(back.value(), rec)) << pair;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConvertPropertyTest, ::testing::Range(0, 25));

TEST(ConvertExtension, ReorderedFieldsStillMatchByName) {
  std::mt19937_64 rng(99);
  for (int iter = 0; iter < 20; ++iter) {
    value::RandomSpecOptions opts;
    opts.allow_substructs = false;  // reorder at top level only
    StructSpec spec = value::random_spec(rng, opts);
    const Record rec = value::random_record(spec, rng);
    StructSpec shuffled = spec;
    std::shuffle(shuffled.fields.begin(), shuffled.fields.end(), rng);

    const auto src = arch::layout_format(spec, arch::abi_sparc_v9());
    const auto dst = arch::layout_format(shuffled, arch::abi_x86_64());
    const auto wire = value::materialize(src, rec);
    const Plan plan = compile_plan(src, dst);
    EXPECT_TRUE(plan.missing_wire_fields.empty());
    EXPECT_TRUE(plan.ignored_wire_fields.empty());

    std::vector<std::uint8_t> out(dst.fixed_size, 0);
    ByteBuffer var;
    ExecInput in;
    in.src = wire.data();
    in.src_size = wire.size();
    in.dst = out.data();
    in.dst_size = out.size();
    in.mode = VarMode::kOffsets;
    in.dst_var = &var;
    ASSERT_TRUE(run_plan(plan, in).is_ok());
    out.insert(out.end(), var.data(), var.data() + var.size());
    auto got = value::read_record(dst, out);
    ASSERT_TRUE(got.is_ok());
    EXPECT_TRUE(value::equivalent(got.value(), rec)) << "iter " << iter;
  }
}

TEST(ConvertExtension, ExtraWireFieldsIgnoredExpectedOnesIntact) {
  // Type extension (paper §4.4): sender adds fields the receiver doesn't
  // know. All receiver fields must still decode; extras are skipped.
  std::mt19937_64 rng(1234);
  for (int iter = 0; iter < 20; ++iter) {
    value::RandomSpecOptions opts;
    opts.allow_substructs = false;
    StructSpec recv_spec = value::random_spec(rng, opts);
    StructSpec send_spec = recv_spec;
    // Insert an unexpected field *first* — the paper's worst case.
    send_spec.fields.insert(send_spec.fields.begin(),
                            {.name = "surprise", .type = arch::CType::kDouble});
    Record rec = value::random_record(recv_spec, rng);
    Record sent = rec;
    sent.set("surprise", Value(123.5));

    const auto src = arch::layout_format(send_spec, arch::abi_x86_64());
    const auto dst = arch::layout_format(recv_spec, arch::abi_x86_64());
    const auto wire = value::materialize(src, sent);
    const Plan plan = compile_plan(src, dst);
    ASSERT_EQ(plan.ignored_wire_fields.size(), 1u);
    EXPECT_TRUE(plan.missing_wire_fields.empty());

    std::vector<std::uint8_t> out(dst.fixed_size, 0);
    ByteBuffer var;
    ExecInput in;
    in.src = wire.data();
    in.src_size = wire.size();
    in.dst = out.data();
    in.dst_size = out.size();
    in.mode = VarMode::kOffsets;
    in.dst_var = &var;
    ASSERT_TRUE(run_plan(plan, in).is_ok());
    out.insert(out.end(), var.data(), var.data() + var.size());
    auto got = value::read_record(dst, out);
    ASSERT_TRUE(got.is_ok());
    EXPECT_TRUE(value::equivalent(got.value(), rec)) << "iter " << iter;
  }
}

/// Targets of the batch-kernel calls in `cc`'s generated code, sorted. A
/// `call` macro is `mov rax, imm64; call rax`; memmove/memset targets are
/// block copies, not kernels.
std::vector<std::uint64_t> kernel_call_targets(const vcode::CompiledConvert& cc) {
  std::vector<std::uint64_t> targets;
  const auto code = cc.code();
  for (const vcode::MacroNote& note : cc.macro_notes()) {
    if (std::strcmp(note.macro, "call") != 0) continue;
    EXPECT_LE(note.off + 10, code.size());
    EXPECT_EQ(code[note.off], 0x48);      // REX.W
    EXPECT_EQ(code[note.off + 1], 0xB8);  // mov rax, imm64
    std::uint64_t target = 0;
    std::memcpy(&target, code.data() + note.off + 2, sizeof(target));
    if (target != reinterpret_cast<std::uint64_t>(&std::memmove) &&
        target != reinterpret_cast<std::uint64_t>(&std::memset)) {
      targets.push_back(target);
    }
  }
  std::sort(targets.begin(), targets.end());
  return targets;
}

/// Top-level array runs of `plan` that have a batch kernel and reach
/// kMinCount: each must become one kernel call in generated code.
std::size_t eligible_kernel_runs(const Plan& plan) {
  std::size_t n = 0;
  for (const Op& op : plan.ops) {
    if (op.count < kernels::kMinCount) continue;
    if (op.code == OpCode::kSwap &&
        kernels::resolve_swap_kernel(op.width_src).fn != nullptr) {
      ++n;
    }
    if (op.code == OpCode::kCvtNum &&
        kernels::resolve_cvt_kernel(
            kernels::cvt_key(op, plan.src_order, plan.dst_order))
                .fn != nullptr) {
      ++n;
    }
  }
  return n;
}

TEST(ConvertExtension, UnexpectedFieldKeepsKernelCallSites) {
  // Figure 6 by counts: an unexpected field (leading, middle or trailing)
  // must not cost the conversion a single kernel call. A leading or middle
  // field moves the runs after it down, which makes the plan in-place safe
  // with shifted runs; narrowing ABI pairs (8-byte long wire, 4-byte long
  // native) shift runs down without any extension. Neighbouring arrays
  // differ in element width so the optimizer merges no two of them, with or
  // without the extra field.
  StructSpec base;
  base.name = "runs";
  base.fields = {
      {.name = "s", .type = arch::CType::kShort, .array_elems = 17},
      {.name = "i", .type = arch::CType::kInt, .array_elems = 16},
      {.name = "d", .type = arch::CType::kDouble, .array_elems = 19},
      {.name = "us", .type = arch::CType::kUShort, .array_elems = 20},
      {.name = "f", .type = arch::CType::kFloat, .array_elems = 21},
      {.name = "ll", .type = arch::CType::kLongLong, .array_elems = 16},
      {.name = "c", .type = arch::CType::kChar, .array_elems = 5},
      {.name = "l", .type = arch::CType::kLong, .array_elems = 18},
  };
  const arch::SpecField extra{.name = "surprise",
                              .type = arch::CType::kDouble};
  std::size_t kernel_calls = 0;
  for (const AbiPair& pair : all_pairs()) {
    const auto dst = arch::layout_format(base, *pair.dst);
    const Plan base_plan =
        compile_plan(arch::layout_format(base, *pair.src), dst);
    const vcode::CompiledConvert base_cc(base_plan);
    ASSERT_TRUE(base_cc.jitted());
    const auto want = kernel_call_targets(base_cc);
    const std::string name = pair.src->name + "->" + pair.dst->name;
    EXPECT_EQ(want.size(), eligible_kernel_runs(base_plan)) << name;
    kernel_calls += want.size();
    for (const std::size_t at : {std::size_t{0}, base.fields.size() / 2,
                                 base.fields.size()}) {
      StructSpec ext = base;
      ext.fields.insert(ext.fields.begin() + static_cast<std::ptrdiff_t>(at),
                        extra);
      const Plan plan = compile_plan(arch::layout_format(ext, *pair.src), dst);
      ASSERT_EQ(plan.ignored_wire_fields.size(), 1u) << name;
      const vcode::CompiledConvert cc(plan);
      ASSERT_TRUE(cc.jitted());
      EXPECT_EQ(kernel_call_targets(cc), want)
          << name << " extra field at " << at
          << (plan.inplace_safe ? " (in-place safe)" : "");
    }
  }
  EXPECT_GT(kernel_calls, 0u);
}

TEST(ConvertExtension, MissingWireFieldsReadAsZero) {
  std::mt19937_64 rng(555);
  StructSpec send_spec;
  send_spec.name = "v1";
  send_spec.fields = {{.name = "a", .type = arch::CType::kInt}};
  StructSpec recv_spec = send_spec;
  recv_spec.fields.push_back({.name = "b", .type = arch::CType::kDouble});
  Record rec;
  rec.set("a", Value(17));

  const auto src = arch::layout_format(send_spec, arch::abi_sparc_v8());
  const auto dst = arch::layout_format(recv_spec, arch::abi_x86_64());
  const auto wire = value::materialize(src, rec);
  const Plan plan = compile_plan(src, dst);
  ASSERT_EQ(plan.missing_wire_fields.size(), 1u);

  std::vector<std::uint8_t> out(dst.fixed_size, 0xFF);  // dirty destination
  ExecInput in;
  in.src = wire.data();
  in.src_size = wire.size();
  in.dst = out.data();
  in.dst_size = out.size();
  ASSERT_TRUE(run_plan(plan, in).is_ok());
  auto got = value::read_record(dst, out);
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(got.value().find("a")->as_int(), 17);
  EXPECT_EQ(got.value().find("b")->as_double(), 0.0);  // zero, not garbage
}

}  // namespace
}  // namespace pbio::convert
