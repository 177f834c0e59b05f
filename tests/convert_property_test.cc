// The central property test: for random specs, random values, and every
// ordered pair of modelled ABIs, materialize -> convert -> read-back must be
// lossless. Also checks that disabling the optimizer never changes results
// and that field reordering / extension / truncation behave per the paper's
// name-matching rules. Through a Reader, the interpreter that runs a
// pair's first record and the code generated on its reuse must agree byte
// for byte.
#include <gtest/gtest.h>

#include <random>

#include "arch/layout.h"
#include "convert/interp.h"
#include "convert/plan.h"
#include "obs/obs.h"
#include "pbio/pbio.h"
#include "transport/loopback.h"
#include "value/materialize.h"
#include "value/random.h"
#include "value/read.h"
#include "vcode/execmem.h"

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

std::uint64_t counter(const char* name) {
  const obs::Snapshot snap = obs::snapshot();
  const obs::CounterSample* c = snap.find_counter(name);
  return c == nullptr ? 0 : c->value;
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
      const std::uint64_t interp0 = counter("pbio.decode.records.interp");
      const std::uint64_t dcg0 = counter("pbio.decode.records.dcg");
      std::vector<std::uint8_t> out(dst.fixed_size, 0xAB);
      ASSERT_TRUE(
          m.value().decode_into(out.data(), out.size(), Engine::kDcg).is_ok())
          << pair;
      if (!m.value().zero_copy()) {
        const bool dcg = i + 1 >= kTierUpUses && vcode::jit_supported();
        EXPECT_EQ(counter("pbio.decode.records.interp") - interp0, dcg ? 0u : 1u)
            << pair << " record " << i;
        EXPECT_EQ(counter("pbio.decode.records.dcg") - dcg0, dcg ? 1u : 0u)
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
