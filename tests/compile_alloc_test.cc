// Allocation counts of the set-up path, the one-time half of the paper's
// DCG cost argument (§4.3, Table B): a receiver learns each new format and
// compiles each new conversion once, so that work has to stay small.
//
//  * Once warm, translation validation allocates nothing: its decoder
//    output, plan model, loop table and pending-branch states live in one
//    per-thread scratch that every validation reuses.
//  * A whole CompiledConvert (plan verification, emission, validation,
//    sealing) makes at most kMaxCompileAllocs allocations.
//  * Checking and hashing a valid format description allocates nothing:
//    diagnostics are built only when a check fails, and both hashes stream
//    the meta encoding instead of building it.
//  * A Reader learns a format announcement in at most kMaxLearnAllocs
//    allocations: the decoded description and its registry entry.
//  * Plan compilation, plan verification and the CompiledConvert together
//    make at most kMaxSetupAllocs per hetero_bulk pair.
//
// These are counts, not timings, so they hold on any host. Counting is
// thread-local (alloc_hook.h replaces every form of operator new).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "alloc_hook.h"
#include "arch/layout.h"
#include "bench_support/workload.h"
#include "convert/plan.h"
#include "pbio/pbio.h"
#include "vcode/execmem.h"
#include "vcode/jit_convert.h"
#include "verify/tval/tval.h"
#include "verify/verify.h"

namespace {

thread_local bool g_counting = false;
thread_local std::uint64_t g_allocs = 0;

}  // namespace

void note_alloc(std::size_t) {
  if (g_counting) ++g_allocs;
}

namespace pbio {
namespace {

namespace tval = verify::tval;

using arch::CType;
using arch::StructSpec;
using convert::Plan;

constexpr std::uint64_t kMaxCompileAllocs = 12;
constexpr std::uint64_t kMaxLearnAllocs = 6;
constexpr std::uint64_t kMaxSetupAllocs = 10;

/// Allocations made by `fn` on this thread.
template <typename Fn>
std::uint64_t count_allocs(Fn&& fn) {
  g_allocs = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocs;
}

Plan plan_for(const StructSpec& spec, const arch::Abi& src,
              const arch::Abi& dst) {
  return convert::compile_plan(arch::layout_format(spec, src),
                               arch::layout_format(spec, dst));
}

/// The nine fixed-layout pairs hetero_bulk sets up: three record sizes from
/// three foreign ABIs into x86-64.
std::vector<bench::Workload> hetero_bulk_workloads() {
  std::vector<bench::Workload> out;
  for (bench::Size s :
       {bench::Size::k1KB, bench::Size::k10KB, bench::Size::k100KB}) {
    for (const arch::Abi* abi :
         {&arch::abi_sparc_v8(), &arch::abi_x86(), &arch::abi_ppc64()}) {
      out.push_back(bench::make_workload(s, *abi, arch::abi_x86_64()));
    }
  }
  return out;
}

std::vector<Plan> hetero_bulk_plans() {
  std::vector<Plan> out;
  for (const bench::Workload& w : hetero_bulk_workloads()) {
    out.push_back(convert::compile_plan(w.src_fmt, w.dst_fmt));
  }
  return out;
}

/// hetero_bulk's pairs plus the code shapes tval_test's fixtures cover: a
/// struct array with a nested element loop, a batch-kernel call, memmove
/// and memset calls, and a variable-op call.
std::vector<Plan> all_plans() {
  std::vector<Plan> out = hetero_bulk_plans();

  StructSpec block;
  block.name = "blk";
  block.fields = {{.name = "vals", .type = CType::kDouble, .array_elems = 16},
                  {.name = "tag", .type = CType::kInt}};
  StructSpec grid;
  grid.name = "grid";
  grid.fields = {{.name = "blocks", .array_elems = 10, .subformat = "blk"}};
  grid.subs = {block};
  out.push_back(plan_for(grid, arch::abi_sparc_v9(), arch::abi_x86_64()));

  StructSpec vec;
  vec.name = "vec";
  vec.fields = {{.name = "vals", .type = CType::kDouble, .array_elems = 64}};
  out.push_back(plan_for(vec, arch::abi_sparc_v9(), arch::abi_x86_64()));

  StructSpec big;
  big.name = "big";
  big.fields = {{.name = "blob", .type = CType::kChar, .array_elems = 4096}};
  StructSpec bigger = big;
  bigger.fields.push_back(
      {.name = "extra", .type = CType::kDouble, .array_elems = 512});
  out.push_back(
      convert::compile_plan(arch::layout_format(big, arch::abi_x86_64()),
                            arch::layout_format(bigger, arch::abi_x86_64())));

  StructSpec msg;
  msg.name = "msg";
  msg.fields = {{.name = "n", .type = CType::kUInt},
                {.name = "name", .type = CType::kString},
                {.name = "vals", .type = CType::kDouble, .var_dim_field = "n"},
                {.name = "tail", .type = CType::kInt}};
  out.push_back(plan_for(msg, arch::abi_sparc_v8(), arch::abi_x86_64()));
  return out;
}

#define REQUIRE_JIT()                                      \
  do {                                                     \
    if (!vcode::jit_supported()) {                         \
      GTEST_SKIP() << "no JIT on this host";               \
    }                                                      \
  } while (0)

TEST(CompileAllocs, WarmValidationAllocatesNothing) {
  REQUIRE_JIT();
  struct Case {
    Plan plan;
    std::vector<std::uint8_t> code;
    tval::Options opts;
  };
  std::vector<Case> cases;
  for (Plan& plan : all_plans()) {
    const vcode::CompiledConvert cc(plan);
    ASSERT_TRUE(cc.jitted());
    Case c{plan, {cc.code().begin(), cc.code().end()}, {}};
    c.opts = vcode::make_tval_options(c.plan);
    cases.push_back(std::move(c));
  }
  // Warm-up: the per-thread scratch grows to the largest buffer once.
  for (const Case& c : cases) {
    ASSERT_TRUE(tval::validate(c.code, c.plan, c.opts).ok);
  }
  for (const Case& c : cases) {
    bool ok = false;
    const std::uint64_t allocs = count_allocs(
        [&] { ok = tval::validate(c.code, c.plan, c.opts).ok; });
    EXPECT_TRUE(ok);
    EXPECT_EQ(allocs, 0u) << c.code.size() << "-byte buffer";
  }
}

TEST(CompileAllocs, CompiledConvertStaysUnderBudget) {
  REQUIRE_JIT();
  const std::vector<Plan> plans = hetero_bulk_plans();
  for (const Plan& plan : plans) {  // warm-up
    ASSERT_TRUE(vcode::CompiledConvert(plan).tval_report().ok);
  }
  for (const Plan& plan : plans) {
    // Moved in as ArtifactCache does; left unverified, so the count also
    // covers the plan verifier.
    Plan copy = plan;
    bool ok = false;
    const std::uint64_t allocs = count_allocs([&] {
      const vcode::CompiledConvert cc(std::move(copy));
      ok = cc.jitted() && cc.tval_report().ok;
    });
    EXPECT_TRUE(ok);
    EXPECT_LE(allocs, kMaxCompileAllocs) << plan.describe();
  }
}

TEST(CompileAllocs, CheckingAndHashingAValidFormatAllocatesNothing) {
  std::vector<fmt::FormatDesc> formats;
  for (const bench::Workload& w : hetero_bulk_workloads()) {
    formats.push_back(w.src_fmt);
    formats.push_back(w.dst_fmt);
  }
  StructSpec pt;
  pt.name = "pt";
  pt.fields = {{.name = "x", .type = CType::kDouble},
               {.name = "tag", .type = CType::kShort}};
  StructSpec msg;
  msg.name = "msg";
  msg.fields = {{.name = "n", .type = CType::kUInt},
                {.name = "name", .type = CType::kString},
                {.name = "pts", .array_elems = 3, .subformat = "pt"},
                {.name = "vals", .type = CType::kDouble, .var_dim_field = "n"}};
  msg.subs = {pt};
  formats.push_back(arch::layout_format(msg, arch::abi_sparc_v8()));
  // Declared out of offset order: the overlap check and the canonical hash
  // sort an index in per-thread scratch.
  formats.push_back(formats.back());
  std::reverse(formats.back().fields.begin(), formats.back().fields.end());

  for (const fmt::FormatDesc& f : formats) {  // warm-up
    f.validate();
    (void)fmt::canonical_hash(f);
  }
  for (const fmt::FormatDesc& f : formats) {
    EXPECT_EQ(count_allocs([&] { f.validate(); }), 0u) << f.name;
    std::uint64_t id = 0, canonical = 0;
    EXPECT_EQ(count_allocs([&] { id = f.fingerprint(); }), 0u) << f.name;
    EXPECT_EQ(count_allocs([&] { canonical = fmt::canonical_hash(f); }), 0u)
        << f.name;
    EXPECT_NE(id, canonical);
  }
}

/// Allocations a fresh Reader makes to learn `f` from an announcement.
std::uint64_t learn_allocs(const fmt::FormatDesc& f) {
  Context wctx;
  Context rctx;
  const Context::FormatId id = wctx.register_format(f);
  auto [tx, rx] = transport::make_loopback_pair();
  Writer writer(wctx, *tx);
  Reader reader(rctx, *rx);
  EXPECT_TRUE(writer.announce(id).is_ok());
  tx->close();
  Result<Message> got = Status::ok();
  const std::uint64_t allocs = count_allocs([&] { got = reader.next(); });
  EXPECT_EQ(got.status().code(), Errc::kChannelClosed);
  EXPECT_NE(rctx.find(id), nullptr);
  return allocs;
}

TEST(CompileAllocs, ReaderLearnsAnAnnouncementInFewAllocations) {
  const std::vector<bench::Workload> workloads = hetero_bulk_workloads();
  (void)learn_allocs(workloads.front().src_fmt);  // warm-up
  for (const bench::Workload& w : workloads) {
    EXPECT_LE(learn_allocs(w.src_fmt), kMaxLearnAllocs) << w.src_fmt.name;
  }
}

TEST(CompileAllocs, PlanVerifyAndCompileStayUnderBudget) {
  REQUIRE_JIT();
  const std::vector<bench::Workload> workloads = hetero_bulk_workloads();
  const auto set_up = [](const bench::Workload& w) {
    // As ArtifactCache builds an artifact: compile, verify, hand over.
    Plan plan = convert::compile_plan(w.src_fmt, w.dst_fmt);
    const bool verified = verify::verify_plan(plan).ok();
    plan.verified = verified;
    const vcode::CompiledConvert cc(std::move(plan));
    return verified && cc.jitted() && cc.tval_report().ok;
  };
  for (const bench::Workload& w : workloads) {  // warm-up
    ASSERT_TRUE(set_up(w));
  }
  for (const bench::Workload& w : workloads) {
    bool ok = false;
    const std::uint64_t allocs = count_allocs([&] { ok = set_up(w); });
    EXPECT_TRUE(ok);
    EXPECT_LE(allocs, kMaxSetupAllocs) << w.src_fmt.name;
  }
}

}  // namespace
}  // namespace pbio
