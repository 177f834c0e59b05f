// Allocation counts of the compile path, the set-up half of the paper's DCG
// cost argument (§4.3, Table B): a receiver compiles each new conversion
// once, so that one-time work has to stay small.
//
//  * Once warm, translation validation allocates nothing: its decoder
//    output, plan model, loop table and pending-branch states live in one
//    per-thread scratch that every validation reuses.
//  * A whole CompiledConvert (plan verification, emission, validation,
//    sealing) makes at most kMaxCompileAllocs allocations.
//
// These are counts, not timings, so they hold on any host. Counting is
// thread-local (alloc_hook.h replaces every form of operator new).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc_hook.h"
#include "arch/layout.h"
#include "bench_support/workload.h"
#include "convert/plan.h"
#include "vcode/execmem.h"
#include "vcode/jit_convert.h"
#include "verify/tval/tval.h"

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
std::vector<Plan> hetero_bulk_plans() {
  std::vector<Plan> out;
  for (bench::Size s :
       {bench::Size::k1KB, bench::Size::k10KB, bench::Size::k100KB}) {
    for (const arch::Abi* abi :
         {&arch::abi_sparc_v8(), &arch::abi_x86(), &arch::abi_ppc64()}) {
      const bench::Workload w = bench::make_workload(s, *abi,
                                                     arch::abi_x86_64());
      out.push_back(convert::compile_plan(w.src_fmt, w.dst_fmt));
    }
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

#define REQUIRE_TVAL()                                     \
  do {                                                     \
    if (!vcode::jit_supported()) {                         \
      GTEST_SKIP() << "no JIT on this host";               \
    }                                                      \
    if (!vcode::tval_enabled()) {                          \
      GTEST_SKIP() << "built with PBIO_TVAL=OFF";          \
    }                                                      \
  } while (0)

TEST(CompileAllocs, WarmValidationAllocatesNothing) {
  REQUIRE_TVAL();
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
  REQUIRE_TVAL();
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

}  // namespace
}  // namespace pbio
