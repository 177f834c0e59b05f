// The recycled code-page pool under concurrency: threads compiling, running
// and dropping conversions through private contexts share one pool, and
// every recycled page must carry exactly the code its new owner sealed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "arch/layout.h"
#include "obs/obs.h"
#include "pbio/context.h"
#include "value/materialize.h"
#include "vcode/execmem.h"

namespace pbio {
namespace {

using arch::CType;
using arch::StructSpec;
using value::Record;
using value::Value;

StructSpec sample_spec() {
  StructSpec s;
  s.name = "sample";
  s.fields = {
      {.name = "seq", .type = CType::kInt},
      {.name = "a", .type = CType::kDouble},
      {.name = "l", .type = CType::kLong},
      {.name = "samples", .type = CType::kDouble, .array_elems = 32},
      {.name = "tag", .type = CType::kUShort},
  };
  return s;
}

Record sample_record(int seq) {
  Record r;
  r.set("seq", Value(seq));
  r.set("a", Value(2.5 * seq));
  r.set("l", Value(std::int64_t{-7} * seq));
  Value::List samples;
  for (int i = 0; i < 32; ++i) samples.push_back(Value(0.5 * i - seq));
  r.set("samples", Value(std::move(samples)));
  r.set("tag", Value(std::uint64_t{7}));
  return r;
}

std::uint64_t counter(const char* name) {
  const obs::Snapshot snap = obs::snapshot();
  const obs::CounterSample* c = snap.find_counter(name);
  return c == nullptr ? 0 : c->value;
}

TEST(ExecBufferPool, ThreadsShareThePoolAndMatchTheInterpreter) {
  if (!vcode::jit_supported()) GTEST_SKIP() << "no JIT on this host";
  const std::vector<const arch::Abi*> wire_abis = {
      &arch::abi_sparc_v8(), &arch::abi_mips_be(), &arch::abi_sparc_v9(),
      &arch::abi_x86()};
  const fmt::FormatDesc native =
      arch::layout_format(sample_spec(), arch::abi_x86_64());
  constexpr int kThreads = 8;
  constexpr int kRounds = 25;

  const std::uint64_t maps0 = counter("vcode.exec.maps");
  const std::uint64_t reuses0 = counter("vcode.exec.reuses");
  const std::uint64_t failures0 = counter("vcode.exec.release_failures");
  std::atomic<std::uint64_t> acquires{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        Context ctx;  // private cache: every round compiles afresh
        std::vector<std::shared_ptr<const Conversion>> live;
        for (const arch::Abi* abi : wire_abis) {
          const fmt::FormatDesc wire =
              arch::layout_format(sample_spec(), *abi);
          auto conv = ctx.try_conversion(ctx.register_format(wire),
                                         ctx.register_format(native));
          if (!conv.is_ok()) {
            mismatches.fetch_add(1);
            continue;
          }
          // Layout-identical wire formats share one artifact in the cache.
          const bool fresh = std::find(live.begin(), live.end(),
                                       conv.value()) == live.end();
          if (fresh && conv.value()->jitted()) acquires.fetch_add(1);
          const auto bytes =
              value::materialize(wire, sample_record(t * kRounds + round));
          std::vector<std::uint8_t> dcg(native.fixed_size, 0xAA);
          std::vector<std::uint8_t> interp(native.fixed_size, 0xAA);
          convert::ExecInput in;
          in.src = bytes.data();
          in.src_size = bytes.size();
          in.dst = dcg.data();
          in.dst_size = dcg.size();
          const bool dcg_ok = conv.value()->run(in).is_ok();
          in.dst = interp.data();
          const bool interp_ok =
              convert::run_plan(conv.value()->plan(), in).is_ok();
          if (!dcg_ok || !interp_ok || dcg != interp) mismatches.fetch_add(1);
          live.push_back(conv.value());
        }
      }  // the context and its conversions drop here, releasing the pages
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(mismatches.load(), 0) << "DCG output differs from interpreter's";
  const std::uint64_t maps = counter("vcode.exec.maps") - maps0;
  const std::uint64_t reuses = counter("vcode.exec.reuses") - reuses0;
  EXPECT_EQ(maps + reuses, acquires.load());
  EXPECT_GT(reuses, 0u);
  // At most every thread's live conversions at once ever need a new page.
  EXPECT_LE(maps, static_cast<std::uint64_t>(kThreads * wire_abis.size()));
  EXPECT_EQ(counter("vcode.exec.release_failures"), failures0);
}

}  // namespace
}  // namespace pbio
