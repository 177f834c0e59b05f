// Tiered conversion on the stream path: a Reader interprets a pair's first
// record and generates code once the shared conversion has been resolved
// kTierUpUses times. Covers the use count, the one-shot tier-up, decode
// counting by the engine that ran, and a race of streams on one shared
// cache — the test that runs under tsan.
#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "arch/layout.h"
#include "cache/artifact_cache.h"
#include "obs/obs.h"
#include "pbio/pbio.h"
#include "transport/loopback.h"
#include "value/materialize.h"
#include "value/random.h"
#include "value/read.h"
#include "vcode/execmem.h"
#include "vcode/jit_convert.h"

namespace pbio {
namespace {

using arch::CType;
using arch::StructSpec;
using cache::ArtifactCache;
using value::Record;
using value::Value;

/// Byte-swapped doubles with a 32-element array: the generated code calls
/// the batch kernels.
StructSpec sample_spec() {
  StructSpec s;
  s.name = "sample";
  s.fields = {
      {.name = "seq", .type = CType::kInt},
      {.name = "samples", .type = CType::kDouble, .array_elems = 32},
      {.name = "tag", .type = CType::kUShort},
  };
  return s;
}

Record sample_record(int seq) {
  Record r;
  r.set("seq", Value(seq));
  Value::List samples;
  for (int i = 0; i < 32; ++i) samples.push_back(Value(0.25 * i - seq));
  r.set("samples", Value(std::move(samples)));
  r.set("tag", Value(std::uint64_t{7}));
  return r;
}

fmt::FormatDesc wire_desc() {
  return arch::layout_format(sample_spec(), arch::abi_sparc_v8());
}
fmt::FormatDesc native_desc() {
  return arch::layout_format(sample_spec(), arch::abi_x86_64());
}

std::uint64_t counter(const char* name) {
  const obs::Snapshot snap = obs::snapshot();
  const obs::CounterSample* c = snap.find_counter(name);
  return c == nullptr ? 0 : c->value;
}

/// A sparc writer and a host reader over a loopback pair. The reader's
/// context may share a cache with other streams.
struct Stream {
  explicit Stream(std::shared_ptr<ArtifactCache> cache =
                      std::make_shared<ArtifactCache>())
      : rctx(std::move(cache)) {
    wire = wctx.register_format(wire_desc());
    native = rctx.register_format(native_desc());
    reader.expect(native);
  }

  /// Send record `seq`, receive it, decode it with kDcg requested and
  /// check the values.
  void round_trip(int seq) {
    const Record rec = sample_record(seq);
    ASSERT_TRUE(
        writer.write_image(wire, value::materialize(wire_desc(), rec)).is_ok());
    auto m = reader.next();
    ASSERT_TRUE(m.is_ok()) << m.status().to_string();
    std::vector<std::uint8_t> out(native_desc().fixed_size, 0);
    ASSERT_TRUE(m.value().decode_into(out.data(), out.size(), Engine::kDcg)
                    .is_ok());
    auto back = value::read_record(native_desc(), out);
    ASSERT_TRUE(back.is_ok());
    EXPECT_TRUE(value::equivalent(back.value(), rec))
        << Value(back.value()).to_string();
  }

  /// The conversion the reader resolved, fetched without generating code
  /// (the wire id is a content hash, so it is the same in both contexts).
  std::shared_ptr<const Conversion> conversion() {
    auto c = rctx.try_conversion(wire, native, cache::Build::kDeferred);
    EXPECT_TRUE(c.is_ok());
    return c.is_ok() ? std::move(c).take() : nullptr;
  }

  Context wctx;
  Context rctx;
  std::pair<std::unique_ptr<transport::LoopbackChannel>,
            std::unique_ptr<transport::LoopbackChannel>>
      pair = transport::make_loopback_pair();
  Writer writer{wctx, *pair.first};
  Reader reader{rctx, *pair.second};
  Context::FormatId wire = 0;
  Context::FormatId native = 0;
};

TEST(TierUp, KthUseTiersUpExactlyOnce) {
  static_assert(kTierUpUses >= 2, "a pair's first record must interpret");
  Stream s;
  const ArtifactCache& cache = s.rctx.artifact_cache();
  for (std::uint32_t i = 1; i < kTierUpUses; ++i) {
    s.round_trip(static_cast<int>(i));
    EXPECT_EQ(cache.stats().tier_ups, 0u) << "record " << i;
    EXPECT_FALSE(s.conversion()->jitted()) << "record " << i;
  }
  s.round_trip(static_cast<int>(kTierUpUses));
  EXPECT_EQ(cache.stats().tier_ups, 1u);
  for (int i = 0; i < 8; ++i) s.round_trip(100 + i);

  const ArtifactCache::Stats st = cache.stats();
  EXPECT_EQ(st.tier_ups, 1u);
  EXPECT_EQ(st.compiles, 1u) << "one artifact for the pair";
  EXPECT_EQ(s.rctx.stats().conversions_compiled, 1u);
  const auto conv = s.conversion();
  EXPECT_EQ(conv->jitted(), vcode::jit_supported());
  EXPECT_FALSE(conv->pending());
  EXPECT_EQ(st.jit_code_bytes, conv->code_size());
  EXPECT_EQ(s.rctx.stats().jit_code_bytes, conv->code_size());
}

TEST(TierUp, EagerResolutionTiersUpAPlanOnlyConversion) {
  // try_conversion() keeps its contract: what it returns carries its code,
  // even when a stream built the artifact plan-only first.
  Stream s;
  s.round_trip(1);
  ASSERT_TRUE(s.conversion()->pending());
  auto eager = s.rctx.try_conversion(s.wire, s.native);
  ASSERT_TRUE(eager.is_ok());
  EXPECT_FALSE(eager.value()->pending());
  EXPECT_EQ(eager.value()->jitted(), vcode::jit_supported());
  EXPECT_EQ(s.rctx.artifact_cache().stats().tier_ups, 1u);
  // The stream holds the same artifact and now runs its code.
  for (std::uint32_t i = 0; i < kTierUpUses; ++i) s.round_trip(10);
  EXPECT_EQ(s.rctx.artifact_cache().stats().tier_ups, 1u);
}

TEST(TierUp, DecodeCountsTheEngineThatRan) {
  // kDcg is requested for every record; until the tier-up the interpreter
  // runs them, and the counters must say so.
  if (!vcode::jit_supported()) GTEST_SKIP() << "no JIT on this host";
  Stream s;
  const std::uint64_t dcg0 = counter("pbio.decode.records.dcg");
  const std::uint64_t interp0 = counter("pbio.decode.records.interp");
  s.round_trip(1);
  EXPECT_EQ(counter("pbio.decode.records.dcg") - dcg0, 0u);
  EXPECT_EQ(counter("pbio.decode.records.interp") - interp0, 1u);
  for (std::uint32_t i = 1; i <= kTierUpUses; ++i) s.round_trip(2);
  EXPECT_EQ(counter("pbio.decode.records.interp") - interp0,
            kTierUpUses - 1);
  EXPECT_EQ(counter("pbio.decode.records.dcg") - dcg0, 2u);
}

TEST(TierUp, StreamsRacingOnOneSharedCacheCompileOnce) {
  constexpr int kThreads = 4;
  constexpr int kRecords = static_cast<int>(kTierUpUses) * 8;
  auto shared = std::make_shared<ArtifactCache>();
  std::vector<std::unique_ptr<Stream>> streams;
  for (int t = 0; t < kThreads; ++t) {
    streams.push_back(std::make_unique<Stream>(shared));
  }
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kRecords; ++i) streams[t]->round_trip(t * 1000 + i);
    });
  }
  for (std::thread& th : threads) th.join();

  const ArtifactCache::Stats st = shared->stats();
  EXPECT_EQ(st.compiles, 1u);
  EXPECT_EQ(st.tier_ups, 1u);
  EXPECT_EQ(shared->size(), 1u);
  const auto conv = streams[0]->conversion();
  EXPECT_EQ(conv->jitted(), vcode::jit_supported());
  EXPECT_EQ(st.jit_code_bytes, conv->code_size());
}

}  // namespace
}  // namespace pbio
