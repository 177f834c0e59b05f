// Tiered conversion on the stream path: a Reader interprets a pair's first
// record and generates code once the shared conversion has been resolved
// kTierUpUses times. Covers the use count (also with pairs interleaved),
// the one-shot tier-up, decode counting by the engine that ran, a stream
// with more formats than its Resolver table holds, a new decode target
// after traffic, and a race of readers on one shared Context — the test
// that runs under tsan.
#include <gtest/gtest.h>

#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "arch/layout.h"
#include "cache/artifact_cache.h"
#include "obs/obs.h"
#include "pbio/pbio.h"
#include "pbio/resolver.h"
#include "transport/loopback.h"
#include "util/arena.h"
#include "util/endian.h"
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

/// Records decoded by one engine: its decode span's sample count.
std::uint64_t decodes(const char* name) {
  const obs::Snapshot snap = obs::snapshot();
  const obs::HistogramSample* h = snap.find_histogram(name);
  return h == nullptr ? 0 : h->count;
}

/// Decode `m` into `native` with kDcg requested and check it equals `rec`.
void expect_decodes(Message& m, const fmt::FormatDesc& native,
                    const Record& rec) {
  std::vector<std::uint8_t> out(native.fixed_size, 0);
  ASSERT_TRUE(m.decode_into(out.data(), out.size()).is_ok());
  auto back = value::read_record(native, out);
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(value::equivalent(back.value(), rec))
      << Value(back.value()).to_string();
}

/// A sparc writer and a host reader over a loopback pair. The reader's
/// context may be shared with other streams.
struct Stream {
  Stream() : Stream(own_rctx) {}
  explicit Stream(Context& reader_ctx) : rctx(reader_ctx) {
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
    expect_decodes(m.value(), native_desc(), rec);
  }

  /// The conversion the reader resolved, fetched without generating code
  /// (the wire id is a content hash, so it is the same in both contexts).
  std::shared_ptr<const Conversion> conversion() {
    auto c = rctx.try_conversion(wire, native, cache::Build::kDeferred);
    EXPECT_TRUE(c.is_ok());
    return c.is_ok() ? std::move(c).take() : nullptr;
  }

  Context own_rctx;
  Context wctx;
  Context& rctx;
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
  const std::uint64_t dcg0 = decodes("pbio.decode.dcg");
  const std::uint64_t interp0 = decodes("pbio.decode.interp");
  s.round_trip(1);
  EXPECT_EQ(decodes("pbio.decode.dcg") - dcg0, 0u);
  EXPECT_EQ(decodes("pbio.decode.interp") - interp0, 1u);
  for (std::uint32_t i = 1; i <= kTierUpUses; ++i) s.round_trip(2);
  EXPECT_EQ(decodes("pbio.decode.interp") - interp0,
            kTierUpUses - 1);
  EXPECT_EQ(decodes("pbio.decode.dcg") - dcg0, 2u);
}

/// Format `i` of a family whose members differ in name and structure, so
/// each is its own wire id and its own artifact.
StructSpec numbered_spec(std::size_t i) {
  StructSpec s;
  s.name = "f" + std::to_string(i);
  s.fields = {
      {.name = "seq", .type = CType::kInt},
      {.name = "v",
       .type = CType::kDouble,
       .array_elems = static_cast<std::uint32_t>(i + 2)},
  };
  return s;
}

Record numbered_record(std::size_t i, int seq) {
  Record r;
  r.set("seq", Value(seq));
  Value::List v;
  for (std::size_t k = 0; k < i + 2; ++k) v.push_back(Value(seq * 0.5 + k));
  r.set("v", Value(std::move(v)));
  return r;
}

TEST(TierUp, InterleavedPairsEachTierUpOnceAtTheirKthUse) {
  // A/B/A/B: every resolution of a code-less pair counts one use, whatever
  // id arrived in between, so each pair tiers up at its own kTierUpUses-th
  // record and never again.
  Stream s;
  StructSpec other;
  other.name = "other";
  other.fields = {{.name = "x", .type = CType::kDouble, .array_elems = 24},
                  {.name = "n", .type = CType::kShort}};
  const fmt::FormatDesc other_wire =
      arch::layout_format(other, arch::abi_sparc_v8());
  const fmt::FormatDesc other_native =
      arch::layout_format(other, arch::abi_x86_64());
  const auto b_wire = s.wctx.register_format(other_wire);
  const auto b_native = s.rctx.register_format(other_native);
  s.reader.expect(b_native);
  const auto b_conv = [&] {
    auto c = s.rctx.try_conversion(b_wire, b_native, cache::Build::kDeferred);
    EXPECT_TRUE(c.is_ok());
    return std::move(c).take();
  };
  const ArtifactCache& cache = s.rctx.artifact_cache();

  // Tier-ups once A has had `a` uses and B `b`.
  const auto tier_ups = [](std::uint32_t a, std::uint32_t b) {
    return std::uint64_t{a >= kTierUpUses} + std::uint64_t{b >= kTierUpUses};
  };
  for (std::uint32_t use = 1; use <= kTierUpUses + 4; ++use) {
    const bool tiered = use >= kTierUpUses;
    s.round_trip(static_cast<int>(use));
    EXPECT_EQ(s.conversion()->pending(), !tiered) << "A use " << use;
    EXPECT_EQ(cache.stats().tier_ups, tier_ups(use, use - 1))
        << "A use " << use;

    Record rec;
    rec.set("n", Value(-static_cast<int>(use)));
    Value::List xs;
    for (int k = 0; k < 24; ++k) xs.push_back(Value(k * 1.25 - use));
    rec.set("x", Value(std::move(xs)));
    ASSERT_TRUE(s.writer
                    .write_image(b_wire, value::materialize(other_wire, rec))
                    .is_ok());
    auto m = s.reader.next();
    ASSERT_TRUE(m.is_ok()) << m.status().to_string();
    expect_decodes(m.value(), other_native, rec);
    EXPECT_EQ(b_conv()->pending(), !tiered) << "B use " << use;
    EXPECT_EQ(cache.stats().tier_ups, tier_ups(use, use)) << "B use " << use;
  }
  EXPECT_EQ(cache.stats().compiles, 2u);
}

TEST(TierUp, MoreFormatsThanTheTableHoldsStillDecode) {
  // A peer announcing more formats than a stream keeps resolved cannot
  // grow its table past the bound; every record still decodes, and each
  // pair still tiers up once.
  constexpr std::size_t kFormats = Resolver::kMaxKnownIds + 6;
  constexpr int kRounds = 3;
  Context ctx;
  ExpectedTable expected;
  std::vector<fmt::FormatDesc> wires;
  std::vector<fmt::FormatDesc> natives;
  for (std::size_t i = 0; i < kFormats; ++i) {
    wires.push_back(
        arch::layout_format(numbered_spec(i), arch::abi_sparc_v8()));
    natives.push_back(
        arch::layout_format(numbered_spec(i), arch::abi_x86_64()));
    ctx.register_format(wires.back());
    const auto native = ctx.register_format(natives.back());
    expected[natives.back().name] = Expected{native, ctx.find(native)};
  }
  obs::CounterBlock learned{"pbio.recv.formats_learned"};
  Resolver resolver(ctx, expected, learned, 0);

  std::size_t most_known = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < kFormats; ++i) {
      const Record rec = numbered_record(i, round * 1000 + static_cast<int>(i));
      const std::vector<std::uint8_t> image =
          value::materialize(wires[i], rec);
      std::vector<std::uint8_t> frame(kDataHeaderSize, 0);
      frame[0] = kFrameData;
      store_uint(frame.data() + kDataHeaderIdOffset, wires[i].fingerprint(),
                 8, ByteOrder::kLittle);
      frame.insert(frame.end(), image.begin(), image.end());

      Resolver::Frame f;
      const Status st = resolver.interpret(frame, &f);
      ASSERT_TRUE(st.is_ok()) << st.to_string();
      ASSERT_NE(f.entry, nullptr);
      ASSERT_NE(f.entry->conv, nullptr);
      EXPECT_LE(resolver.known_ids(), Resolver::kMaxKnownIds);
      most_known = std::max(most_known, resolver.known_ids());

      std::vector<std::uint8_t> out(natives[i].fixed_size, 0);
      Arena arena;
      ASSERT_TRUE(decode_record(*f.entry->conv, f.payload, out.data(),
                                out.size(), arena)
                      .is_ok());
      auto back = value::read_record(natives[i], out);
      ASSERT_TRUE(back.is_ok());
      EXPECT_TRUE(value::equivalent(back.value(), rec))
          << "format " << i << " round " << round;
    }
  }
  EXPECT_EQ(most_known, Resolver::kMaxKnownIds);
  const ArtifactCache::Stats st = ctx.artifact_cache().stats();
  EXPECT_EQ(st.compiles, kFormats);
  EXPECT_EQ(st.tier_ups, kFormats);
}

TEST(TierUp, ExpectAfterTrafficResolvesTheNextFrameToTheNewTarget) {
  // A new decode target for a name the stream already resolved takes
  // effect on the next frame, even once the old pair has its code.
  Stream s;
  for (std::uint32_t i = 0; i <= kTierUpUses; ++i) {
    s.round_trip(static_cast<int>(i));
  }
  ASSERT_FALSE(s.conversion()->pending());

  const fmt::FormatDesc i386 =
      arch::layout_format(sample_spec(), arch::abi_x86());
  ASSERT_NE(i386.fixed_size, native_desc().fixed_size);
  const auto i386_id = s.rctx.register_format(i386);
  s.reader.expect(i386_id);
  for (int i = 0; i < 3; ++i) {
    const Record rec = sample_record(50 + i);
    ASSERT_TRUE(
        s.writer.write_image(s.wire, value::materialize(wire_desc(), rec))
            .is_ok());
    auto m = s.reader.next();
    ASSERT_TRUE(m.is_ok()) << m.status().to_string();
    ASSERT_EQ(m.value().native_format(), s.rctx.find(i386_id));
    expect_decodes(m.value(), i386, rec);
  }
}

TEST(TierUp, ReadersRacingOnOneContextCompileOnce) {
  constexpr int kThreads = 4;
  constexpr int kRecords = static_cast<int>(kTierUpUses) * 8;
  Context rctx;
  std::vector<std::unique_ptr<Stream>> streams;
  for (int t = 0; t < kThreads; ++t) {
    streams.push_back(std::make_unique<Stream>(rctx));
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

  const ArtifactCache::Stats st = rctx.artifact_cache().stats();
  EXPECT_EQ(st.compiles, 1u);
  EXPECT_EQ(st.tier_ups, 1u);
  EXPECT_EQ(rctx.artifact_cache().size(), 1u);
  const auto conv = streams[0]->conversion();
  EXPECT_EQ(conv->jitted(), vcode::jit_supported());
  EXPECT_EQ(st.jit_code_bytes, conv->code_size());
}

}  // namespace
}  // namespace pbio
