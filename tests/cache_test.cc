// Fleet-scale conversion-artifact cache: canonical keying, the resolution
// path in front of it (a stream's Resolver table, unknown ids), single-
// flight stampede collapse, the cost of an insert into a large cache,
// artifact sharing across the readers of one Context, and the counter
// store behind the cache and context stats.
//
// Every form of operator new is counted (alloc_hook.h), on the calling
// thread only and only while a test asks for it.
#include "cache/artifact_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "alloc_hook.h"
#include "arch/layout.h"
#include "fmt/format.h"
#include "obs/obs.h"
#include "pbio/context.h"
#include "pbio/reader.h"
#include "pbio/resolver.h"
#include "pbio/writer.h"
#include "transport/loopback.h"
#include "value/materialize.h"
#include "value/random.h"
#include "value/read.h"
#include "vcode/jit_convert.h"

namespace {

thread_local bool g_counting = false;
thread_local std::uint64_t g_allocs = 0;

}  // namespace

void note_alloc(std::size_t /*n*/) {
  if (g_counting) ++g_allocs;
}

namespace pbio {
namespace {

using arch::CType;
using arch::StructSpec;
using cache::ArtifactCache;
using cache::PairKey;
using value::Record;
using value::Value;

StructSpec sample_spec() {
  StructSpec s;
  s.name = "sample";
  // The 32-element array clears kernels::kMinCount, so a byte-swapping
  // conversion emits real kernel *calls*.
  s.fields = {
      {.name = "seq", .type = CType::kInt},
      {.name = "a", .type = CType::kDouble},
      {.name = "samples", .type = CType::kDouble, .array_elems = 32},
      {.name = "tag", .type = CType::kUShort},
  };
  return s;
}

Record sample_record() {
  Record r;
  r.set("seq", Value(42));
  r.set("a", Value(2.5));
  Value::List samples;
  for (int i = 0; i < 32; ++i) samples.push_back(Value(0.5 * i - 3.25));
  r.set("samples", Value(std::move(samples)));
  r.set("tag", Value(std::uint64_t{7}));
  return r;
}

/// Big-endian wire + host-native pair: the conversion needs byte-swap
/// kernels, so generated code carries real call sites.
fmt::FormatDesc wire_desc() {
  return arch::layout_format(sample_spec(), arch::abi_sparc_v8());
}
fmt::FormatDesc native_desc() {
  return arch::layout_format(sample_spec(), arch::abi_x86_64());
}

/// Run `conv` over a materialized sample record and check the values
/// survive — the "it actually executes correctly" stamp on every path.
void expect_converts(const Context& /*ctx*/, const Conversion& conv,
                     const fmt::FormatDesc& wire,
                     const fmt::FormatDesc& native) {
  const auto bytes = value::materialize(wire, sample_record());
  std::vector<std::uint8_t> out(native.fixed_size, 0);
  convert::ExecInput in;
  in.src = bytes.data();
  in.src_size = bytes.size();
  in.dst = out.data();
  in.dst_size = out.size();
  ASSERT_TRUE(conv.run(in).is_ok());
  auto back = value::read_record(native, out);
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(value::equivalent(back.value(), sample_record()))
      << Value(back.value()).to_string();
}

// ---------------------------------------------------------------- keying

TEST(CanonicalHash, IgnoresPresentationOnlyDifferences) {
  fmt::FormatDesc a = wire_desc();
  fmt::FormatDesc b = a;
  b.arch_name = "some-other-machine";
  std::reverse(b.fields.begin(), b.fields.end());
  EXPECT_EQ(fmt::canonical_hash(a), fmt::canonical_hash(b));
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(CanonicalHash, DiffersOnStructuralChange) {
  fmt::FormatDesc a = wire_desc();
  fmt::FormatDesc b = a;
  b.fields[0].offset += 2;
  EXPECT_NE(fmt::canonical_hash(a), fmt::canonical_hash(b));
  fmt::FormatDesc c = wire_desc();
  c.fields[0].elem_size = 8;
  EXPECT_NE(fmt::canonical_hash(a), fmt::canonical_hash(c));
}

TEST(CanonicalHash, StructurallyEqualFormatsShareOneArtifact) {
  ArtifactCache cache;
  fmt::FormatDesc wire = wire_desc();
  fmt::FormatDesc renamed = wire;
  renamed.arch_name = "elsewhere";
  const fmt::FormatDesc native = native_desc();
  const PairKey key{fmt::canonical_hash(wire), fmt::canonical_hash(native)};
  const PairKey key2{fmt::canonical_hash(renamed),
                     fmt::canonical_hash(native)};
  ASSERT_EQ(key.wire, key2.wire);
  auto first = cache.get_or_build(wire, native, key);
  auto second = cache.get_or_build(renamed, native, key2);
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(first.value().get(), second.value().get());
  EXPECT_EQ(cache.stats().compiles, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

// ------------------------------------------------------------ resolution

TEST(Resolution, UnknownIdRejectedWithoutBuild) {
  Context ctx;
  const auto native = ctx.register_format(native_desc());
  auto r = ctx.try_conversion(0xdeadbeefdeadbeefull, native);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Errc::kUnknownFormat);
  // A stream's resolver rejects the id at its registry lookup, before any
  // conversion is requested.
  const ExpectedTable expected{{"sample", {native, ctx.find(native)}}};
  obs::CounterBlock learned{"pbio.recv.formats_learned"};
  Resolver resolver(ctx, expected, learned, 0);
  auto e = resolver.resolve(0xdeadbeefdeadbeefull);
  ASSERT_FALSE(e.is_ok());
  EXPECT_EQ(e.status().code(), Errc::kUnknownFormat);
  const ArtifactCache::Stats st = ctx.artifact_cache().stats();
  EXPECT_EQ(st.misses, 0u);
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.compiles, 0u);
}

// ------------------------------------------------------------- stampede

TEST(Stampede, ColdPairCompilesExactlyOnceAcrossThreads) {
  Context ctx;
  const auto wire = ctx.register_format(wire_desc());
  const auto native = ctx.register_format(native_desc());
  constexpr int kThreads = 16;
  std::vector<std::shared_ptr<const Conversion>> got(kThreads);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load()) {
      }
      auto r = ctx.try_conversion(wire, native);
      ASSERT_TRUE(r.is_ok());
      got[static_cast<std::size_t>(t)] = std::move(r).take();
    });
  }
  while (ready.load() != kThreads) {
  }
  go.store(true);
  for (auto& th : threads) th.join();

  // Single-flight: exactly one compile no matter how hard the stampede.
  EXPECT_EQ(ctx.stats().conversions_compiled, 1u);
  EXPECT_EQ(ctx.artifact_cache().stats().compiles, 1u);
  // Every thread received literally the same sealed artifact.
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(got[static_cast<std::size_t>(t)].get(), got[0].get());
  }
  expect_converts(ctx, *got[0], wire_desc(), native_desc());
}

// ------------------------------------------------------- many pairs

/// The (wire, native) ids of `n` structurally distinct pairs, registered in
/// `ctx`: each pair is the sample layout under its own format name.
std::vector<std::pair<Context::FormatId, Context::FormatId>> distinct_pairs(
    Context& ctx, int n) {
  std::vector<std::pair<Context::FormatId, Context::FormatId>> ids;
  ids.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    StructSpec spec = sample_spec();
    spec.name = "pair" + std::to_string(i);
    ids.emplace_back(
        ctx.register_format(arch::layout_format(spec, arch::abi_sparc_v8())),
        ctx.register_format(arch::layout_format(spec, arch::abi_x86_64())));
  }
  return ids;
}

/// Resolving a new pair costs the same whatever the cache already holds:
/// an insert adds one entry and copies nothing.
TEST(ManyPairs, InsertCostDoesNotGrowWithTheCache) {
  constexpr int kFilled = 1000;
  constexpr int kNew = 100;
  // The compile pipeline (plan, verify, JIT, tval) plus the insert and an
  // occasional rehash take 13 on x86-64, so this leaves room to spare;
  // copying a map of the pairs already cached (hundreds of nodes) does not.
  constexpr std::uint64_t kMaxAllocsPerPair = 32;
  Context ctx;
  const auto ids = distinct_pairs(ctx, kFilled + kNew);
  for (int i = 0; i < kFilled; ++i) {
    const auto [w, n] = ids[static_cast<std::size_t>(i)];
    ASSERT_TRUE(ctx.try_conversion(w, n).is_ok());
  }
  std::uint64_t worst = 0;
  for (int i = kFilled; i < kFilled + kNew; ++i) {
    const auto [w, n] = ids[static_cast<std::size_t>(i)];
    g_allocs = 0;
    g_counting = true;
    const bool ok = ctx.try_conversion(w, n).is_ok();
    g_counting = false;
    ASSERT_TRUE(ok);
    worst = std::max(worst, g_allocs);
  }
  EXPECT_LE(worst, kMaxAllocsPerPair)
      << "resolving one new pair allocated " << worst << " times with "
      << kFilled << "+ pairs cached";
  EXPECT_EQ(ctx.artifact_cache().size(),
            static_cast<std::size_t>(kFilled + kNew));
  EXPECT_EQ(ctx.artifact_cache().stats().compiles,
            static_cast<std::uint64_t>(kFilled + kNew));
}

/// Four threads resolve the same cold pairs in different orders: each pair
/// compiles once, and every resolution counts exactly one hit or miss.
TEST(ManyPairs, ConcurrentColdPairsCompileOnceEach) {
  constexpr int kPairs = 64;
  constexpr int kThreads = 4;
  Context ctx;
  const auto ids = distinct_pairs(ctx, kPairs);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPairs; ++i) {
        const auto [w, n] =
            ids[static_cast<std::size_t>((i + t * kPairs / kThreads) % kPairs)];
        EXPECT_TRUE(ctx.try_conversion(w, n).is_ok());
      }
    });
  }
  for (auto& th : threads) th.join();

  const ArtifactCache::Stats st = ctx.artifact_cache().stats();
  EXPECT_EQ(st.compiles, static_cast<std::uint64_t>(kPairs));
  EXPECT_EQ(ctx.artifact_cache().size(), static_cast<std::size_t>(kPairs));
  EXPECT_EQ(st.hits + st.misses,
            static_cast<std::uint64_t>(kPairs * kThreads));
}

// -------------------------------------------------------------- sharing

TEST(SharedCache, PrivateByDefault) {
  // Each Context owns its cache: two contexts compile the pair twice.
  Context a;
  Context b;
  const auto wa = a.register_format(wire_desc());
  const auto na = a.register_format(native_desc());
  const auto wb = b.register_format(wire_desc());
  const auto nb = b.register_format(native_desc());
  ASSERT_TRUE(a.try_conversion(wa, na).is_ok());
  ASSERT_TRUE(b.try_conversion(wb, nb).is_ok());
  EXPECT_EQ(a.stats().conversions_compiled, 1u);
  EXPECT_EQ(b.stats().conversions_compiled, 1u);
}

// --------------------------------------------------------- resolver table

/// Every successful try_conversion counts exactly once in one of these.
std::uint64_t conversions_resolved(const Context& ctx) {
  const ArtifactCache::Stats s = ctx.artifact_cache().stats();
  return s.hits + s.misses;
}

std::uint64_t table_hits() {
  const obs::Snapshot snap = obs::snapshot();
  const auto* c = snap.find_counter("pbio.recv.resolve_cache_hits");
  return c == nullptr ? 0 : c->value;
}

StructSpec other_spec() {
  StructSpec s;
  s.name = "other";
  s.fields = {
      {.name = "x", .type = CType::kDouble},
      {.name = "n", .type = CType::kInt},
  };
  return s;
}

Record other_record() {
  Record r;
  r.set("x", Value(-1.75));
  r.set("n", Value(9));
  return r;
}

StructSpec third_spec() {
  StructSpec s;
  s.name = "third";
  s.fields = {
      {.name = "t", .type = CType::kShort},
      {.name = "u", .type = CType::kLongLong},
  };
  return s;
}

Record third_record() {
  Record r;
  r.set("t", Value(-5));
  r.set("u", Value(std::int64_t{1} << 40));
  return r;
}

/// A sparc writer and a host reader with their own contexts, as across a
/// real wire: the reader learns wire formats only from announcements. The
/// reader's context may be shared with other streams.
struct Stream {
  Stream() : Stream(own_rctx) {}
  explicit Stream(Context& reader_ctx) : rctx(reader_ctx) {}

  Context own_rctx;
  Context wctx;
  Context& rctx;
  std::pair<std::unique_ptr<transport::LoopbackChannel>,
            std::unique_ptr<transport::LoopbackChannel>>
      pair = transport::make_loopback_pair();
  Writer writer{wctx, *pair.first};
  Reader reader{rctx, *pair.second};

  /// Register `spec` on both ends; the reader expects it.
  Context::FormatId add(const StructSpec& spec) {
    reader.expect(
        rctx.register_format(arch::layout_format(spec, arch::abi_x86_64())));
    return wctx.register_format(
        arch::layout_format(spec, arch::abi_sparc_v8()));
  }

  /// Write `rec` as `spec` and check the reader decodes it exactly.
  void round_trip(Context::FormatId wire, const StructSpec& spec,
                  const Record& rec) {
    const fmt::FormatDesc wfmt =
        arch::layout_format(spec, arch::abi_sparc_v8());
    const fmt::FormatDesc nfmt =
        arch::layout_format(spec, arch::abi_x86_64());
    ASSERT_TRUE(writer.write_image(wire, value::materialize(wfmt, rec))
                    .is_ok());
    auto m = reader.next();
    ASSERT_TRUE(m.is_ok()) << m.status().to_string();
    std::vector<std::uint8_t> out(nfmt.fixed_size, 0);
    ASSERT_TRUE(m.value().decode_into(out.data(), out.size()).is_ok());
    auto back = value::read_record(nfmt, out);
    ASSERT_TRUE(back.is_ok());
    EXPECT_TRUE(value::equivalent(back.value(), rec))
        << Value(back.value()).to_string();
  }
};

TEST(Resolution, ReaderStreakConvertsOnce) {
  Stream s;
  const auto wire = s.add(sample_spec());
  constexpr std::uint64_t kFrames = 16;
  const std::uint64_t hits0 = table_hits();
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    s.round_trip(wire, sample_spec(), sample_record());
  }
  EXPECT_EQ(conversions_resolved(s.rctx), 1u);
  EXPECT_EQ(s.rctx.stats().conversions_compiled, 1u);
  EXPECT_EQ(table_hits() - hits0, kFrames - 1);
}

TEST(Resolution, AnnouncementMidStreakKeepsDecoding) {
  // Ids are content hashes and registry entries never change, so a format
  // announcement in the middle of a streak leaves the table valid: the A
  // frames after it still hit, then the B streak resolves once.
  Stream s;
  const auto a = s.add(sample_spec());
  const auto b = s.add(other_spec());
  const std::uint64_t hits0 = table_hits();
  for (int i = 0; i < 4; ++i) {
    s.round_trip(a, sample_spec(), sample_record());
  }
  ASSERT_TRUE(s.writer.announce(b).is_ok());
  for (int i = 0; i < 4; ++i) {
    s.round_trip(a, sample_spec(), sample_record());
  }
  for (int i = 0; i < 4; ++i) {
    s.round_trip(b, other_spec(), other_record());
  }
  EXPECT_EQ(s.reader.formats_learned(), 2u);
  EXPECT_EQ(conversions_resolved(s.rctx), 2u);
  EXPECT_EQ(table_hits() - hits0, 12u - 2u);
}

TEST(Resolution, InterleavedFormatsResolveOncePerIdPerStream) {
  // Frames of three formats in round-robin order: each wire id walks the
  // registry and the artifact cache on its first frame only; every later
  // frame resolves from the stream's table, whatever ids came between.
  Stream s;
  const auto a = s.add(sample_spec());
  const auto b = s.add(other_spec());
  const auto c = s.add(third_spec());
  constexpr std::uint64_t kFormats = 3;
  constexpr std::uint64_t kRounds = 8;
  const std::uint64_t hits0 = table_hits();
  for (std::uint64_t i = 0; i < kRounds; ++i) {
    s.round_trip(a, sample_spec(), sample_record());
    s.round_trip(b, other_spec(), other_record());
    s.round_trip(c, third_spec(), third_record());
  }
  EXPECT_EQ(conversions_resolved(s.rctx), kFormats);
  EXPECT_EQ(table_hits() - hits0, kFormats * kRounds - kFormats);
}

TEST(SharedCache, SecondReaderCompilesNothing) {
  // Two streams whose readers share one Context share its artifacts: the
  // pair compiles once, and the second reader is served the first one's
  // artifact out of the cache.
  Context rctx;
  Stream a(rctx);
  Stream b(rctx);
  const auto wa = a.add(sample_spec());
  const auto wb = b.add(sample_spec());
  a.round_trip(wa, sample_spec(), sample_record());
  b.round_trip(wb, sample_spec(), sample_record());

  const ArtifactCache::Stats st = rctx.artifact_cache().stats();
  EXPECT_EQ(st.compiles, 1u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(rctx.artifact_cache().size(), 1u);
}

// --------------------------------------------------------- counter store

/// Every Stats field of the caches below moves its pbio.cache.* series by
/// exactly as much, and a Context's stats are its cache's: both read the
/// same counters, and nothing else counts these events.
TEST(CounterStore, CacheAndContextStatsAreTheirObsSeries) {
  const obs::Snapshot before = obs::snapshot();
  Context warm;  // compiles, then hits
  {
    const auto w = warm.register_format(wire_desc());
    const auto n = warm.register_format(native_desc());
    ASSERT_TRUE(warm.try_conversion(w, n).is_ok());
    ASSERT_TRUE(warm.try_conversion(w, n).is_ok());
  }
  // A stampede on a cold pair may ride a flight.
  Context cold;
  {
    const auto w = cold.register_format(wire_desc());
    const auto n = cold.register_format(native_desc());
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        EXPECT_TRUE(cold.try_conversion(w, n).is_ok());
      });
    }
    for (auto& th : threads) th.join();
  }
  const obs::Snapshot after = obs::snapshot();
  const auto delta = [&](const char* name) {
    const auto* c0 = before.find_counter(name);
    const auto* c1 = after.find_counter(name);
    EXPECT_NE(c1, nullptr) << name << " is not served";
    return (c1 == nullptr ? 0 : c1->value) - (c0 == nullptr ? 0 : c0->value);
  };

  const ArtifactCache::Stats c1 = warm.artifact_cache().stats();
  const ArtifactCache::Stats c2 = cold.artifact_cache().stats();
  EXPECT_EQ(delta("pbio.cache.hits"), c1.hits + c2.hits);
  EXPECT_EQ(delta("pbio.cache.misses"), c1.misses + c2.misses);
  EXPECT_EQ(delta("pbio.cache.single_flight_waits"),
            c1.single_flight_waits + c2.single_flight_waits);
  EXPECT_EQ(delta("pbio.cache.compiles"), c1.compiles + c2.compiles);
  EXPECT_EQ(delta("pbio.cache.jit_code_bytes"),
            c1.jit_code_bytes + c2.jit_code_bytes);
  EXPECT_EQ(delta("pbio.cache.tier_ups"), c1.tier_ups + c2.tier_ups);

  for (const Context* ctx : {&warm, &cold}) {
    const Context::Stats s = ctx->stats();
    const ArtifactCache::Stats c = ctx->artifact_cache().stats();
    EXPECT_EQ(s.conversions_compiled, c.compiles);
    EXPECT_EQ(s.conversion_cache_hits, c.hits);
    EXPECT_EQ(s.jit_code_bytes, c.jit_code_bytes);
  }
  for (const char* gone : {"pbio.conv.compiled", "pbio.conv.cache_hits",
                           "pbio.conv.jit_code_bytes"}) {
    EXPECT_EQ(after.find_counter(gone), nullptr) << gone << " is counted twice";
  }

  // The workload itself: one compile and one hit for `warm`, one compile
  // for the stampede, and one hit or miss per resolution.
  EXPECT_EQ(c1.compiles, 1u);
  EXPECT_EQ(c1.hits, 1u);
  EXPECT_EQ(c2.compiles, 1u);
  EXPECT_EQ(c1.hits + c1.misses + c2.hits + c2.misses, 6u);
}

}  // namespace
}  // namespace pbio
