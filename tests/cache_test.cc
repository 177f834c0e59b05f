// Fleet-scale conversion-artifact cache: canonical keying, the resolution
// path in front of it (a stream's Resolver front, unknown ids), single-
// flight stampede collapse, cross-context artifact sharing, and the
// persisted-codegen trust model (a poisoned cache file is rejected by the
// loader or the translation validator and never executes — the context
// falls back to a fresh compile and still converts correctly).
#include "cache/artifact_cache.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "arch/layout.h"
#include "cache/persist.h"
#include "fmt/format.h"
#include "obs/obs.h"
#include "pbio/context.h"
#include "pbio/reader.h"
#include "pbio/resolver.h"
#include "pbio/writer.h"
#include "transport/loopback.h"
#include "util/endian.h"
#include "convert/kernels/kernels.h"
#include "value/materialize.h"
#include "value/random.h"
#include "value/read.h"
#include "vcode/jit_convert.h"

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
  // conversion emits real kernel *calls* — the persisted-relocation tests
  // need absolute addresses in the generated code to exercise.
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
/// kernels, so generated code carries real call sites to relocate.
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
  ASSERT_TRUE(run(conv, in, Engine::kDcg).is_ok());
  auto back = value::read_record(native, out);
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(value::equivalent(back.value(), sample_record()))
      << Value(back.value()).to_string();
}

/// mkdtemp-backed scratch directory, removed on scope exit.
struct TempDir {
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "pbio_cache_XXXXXX")
            .string();
    path = mkdtemp(tmpl.data());
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

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
  EXPECT_EQ(first.value().artifact.get(), second.value().artifact.get());
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
  Resolver resolver(ctx, expected);
  auto e = resolver.resolve(0xdeadbeefdeadbeefull);
  ASSERT_FALSE(e.is_ok());
  EXPECT_EQ(e.status().code(), Errc::kUnknownFormat);
  EXPECT_EQ(ctx.stats().shared_cache_misses, 0u);
  EXPECT_EQ(ctx.stats().conversion_cache_hits, 0u);
  EXPECT_EQ(ctx.artifact_cache().stats().compiles, 0u);
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

// -------------------------------------------------------------- sharing

TEST(SharedCache, SecondContextCompilesNothing) {
  auto shared = std::make_shared<ArtifactCache>();
  Context a(shared);
  Context b(shared);
  const auto wa = a.register_format(wire_desc());
  const auto na = a.register_format(native_desc());
  const auto wb = b.register_format(wire_desc());
  const auto nb = b.register_format(native_desc());

  auto ca = a.try_conversion(wa, na);
  ASSERT_TRUE(ca.is_ok());
  auto cb = b.try_conversion(wb, nb);
  ASSERT_TRUE(cb.is_ok());

  EXPECT_EQ(a.stats().conversions_compiled, 1u);
  EXPECT_EQ(b.stats().conversions_compiled, 0u);
  EXPECT_EQ(b.stats().conversion_cache_hits, 1u);
  EXPECT_EQ(shared->stats().compiles, 1u);
  EXPECT_EQ(ca.value().get(), cb.value().get());
}

TEST(SharedCache, PrivateByDefault) {
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

// --------------------------------------------------------- resolver front

/// Every successful try_conversion counts exactly once in one of these.
std::uint64_t conversions_resolved(const Context& ctx) {
  const Context::Stats s = ctx.stats();
  return s.conversion_cache_hits + s.shared_cache_misses;
}

std::uint64_t front_hits() {
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

/// A sparc writer and a host reader with their own contexts, as across a
/// real wire: the reader learns wire formats only from announcements.
struct Stream {
  Context wctx;
  Context rctx;
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
    ASSERT_TRUE(m.value().decode_into(out.data(), out.size(), Engine::kDcg)
                    .is_ok());
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
  const std::uint64_t hits0 = front_hits();
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    s.round_trip(wire, sample_spec(), sample_record());
  }
  EXPECT_EQ(conversions_resolved(s.rctx), 1u);
  EXPECT_EQ(s.rctx.stats().conversions_compiled, 1u);
  EXPECT_EQ(front_hits() - hits0, kFrames - 1);
}

TEST(Resolution, AnnouncementMidStreakKeepsDecoding) {
  // Ids are content hashes and registry entries never change, so a format
  // announcement in the middle of a streak leaves the front valid: the A
  // frames after it still hit, then the B streak resolves once.
  Stream s;
  const auto a = s.add(sample_spec());
  const auto b = s.add(other_spec());
  const std::uint64_t hits0 = front_hits();
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
  EXPECT_EQ(front_hits() - hits0, 12u - 2u);
}

// --------------------------------------------------------- counter store

/// Every Stats field of the caches and contexts below, summed, must move
/// its pbio.* series by exactly as much: both read the same counters.
TEST(CounterStore, CacheAndContextStatsAreTheirObsSeries) {
  const obs::Snapshot before = obs::snapshot();
  TempDir dir;
  auto shared = std::make_shared<ArtifactCache>();
  shared->set_persist_dir(dir.path);
  Context a(shared);
  Context b(shared);
  for (Context* ctx : {&a, &b}) {  // a compiles (and persists), b hits
    const auto w = ctx->register_format(wire_desc());
    const auto n = ctx->register_format(native_desc());
    ASSERT_TRUE(ctx->try_conversion(w, n).is_ok());
    ASSERT_TRUE(ctx->try_conversion(w, n).is_ok());
  }
  // A restart over the same directory re-proves the saved code where the
  // build can (JIT + tval); a stampede on a cold pair may ride a flight.
  Context restarted;
  restarted.artifact_cache().set_persist_dir(dir.path);
  {
    const auto w = restarted.register_format(wire_desc());
    const auto n = restarted.register_format(native_desc());
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        EXPECT_TRUE(restarted.try_conversion(w, n).is_ok());
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

  const ArtifactCache::Stats c1 = shared->stats();
  const ArtifactCache::Stats c2 = restarted.artifact_cache().stats();
  EXPECT_EQ(delta("pbio.cache.hits"), c1.hits + c2.hits);
  EXPECT_EQ(delta("pbio.cache.misses"), c1.misses + c2.misses);
  EXPECT_EQ(delta("pbio.cache.single_flight_waits"),
            c1.single_flight_waits + c2.single_flight_waits);
  EXPECT_EQ(delta("pbio.cache.compiles"), c1.compiles + c2.compiles);
  EXPECT_EQ(delta("pbio.cache.jit_code_bytes"),
            c1.jit_code_bytes + c2.jit_code_bytes);
  EXPECT_EQ(delta("pbio.cache.persist_loads"),
            c1.persist_loads + c2.persist_loads);
  EXPECT_EQ(delta("pbio.cache.persist_saves"),
            c1.persist_saves + c2.persist_saves);
  EXPECT_EQ(delta("pbio.cache.persist_rejects"),
            c1.persist_rejects + c2.persist_rejects);
  EXPECT_EQ(delta("pbio.cache.tier_ups"), c1.tier_ups + c2.tier_ups);

  Context::Stats sum;
  for (const Context* ctx : {&a, &b, &restarted}) {
    const Context::Stats s = ctx->stats();
    sum.conversions_compiled += s.conversions_compiled;
    sum.conversion_cache_hits += s.conversion_cache_hits;
    sum.jit_code_bytes += s.jit_code_bytes;
    sum.shared_cache_misses += s.shared_cache_misses;
    sum.single_flight_waits += s.single_flight_waits;
    sum.persist_loads += s.persist_loads;
  }
  EXPECT_EQ(delta("pbio.conv.compiled"), sum.conversions_compiled);
  EXPECT_EQ(delta("pbio.conv.cache_hits"), sum.conversion_cache_hits);
  EXPECT_EQ(delta("pbio.conv.jit_code_bytes"), sum.jit_code_bytes);
  EXPECT_EQ(delta("pbio.conv.shared_cache_misses"), sum.shared_cache_misses);
  EXPECT_EQ(delta("pbio.conv.single_flight_waits"), sum.single_flight_waits);
  EXPECT_EQ(delta("pbio.conv.persist_loads"), sum.persist_loads);

  // The workload itself: one compile for a and b, one hit by b.
  EXPECT_EQ(a.stats().conversions_compiled, 1u);
  EXPECT_EQ(b.stats().conversion_cache_hits, 2u);
  EXPECT_EQ(c1.compiles, 1u);
  EXPECT_EQ(sum.conversion_cache_hits + sum.shared_cache_misses, 8u);
}

// ---------------------------------------------------------- persistence

/// Everything persisted-cache: needs the JIT and the translation
/// validator (PBIO_TVAL=OFF builds have no way to prove a loaded buffer,
/// so the cache never touches disk there — which this fixture verifies).
class PersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Context probe;
    const auto w = probe.register_format(wire_desc());
    const auto n = probe.register_format(native_desc());
    auto c = probe.try_conversion(w, n);
    ASSERT_TRUE(c.is_ok());
    jitted_ = c.value()->jitted();
  }

  /// Compile once into `dir`; returns the number of .pbcc files written.
  std::size_t warm_disk_cache(const std::string& dir) {
    Context ctx;
    ctx.artifact_cache().set_persist_dir(dir);
    const auto wire = ctx.register_format(wire_desc());
    const auto native = ctx.register_format(native_desc());
    auto conv = ctx.try_conversion(wire, native);
    EXPECT_TRUE(conv.is_ok());
    EXPECT_EQ(ctx.artifact_cache().stats().persist_saves,
              cache::persist::list(dir).size());
    return cache::persist::list(dir).size();
  }

  bool jitted_ = false;
  TempDir tmp_;
};

TEST_F(PersistTest, WarmRestartLoadsInsteadOfCompiling) {
  if (!vcode::tval_enabled() || !jitted_) {
    GTEST_SKIP() << "persisted cache requires JIT + tval";
  }
  ASSERT_EQ(warm_disk_cache(tmp_.path), 1u);

  // "Restart": a fresh cache and context over the same directory.
  Context ctx;
  ctx.artifact_cache().set_persist_dir(tmp_.path);
  const auto wire = ctx.register_format(wire_desc());
  const auto native = ctx.register_format(native_desc());
  auto conv = ctx.try_conversion(wire, native);
  ASSERT_TRUE(conv.is_ok());
  EXPECT_EQ(ctx.stats().conversions_compiled, 0u);
  EXPECT_EQ(ctx.stats().persist_loads, 1u);
  EXPECT_EQ(ctx.artifact_cache().stats().compiles, 0u);
  EXPECT_EQ(ctx.artifact_cache().stats().persist_loads, 1u);
  EXPECT_TRUE(conv.value()->jitted());
  expect_converts(ctx, *conv.value(), wire_desc(), native_desc());
}

TEST_F(PersistTest, PersistedFileCarriesZeroedCallSlots) {
  if (!vcode::tval_enabled() || !jitted_) {
    GTEST_SKIP() << "persisted cache requires JIT + tval";
  }
  ASSERT_EQ(warm_disk_cache(tmp_.path), 1u);
  const auto paths = cache::persist::list(tmp_.path);
  std::ifstream f(paths[0], std::ios::binary);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                                  std::istreambuf_iterator<char>());
  cache::persist::FileImage img;
  std::string why;
  ASSERT_TRUE(cache::persist::decode_file(bytes, &img, &why)) << why;
  ASSERT_FALSE(img.call_sites.empty())
      << "swap conversion should carry kernel call sites";
  for (std::uint32_t site : img.call_sites) {
    ASSERT_LE(site + 8u, img.code.size());
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(img.code[site + static_cast<std::size_t>(i)], 0u)
          << "absolute address leaked into the persisted file";
    }
  }
}

/// Re-encode a (possibly tampered) image under the name load() will look
/// up. encode_file re-seals the payload checksum, so what's left to stop a
/// tampered file is exactly the verifier chain — the thing under test.
void write_as_cache_entry(const std::string& dir,
                          const cache::persist::FileImage& img,
                          PairKey key) {
  const auto bytes = cache::persist::encode_file(img);
  const auto path =
      std::filesystem::path(dir) /
      cache::persist::file_name(
          key, static_cast<std::uint32_t>(convert::kernels::active_isa()),
          vcode::kEmitterVersion);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

class PoisonTest : public PersistTest {
 protected:
  void SetUp() override {
    PersistTest::SetUp();
    if (!vcode::tval_enabled() || !jitted_) {
      GTEST_SKIP() << "persisted cache requires JIT + tval";
    }
    ASSERT_EQ(warm_disk_cache(tmp_.path), 1u);
    const auto paths = cache::persist::list(tmp_.path);
    path_ = paths[0];
    std::ifstream f(path_, std::ios::binary);
    bytes_.assign((std::istreambuf_iterator<char>(f)),
                  std::istreambuf_iterator<char>());
    std::string why;
    ASSERT_TRUE(cache::persist::decode_file(bytes_, &img_, &why)) << why;
    key_ = img_.key;
  }

  /// A fresh context over the (tampered) directory must reject the file,
  /// fall back to a fresh compile, and still convert correctly.
  void expect_rejected_and_recovered() {
    Context ctx;
    ctx.artifact_cache().set_persist_dir(tmp_.path);
    const auto wire = ctx.register_format(wire_desc());
    const auto native = ctx.register_format(native_desc());
    auto conv = ctx.try_conversion(wire, native);
    ASSERT_TRUE(conv.is_ok());
    EXPECT_GE(ctx.artifact_cache().stats().persist_rejects, 1u);
    EXPECT_EQ(ctx.artifact_cache().stats().persist_loads, 0u);
    EXPECT_EQ(ctx.stats().conversions_compiled, 1u);
    expect_converts(ctx, *conv.value(), wire_desc(), native_desc());
  }

  std::string path_;
  std::vector<std::uint8_t> bytes_;
  cache::persist::FileImage img_;
  PairKey key_;
};

TEST_F(PoisonTest, BitFlippedPayloadFailsTheChecksum) {
  bytes_[bytes_.size() - 1] ^= 0x01;  // last code byte, checksum NOT re-sealed
  std::ofstream(path_, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes_.data()),
             static_cast<std::streamsize>(bytes_.size()));
  expect_rejected_and_recovered();
}

TEST_F(PoisonTest, ResealedTamperedCodeFailsTheValidator) {
  // Flip instruction bytes and re-seal the checksum: the structural layer
  // now passes, so only the translation validator stands between this file
  // and execution.
  img_.code[0] ^= 0xFF;
  img_.code[img_.code.size() / 2] ^= 0xFF;
  write_as_cache_entry(tmp_.path, img_, key_);
  expect_rejected_and_recovered();
}

TEST_F(PoisonTest, NonZeroCallSlotRejectedBeforePatching) {
  // Smuggle an absolute address into a "zeroed" slot (re-sealed): adopt()
  // must refuse to patch over it — addresses only ever come from the plan.
  ASSERT_FALSE(img_.call_sites.empty());
  img_.code[img_.call_sites[0]] = 0x41;
  write_as_cache_entry(tmp_.path, img_, key_);
  expect_rejected_and_recovered();
}

TEST_F(PoisonTest, TruncatedFileRejected) {
  bytes_.resize(bytes_.size() - 7);
  std::ofstream(path_, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes_.data()),
             static_cast<std::streamsize>(bytes_.size()));
  expect_rejected_and_recovered();
}

TEST_F(PoisonTest, TruncatedCallSiteTableRejected) {
  // Inflate the header's call-site count without growing the payload: the
  // claimed table now extends past the file, overlapping the meta/code
  // sections. decode_file sums the capped section sizes and compares the
  // total against the remaining bytes exactly, so the lie is structural —
  // it must die in the loader, before any site offset is dereferenced.
  constexpr std::size_t kCallSiteCountOffset = 8 + 4 + 4 + 4;  // after magic,
  // file_version, emitter_version, isa_tier (see persist.cc kHeaderSize).
  const std::uint64_t claimed = img_.call_sites.size() + 9;
  store_uint(bytes_.data() + kCallSiteCountOffset, claimed, 4,
             ByteOrder::kLittle);
  cache::persist::FileImage out;
  std::string why;
  ASSERT_FALSE(cache::persist::decode_file(bytes_, &out, &why));
  EXPECT_EQ(why, "payload size mismatch");
  std::ofstream(path_, std::ios::binary | std::ios::trunc)
      .write(reinterpret_cast<const char*>(bytes_.data()),
             static_cast<std::streamsize>(bytes_.size()));
  expect_rejected_and_recovered();
}

TEST_F(PoisonTest, CallSiteCountAboveCapRejected) {
  // A count above kMaxCallSites must be rejected by the cap itself — the
  // static_assert in persist.cc pins caps low enough that the payload sum
  // can never wrap, but the cap check is the first line of that defense.
  constexpr std::size_t kCallSiteCountOffset = 8 + 4 + 4 + 4;
  store_uint(bytes_.data() + kCallSiteCountOffset, (1u << 16) + 1, 4,
             ByteOrder::kLittle);
  cache::persist::FileImage out;
  std::string why;
  ASSERT_FALSE(cache::persist::decode_file(bytes_, &out, &why));
  EXPECT_EQ(why, "bad call-site count");
}

TEST_F(PoisonTest, WrongIsaTierInHeaderRejected) {
  img_.isa_tier = img_.isa_tier + 1;  // header lies relative to file name
  write_as_cache_entry(tmp_.path, img_, key_);
  expect_rejected_and_recovered();
}

TEST_F(PoisonTest, WrongEmitterVersionInHeaderRejected) {
  img_.emitter_version = vcode::kEmitterVersion + 1;
  write_as_cache_entry(tmp_.path, img_, key_);
  expect_rejected_and_recovered();
}

TEST_F(PoisonTest, GarbageCodeWithValidChecksumNeverExecutes) {
  // NOP sled with correctly zeroed call slots and a valid checksum: every
  // structural check passes; the validator is the only thing left and it
  // must reject (no epilogue, no bounds checks, wrong shape entirely).
  std::fill(img_.code.begin(), img_.code.end(), 0x90);
  for (std::uint32_t site : img_.call_sites) {
    std::memset(img_.code.data() + site, 0, 8);
  }
  write_as_cache_entry(tmp_.path, img_, key_);
  expect_rejected_and_recovered();
}

TEST_F(PoisonTest, AdoptRejectsCallSiteCountMismatch) {
  auto plan = convert::compile_plan(wire_desc(), native_desc());
  auto code = img_.code;
  std::vector<std::uint32_t> sites = img_.call_sites;
  sites.pop_back();
  auto adopted = vcode::CompiledConvert::adopt(std::move(plan),
                                               std::move(code), sites);
  ASSERT_FALSE(adopted.is_ok());
  EXPECT_EQ(adopted.status().code(), Errc::kMalformed);
}

}  // namespace
}  // namespace pbio
