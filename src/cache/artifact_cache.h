// Conversion-artifact cache: verified plans and sealed JIT code buffers,
// one per structural (wire, native) format pair. Each pbio::Context owns
// one, so every caller that resolves through a Context — the readers of a
// process, or every connection and worker of a broker (broker::Shared::ctx)
// — shares its artifacts.
//
// Motivation: a broker fleet holds thousands of
// connections that share a handful of (wire, native) format pairs, yet
// each connection used to pay plan build + static verify + JIT +
// translation validation per pair. This cache makes the artifact the unit
// of sharing:
//
//  * keys are canonical structural hashes (fmt::canonical_hash) of the
//    format pair, so byte-order/field-order/arch-name presentation
//    differences collapse onto one artifact;
//  * one map under one mutex: a lookup takes the lock and finds the
//    artifact, joins a build already in flight, or starts one. Receive
//    streams ask only on a stream's first frame of each wire id (their
//    Resolver tables answer every later frame), so the lock is off the
//    per-message path;
//  * a stampede of cold callers is collapsed by single-flight: the first
//    caller compiles, everyone else waits on the cache's condvar and
//    shares the one sealed buffer — a 10k-connection cold start performs
//    exactly one compile per distinct pair;
//  * code can be deferred (Build::kDeferred): the artifact is published
//    with its verified plan only and interprets until tier_up() runs the
//    code step (JIT + translation validation + W^X seal) into it. Receive
//    streams build this way and tier up a pair once it recurs
//    (pbio/resolver.h).
//
// Metrics: pbio.cache.{hits,misses,single_flight_waits,compiles,
// jit_code_bytes,tier_ups}, one obs::CounterBlock per cache and the only
// count of these events; stats() (and Context::stats()) read the same
// counters mutex-free.
// thread-domain: any
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "fmt/format.h"
#include "obs/obs.h"
#include "util/error.h"
#include "util/mutex.h"
#include "vcode/jit_convert.h"

namespace pbio::cache {

/// Conversion-artifact cache key: the canonical structural hashes
/// (fmt::canonical_hash) of the wire and native format descriptions.
struct PairKey {
  std::uint64_t wire = 0;
  std::uint64_t native = 0;

  bool operator==(const PairKey&) const = default;
};

struct PairKeyHash {
  std::size_t operator()(const PairKey& k) const {
    return static_cast<std::size_t>(k.wire * 0x9E3779B97F4A7C15ull ^ k.native);
  }
};

/// When get_or_build() generates an artifact's code.
enum class Build : std::uint8_t {
  kEager,     // before returning it (tiering up a plan-only hit)
  kDeferred,  // not yet: a new artifact is plan-only until tier_up()
};

// thread-domain: any
class ArtifactCache {
 public:
  ArtifactCache();
  ~ArtifactCache();

  ArtifactCache(const ArtifactCache&) = delete;
  ArtifactCache& operator=(const ArtifactCache&) = delete;

  using Artifact = std::shared_ptr<const vcode::CompiledConvert>;

  /// Fetch (building on first use, stampede-collapsed) the conversion
  /// artifact for `wire` -> `native`, keyed by the canonical hashes the
  /// caller resolved alongside the descriptions. Failures (plan build or
  /// verification errors) are returned to every waiter and are not cached.
  /// `mode` says whether the artifact must carry its code on return.
  Result<Artifact> get_or_build(const fmt::FormatDesc& wire,
                                const fmt::FormatDesc& native, PairKey key,
                                Build mode = Build::kEager);

  /// Generate the code of a plan-only `artifact` (JIT + tval + W^X seal),
  /// published into the artifact itself. Never waits: a call that loses
  /// the artifact's claim (another thread is generating, or it already
  /// happened) returns at once, having generated nothing. The winner
  /// counts pbio.cache.tier_ups.
  void tier_up(const Artifact& artifact);

  /// This cache's share of the pbio.cache.* series, read mutex-free
  /// (relaxed; cross-counter consistency not promised).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t single_flight_waits = 0;
    std::uint64_t compiles = 0;
    std::uint64_t jit_code_bytes = 0;
    std::uint64_t tier_ups = 0;  // plan-only artifacts given code later
  };
  Stats stats() const;

  /// Number of distinct artifacts currently published.
  std::size_t size() const;

 private:
  /// One in-progress build, shared by the leader and every waiter; both
  /// fields are read and written only under the cache's mu_.
  struct Flight {
    bool done = false;
    Result<Artifact> result = Artifact();  // valid once done
  };

  /// get_or_build() up to the code: the map hit, the single-flight wait,
  /// or the leader's build().
  Result<Artifact> find_or_build(const fmt::FormatDesc& wire,
                                 const fmt::FormatDesc& native, PairKey key,
                                 Build mode);

  /// The build pipeline (leader only, no locks held): plan build + static
  /// verify into a plan-only artifact, then, for kEager, generate().
  Result<Artifact> build(const fmt::FormatDesc& wire,
                         const fmt::FormatDesc& native, Build mode);

  /// The code step for an artifact whose tier-up claim the caller holds:
  /// JIT + tval + W^X seal.
  void generate(const Artifact& artifact);

  mutable Mutex mu_;
  /// Signalled when a flight completes; waiters re-check their own.
  CondVar cv_;
  std::unordered_map<PairKey, Artifact, PairKeyHash> artifacts_
      PBIO_GUARDED_BY(mu_);
  std::unordered_map<PairKey, std::shared_ptr<Flight>, PairKeyHash> inflight_
      PBIO_GUARDED_BY(mu_);

  // In Stats field order.
  enum Counter : std::size_t {
    kHits, kMisses, kWaits, kCompiles, kJitCodeBytes, kTierUps,
  };
  obs::CounterBlock counters_{
      "pbio.cache.hits", "pbio.cache.misses", "pbio.cache.single_flight_waits",
      "pbio.cache.compiles", "pbio.cache.jit_code_bytes",
      "pbio.cache.tier_ups"};
};

}  // namespace pbio::cache
