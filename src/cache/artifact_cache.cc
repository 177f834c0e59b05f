#include "cache/artifact_cache.h"

#include <cassert>
#include <utility>

#include "convert/plan.h"
#include "obs/obs.h"
#include "obs/span.h"
#include "verify/verify.h"

namespace pbio::cache {

ArtifactCache::ArtifactCache() = default;
ArtifactCache::~ArtifactCache() = default;

ArtifactCache::Artifact ArtifactCache::probe(const Shard& shard,
                                             PairKey key) const {
  // Pairs with the release store in publish(): a reader that sees the new
  // map pointer also sees the fully constructed map behind it.
  const Map* map = shard.live.load(std::memory_order_acquire);  // mo: acquire pairs with publish()'s release store
  if (map == nullptr) return nullptr;
  auto it = map->find(key);
  if (it == map->end()) return nullptr;
  return it->second;
}

void ArtifactCache::publish(Shard& shard, PairKey key, Artifact artifact) {
  const Map* old = shard.live.load(std::memory_order_relaxed);  // mo: mu held; only publishers (who hold mu) store this pointer
  auto next = old != nullptr ? std::make_unique<Map>(*old)
                             : std::make_unique<Map>();
  (*next)[key] = std::move(artifact);
  const Map* fresh = next.get();
  shard.history.push_back(std::move(next));
  shard.live.store(fresh, std::memory_order_release);  // mo: release pairs with probe()'s acquire load; publishes the map contents
}

Result<ArtifactCache::Artifact> ArtifactCache::get_or_build(
    const fmt::FormatDesc& wire, const fmt::FormatDesc& native, PairKey key,
    Build mode) {
  Result<Artifact> got = find_or_build(wire, native, key, mode);
  if (!got.is_ok() || mode != Build::kEager) return got;
  // Eager: a plan-only artifact gets its code here, or from the thread
  // already generating it.
  const Artifact& artifact = got.value();
  if (artifact->pending()) tier_up(artifact);
  artifact->wait_tier_up();
  return got;
}

Result<ArtifactCache::Artifact> ArtifactCache::find_or_build(
    const fmt::FormatDesc& wire, const fmt::FormatDesc& native, PairKey key,
    Build mode) {
  Shard& shard = shards_[shard_of(key)];
  if (Artifact hit = probe(shard, key)) {
    counters_.add(kHits, 1);
    return hit;
  }
  counters_.add(kMisses, 1);

  // Single-flight: exactly one caller builds a given key; the rest park on
  // the flight's condvar and share the result (or the failure).
  std::shared_ptr<Flight> flight;
  bool leader = false;
  {
    MutexLock lock(shard.mu);
    // Re-probe under the lock: a build may have been published between the
    // lock-free miss above and here.
    if (Artifact hit = probe(shard, key)) return hit;
    auto [it, inserted] =
        shard.inflight.try_emplace(key, std::shared_ptr<Flight>());
    if (inserted) {
      it->second = std::make_shared<Flight>();
      leader = true;
    }
    flight = it->second;
  }

  if (!leader) {
    counters_.add(kWaits, 1);
    MutexLock lock(flight->mu);
    // The predicate runs with flight->mu held (CondVar::wait's contract),
    // but the analysis cannot see through condition_variable_any's template.
    flight->cv.wait(lock, [&]() PBIO_NO_THREAD_SAFETY_ANALYSIS {
      return flight->done;
    });
    if (!flight->error.is_ok()) return flight->error;
    return flight->artifact;
  }

  // Leader path: build with no locks held, then publish and wake waiters.
  Result<Artifact> built = build(wire, native, mode);
  if (built.is_ok()) {
    MutexLock lock(shard.mu);
    publish(shard, key, built.value());
    shard.inflight.erase(key);
  } else {
    MutexLock lock(shard.mu);
    shard.inflight.erase(key);
  }
  {
    MutexLock lock(flight->mu);
    flight->done = true;
    if (built.is_ok()) {
      flight->artifact = built.value();
    } else {
      flight->error = built.status();
    }
  }
  flight->cv.notify_all();
  return built;
}

void ArtifactCache::tier_up(const Artifact& artifact) {
  if (!artifact->claim_tier_up()) return;
  counters_.add(kTierUps, 1);
  generate(artifact);
}

Result<ArtifactCache::Artifact> ArtifactCache::build(
    const fmt::FormatDesc& wire, const fmt::FormatDesc& native, Build mode) {
  convert::Plan plan;
  {
    OBS_SPAN("pbio.cache.plan");
    try {
      plan = convert::compile_plan(wire, native);
    } catch (const convert::PlanBuildError& e) {
      return Status(Errc::kMalformed, e.what());
    }
  }
  {
    OBS_SPAN("pbio.cache.verify");
    Status vst = verify::verify_status(plan);
    if (!vst.is_ok()) {
      assert(false && "compile_plan produced an unverifiable plan");
      return vst;
    }
  }
  plan.verified = true;

  Artifact artifact = std::make_shared<const vcode::CompiledConvert>(
      std::move(plan), vcode::CompiledConvert::Deferred{});
  if (mode == Build::kEager) {
    artifact->claim_tier_up();
    generate(artifact);
  }
  counters_.add(kCompiles, 1);
  return artifact;
}

void ArtifactCache::generate(const Artifact& artifact) {
  {
    OBS_SPAN("pbio.cache.compile");
    artifact->generate();
  }
  counters_.add(kJitCodeBytes, artifact->code_size());
}

ArtifactCache::Stats ArtifactCache::stats() const {
  return {counters_.get(kHits),         counters_.get(kMisses),
          counters_.get(kWaits),        counters_.get(kCompiles),
          counters_.get(kJitCodeBytes), counters_.get(kTierUps)};
}

std::size_t ArtifactCache::size() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    const Map* map = shard.live.load(std::memory_order_acquire);  // mo: acquire pairs with publish()'s release store
    if (map != nullptr) n += map->size();
  }
  return n;
}

}  // namespace pbio::cache
