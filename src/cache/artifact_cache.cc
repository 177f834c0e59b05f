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
  // Single-flight: exactly one caller builds a given key; the rest wait on
  // cv_ for its flight and share the result (or the failure).
  std::shared_ptr<Flight> flight;
  {
    MutexLock lock(mu_);
    if (auto it = artifacts_.find(key); it != artifacts_.end()) {
      counters_.add(kHits, 1);
      return it->second;
    }
    counters_.add(kMisses, 1);
    std::shared_ptr<Flight>& slot = inflight_[key];
    if (slot != nullptr) {
      counters_.add(kWaits, 1);
      flight = slot;
      // The predicate runs with mu_ held (CondVar::wait's contract), but
      // the analysis cannot see through condition_variable_any's template.
      cv_.wait(lock, [&]() PBIO_NO_THREAD_SAFETY_ANALYSIS {
        return flight->done;
      });
      return flight->result;
    }
    slot = flight = std::make_shared<Flight>();
  }

  // Leader path: build with no lock held, then insert and wake waiters.
  Result<Artifact> built = build(wire, native, mode);
  {
    MutexLock lock(mu_);
    if (built.is_ok()) artifacts_.emplace(key, built.value());
    inflight_.erase(key);
    flight->done = true;
    flight->result = built;
  }
  cv_.notify_all();
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
  try {
    plan = convert::compile_plan(wire, native);
  } catch (const convert::PlanBuildError& e) {
    return Status(Errc::kMalformed, e.what());
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
  artifact->generate();
  counters_.add(kJitCodeBytes, artifact->code_size());
}

ArtifactCache::Stats ArtifactCache::stats() const {
  return {counters_.get(kHits),         counters_.get(kMisses),
          counters_.get(kWaits),        counters_.get(kCompiles),
          counters_.get(kJitCodeBytes), counters_.get(kTierUps)};
}

std::size_t ArtifactCache::size() const {
  MutexLock lock(mu_);
  return artifacts_.size();
}

}  // namespace pbio::cache
