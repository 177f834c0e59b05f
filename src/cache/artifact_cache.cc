#include "cache/artifact_cache.h"

#include <cassert>
#include <cstring>
#include <utility>

#include "convert/kernels/kernels.h"
#include "convert/plan.h"
#include "fmt/meta.h"
#include "obs/obs.h"
#include "obs/span.h"
#include "verify/verify.h"

namespace pbio::cache {

ArtifactCache::ArtifactCache() = default;
ArtifactCache::~ArtifactCache() = default;

std::shared_ptr<const vcode::CompiledConvert> ArtifactCache::probe(
    const Shard& shard, PairKey key) const {
  // Pairs with the release store in publish(): a reader that sees the new
  // map pointer also sees the fully constructed map behind it.
  const Map* map = shard.live.load(std::memory_order_acquire);  // mo: acquire pairs with publish()'s release store
  if (map == nullptr) return nullptr;
  auto it = map->find(key);
  if (it == map->end()) return nullptr;
  return it->second;
}

std::shared_ptr<const vcode::CompiledConvert> ArtifactCache::lookup(
    PairKey key) const {
  return probe(shards_[shard_of(key)], key);
}

void ArtifactCache::publish(
    Shard& shard, PairKey key,
    std::shared_ptr<const vcode::CompiledConvert> artifact) {
  const Map* old = shard.live.load(std::memory_order_relaxed);  // mo: mu held; only publishers (who hold mu) store this pointer
  auto next = old != nullptr ? std::make_unique<Map>(*old)
                             : std::make_unique<Map>();
  (*next)[key] = std::move(artifact);
  const Map* fresh = next.get();
  shard.history.push_back(std::move(next));
  shard.live.store(fresh, std::memory_order_release);  // mo: release pairs with probe()'s acquire load; publishes the map contents
}

Result<ArtifactCache::Got> ArtifactCache::get_or_build(
    const fmt::FormatDesc& wire, const fmt::FormatDesc& native, PairKey key,
    Build mode) {
  Result<Got> got = find_or_build(wire, native, key, mode);
  if (!got.is_ok() || mode != Build::kEager) return got;
  // Eager: a plan-only artifact gets its code here, or from the thread
  // already generating it.
  Got& g = got.value();
  if (g.artifact->pending()) {
    const Got up = tier_up(wire, native, key, g.artifact);
    g.code_bytes = up.code_bytes;
    g.persisted = up.persisted;
  }
  g.artifact->wait_tier_up();
  return got;
}

Result<ArtifactCache::Got> ArtifactCache::find_or_build(
    const fmt::FormatDesc& wire, const fmt::FormatDesc& native, PairKey key,
    Build mode) {
  Shard& shard = shards_[shard_of(key)];
  if (auto hit = probe(shard, key)) {
    counters_.add(kHits, 1);
    return Got{std::move(hit), Source::kCached};
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
    if (auto hit = probe(shard, key)) {
      return Got{std::move(hit), Source::kCached};
    }
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
    return Got{flight->artifact, Source::kWaited};
  }

  // Leader path: build with no locks held, then publish and wake waiters.
  Result<Got> built = build(wire, native, key, mode);
  if (built.is_ok()) {
    MutexLock lock(shard.mu);
    publish(shard, key, built.value().artifact);
    shard.inflight.erase(key);
  } else {
    MutexLock lock(shard.mu);
    shard.inflight.erase(key);
  }
  {
    MutexLock lock(flight->mu);
    flight->done = true;
    if (built.is_ok()) {
      flight->artifact = built.value().artifact;
    } else {
      flight->error = built.status();
    }
  }
  flight->cv.notify_all();
  return built;
}

ArtifactCache::Got ArtifactCache::tier_up(
    const fmt::FormatDesc& wire, const fmt::FormatDesc& native, PairKey key,
    std::shared_ptr<const vcode::CompiledConvert> artifact) {
  Got got;
  got.artifact = std::move(artifact);
  if (!got.artifact->claim_tier_up()) return got;
  counters_.add(kTierUps, 1);
  generate(wire, native, key, got);
  return got;
}

Result<ArtifactCache::Got> ArtifactCache::build(const fmt::FormatDesc& wire,
                                                const fmt::FormatDesc& native,
                                                PairKey key, Build mode) {
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

  Got got;
  got.source = Source::kCompiled;
  got.artifact = std::make_shared<const vcode::CompiledConvert>(
      std::move(plan), vcode::CompiledConvert::Deferred{});
  if (mode == Build::kEager) {
    got.artifact->claim_tier_up();
    generate(wire, native, key, got);
    if (got.persisted) got.source = Source::kPersisted;
  }
  // A deferred artifact counts here even if its code later comes from
  // disk: `compiles` counts artifacts built from a plan, one per pair.
  if (got.source == Source::kCompiled) counters_.add(kCompiles, 1);
  return got;
}

void ArtifactCache::generate(const fmt::FormatDesc& wire,
                             const fmt::FormatDesc& native, PairKey key,
                             Got& got) {
  const vcode::CompiledConvert& artifact = *got.artifact;
  const std::string dir = persist_dir();
  const auto tier = static_cast<std::uint32_t>(convert::kernels::active_isa());

  // Try the persisted code first: structural load, then adopt_code()
  // re-proves the bytes (relocate from the plan, translation-validate, W^X
  // seal).
  if (!dir.empty() && vcode::tval_enabled()) {
    persist::FileImage img;
    std::string why;
    const persist::LoadStatus st = persist::load(
        dir, key, tier, vcode::kEmitterVersion, &img, &why);
    if (st == persist::LoadStatus::kLoaded) {
      if (artifact.adopt_code(std::move(img.code), img.call_sites).is_ok()) {
        got.persisted = true;
        got.code_bytes = artifact.code_size();
        counters_.add(kPersistLoads, 1);
        counters_.add(kJitCodeBytes, got.code_bytes);
        return;
      }
      counters_.add(kPersistRejects, 1);
      // Fall through to a fresh compile — persistence is an optimization,
      // never a correctness dependency.
    } else if (st == persist::LoadStatus::kRejected) {
      counters_.add(kPersistRejects, 1);
    }
  }

  {
    OBS_SPAN("pbio.cache.compile");
    artifact.generate();
  }
  got.code_bytes = artifact.code_size();
  counters_.add(kJitCodeBytes, got.code_bytes);

  // Persist the sealed buffer with its call-target slots zeroed: the file
  // carries offsets, never addresses (addresses are process-local and the
  // loader must re-derive them from the plan anyway).
  if (!dir.empty() && artifact.jitted() && vcode::tval_enabled() &&
      artifact.tval_report().ok) {
    persist::FileImage img;
    img.emitter_version = vcode::kEmitterVersion;
    img.isa_tier = tier;
    img.key = key;
    img.call_sites = artifact.call_sites();
    img.wire_meta = fmt::encode_meta(wire);
    img.native_meta = fmt::encode_meta(native);
    const std::span<const std::uint8_t> code = artifact.code();
    img.code.assign(code.begin(), code.end());
    bool sites_ok = true;
    for (std::uint32_t site : img.call_sites) {
      if (static_cast<std::size_t>(site) + 8 > img.code.size()) {
        sites_ok = false;  // defensive: never write a malformed image
        break;
      }
      std::memset(img.code.data() + site, 0, 8);
    }
    if (sites_ok && persist::save(dir, img)) {
      counters_.add(kPersistSaves, 1);
    }
  }
}

void ArtifactCache::set_persist_dir(std::string dir) {
  MutexLock lock(persist_mu_);
  persist_dir_ = std::move(dir);
}

std::string ArtifactCache::persist_dir() const {
  MutexLock lock(persist_mu_);
  return persist_dir_;
}

ArtifactCache::Stats ArtifactCache::stats() const {
  return {counters_.get(kHits),         counters_.get(kMisses),
          counters_.get(kWaits),        counters_.get(kCompiles),
          counters_.get(kJitCodeBytes), counters_.get(kPersistLoads),
          counters_.get(kPersistSaves), counters_.get(kPersistRejects),
          counters_.get(kTierUps)};
}

std::size_t ArtifactCache::size() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    const Map* map = shard.live.load(std::memory_order_acquire);  // mo: acquire pairs with publish()'s release store
    if (map != nullptr) n += map->size();
  }
  return n;
}

std::shared_ptr<ArtifactCache> process_cache() {
  // Leaked intentionally: sealed code buffers may still be executing on
  // detached threads during static destruction.
  static ArtifactCache* const kCache = new ArtifactCache();
  static const std::shared_ptr<ArtifactCache> kHandle(kCache,
                                                      [](ArtifactCache*) {});
  return kHandle;
}

}  // namespace pbio::cache
