#include "pbio/context.h"

#include <utility>

#include "obs/span.h"

namespace pbio {

Result<std::shared_ptr<const Conversion>> Context::try_conversion(
    FormatId wire, FormatId native) {
  const fmt::FormatRegistry::Resolved src = registry_.resolve(wire);
  const fmt::FormatRegistry::Resolved dst = registry_.resolve(native);
  if (src.desc == nullptr || dst.desc == nullptr) {
    return Status(Errc::kUnknownFormat,
                  "Context::conversion: unknown format id");
  }
  // Resolve through the artifact cache, keyed by the canonical structural
  // hash of the pair. Plan build, static verification, JIT, translation
  // validation, persistence and stampede collapse all live there; this
  // context only keeps its own accounting straight from the Source tag.
  auto got = cache_->get_or_build(*src.desc, *dst.desc,
                                  {src.canonical, dst.canonical});
  if (!got.is_ok()) {
    OBS_COUNT("pbio.conv.verify_rejects", 1);
    return got.status();
  }
  cache::ArtifactCache::Got result = std::move(got).take();
  switch (result.source) {
    case cache::Source::kCached:
      conversion_cache_hits_.fetch_add(1, std::memory_order_relaxed);  // mo: independent statistic, read by stats() only
      OBS_COUNT("pbio.conv.cache_hits", 1);
      break;
    case cache::Source::kWaited:
      shared_cache_misses_.fetch_add(1, std::memory_order_relaxed);  // mo: independent statistic, read by stats() only
      single_flight_waits_.fetch_add(1, std::memory_order_relaxed);  // mo: independent statistic, read by stats() only
      break;
    case cache::Source::kCompiled:
      shared_cache_misses_.fetch_add(1, std::memory_order_relaxed);  // mo: independent statistic, read by stats() only
      conversions_compiled_.fetch_add(1, std::memory_order_relaxed);  // mo: independent statistic, read by stats() only
      jit_code_bytes_.fetch_add(result.artifact->code_size(),
                                std::memory_order_relaxed);  // mo: independent statistic, read by stats() only
      OBS_COUNT("pbio.conv.compiled", 1);
      OBS_COUNT("pbio.conv.jit_code_bytes", result.artifact->code_size());
      break;
    case cache::Source::kPersisted:
      shared_cache_misses_.fetch_add(1, std::memory_order_relaxed);  // mo: independent statistic, read by stats() only
      persist_loads_.fetch_add(1, std::memory_order_relaxed);  // mo: independent statistic, read by stats() only
      jit_code_bytes_.fetch_add(result.artifact->code_size(),
                                std::memory_order_relaxed);  // mo: independent statistic, read by stats() only
      break;
  }
  return std::move(result.artifact);
}

std::shared_ptr<const Conversion> Context::conversion(FormatId wire,
                                                      FormatId native) {
  auto result = try_conversion(wire, native);
  if (!result.is_ok()) {
    throw PbioError(result.status().to_string());
  }
  return std::move(result).take();
}

Context::Stats Context::stats() const {
  Stats s;
  s.conversions_compiled =
      conversions_compiled_.load(std::memory_order_relaxed);  // mo: monotonic statistics; cross-counter consistency not promised
  s.conversion_cache_hits =
      conversion_cache_hits_.load(std::memory_order_relaxed);  // mo: see conversions_compiled
  s.jit_code_bytes = jit_code_bytes_.load(std::memory_order_relaxed);  // mo: see conversions_compiled
  s.shared_cache_misses =
      shared_cache_misses_.load(std::memory_order_relaxed);  // mo: see conversions_compiled
  s.single_flight_waits =
      single_flight_waits_.load(std::memory_order_relaxed);  // mo: see conversions_compiled
  s.persist_loads = persist_loads_.load(std::memory_order_relaxed);  // mo: see conversions_compiled
  return s;
}

}  // namespace pbio
