#include "pbio/context.h"

#include <utility>

#include "obs/span.h"

namespace pbio {

Result<std::shared_ptr<const Conversion>> Context::try_conversion(
    FormatId wire, FormatId native, cache::Build build) {
  const fmt::FormatRegistry::Resolved src = registry_.resolve(wire);
  const fmt::FormatRegistry::Resolved dst = registry_.resolve(native);
  if (src.desc == nullptr || dst.desc == nullptr) {
    return Status(Errc::kUnknownFormat,
                  "Context::conversion: unknown format id");
  }
  // Resolve through the artifact cache, keyed by the canonical structural
  // hash of the pair. Plan build, static verification, JIT, translation
  // validation and stampede collapse all live there; this context only
  // keeps its own accounting straight from the Source tag.
  auto got = cache_->get_or_build(*src.desc, *dst.desc,
                                  {src.canonical, dst.canonical}, build);
  if (!got.is_ok()) {
    OBS_COUNT("pbio.conv.verify_rejects", 1);
    return got.status();
  }
  cache::ArtifactCache::Got result = std::move(got).take();
  switch (result.source) {
    case cache::Source::kCached:
      counters_.add(kCacheHits, 1);
      break;
    case cache::Source::kWaited:
      counters_.add(kSharedCacheMisses, 1);
      counters_.add(kSingleFlightWaits, 1);
      break;
    case cache::Source::kCompiled:
      counters_.add(kSharedCacheMisses, 1);
      counters_.add(kCompiled, 1);
      break;
  }
  counters_.add(kJitCodeBytes, result.code_bytes);
  return std::move(result.artifact);
}

void Context::tier_up(std::shared_ptr<const Conversion> conv) {
  counters_.add(kJitCodeBytes, cache_->tier_up(std::move(conv)).code_bytes);
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
  return {counters_.get(kCompiled),     counters_.get(kCacheHits),
          counters_.get(kJitCodeBytes), counters_.get(kSharedCacheMisses),
          counters_.get(kSingleFlightWaits)};
}

}  // namespace pbio
