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
  // validation, stampede collapse and their counts all live there.
  auto got = cache_.get_or_build(*src.desc, *dst.desc,
                                 {src.canonical, dst.canonical}, build);
  if (!got.is_ok()) OBS_COUNT("pbio.conv.verify_rejects", 1);
  return got;
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
  const cache::ArtifactCache::Stats s = cache_.stats();
  return {s.compiles, s.hits, s.jit_code_bytes};
}

}  // namespace pbio
