#include "fmt/registry.h"

#include "obs/span.h"

namespace pbio::fmt {

FormatId FormatRegistry::register_format(FormatDesc f) {
  Result<FormatId> id = learn(std::move(f));
  if (!id.is_ok()) throw PbioError(id.status().message());
  return id.value();
}

Result<FormatId> FormatRegistry::learn(FormatDesc f) {
  try {
    f.validate();
  } catch (const PbioError& e) {
    return Status(Errc::kMalformed, e.what());
  }
  const FormatId id = f.fingerprint();
  const std::uint64_t canonical = canonical_hash(f);
  MutexLock lock(mu_);
  auto it = formats_.find(id);
  if (it != formats_.end()) {
    if (it->second.desc != f) {
      OBS_COUNT("pbio.fmt.id_collisions", 1);
      return Status(Errc::kMalformed,
                    "format id collision for '" + f.name + "'");
    }
    return id;
  }
  it = formats_.emplace(id, Entry{std::move(f), canonical}).first;
  by_name_[it->second.desc.name] = id;
  return id;
}

const FormatDesc* FormatRegistry::find(FormatId id) const {
  MutexLock lock(mu_);
  auto it = formats_.find(id);
  return it == formats_.end() ? nullptr : &it->second.desc;
}

FormatRegistry::Resolved FormatRegistry::resolve(FormatId id) const {
  MutexLock lock(mu_);
  auto it = formats_.find(id);
  if (it == formats_.end()) return {};
  return {&it->second.desc, it->second.canonical};
}

const FormatDesc* FormatRegistry::find_by_name(std::string_view name) const {
  MutexLock lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return nullptr;
  auto fit = formats_.find(it->second);
  return fit == formats_.end() ? nullptr : &fit->second.desc;
}

std::size_t FormatRegistry::size() const {
  MutexLock lock(mu_);
  return formats_.size();
}

std::vector<FormatId> FormatRegistry::ids() const {
  MutexLock lock(mu_);
  std::vector<FormatId> out;
  out.reserve(formats_.size());
  for (const auto& [id, _] : formats_) out.push_back(id);
  return out;
}

}  // namespace pbio::fmt
