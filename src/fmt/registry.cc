#include "fmt/registry.h"

namespace pbio::fmt {

FormatId FormatRegistry::register_format(FormatDesc f) {
  f.validate();
  const FormatId id = f.fingerprint();
  const std::uint64_t canonical = canonical_hash(f);
  MutexLock lock(mu_);
  auto it = formats_.find(id);
  if (it != formats_.end()) {
    if (*it->second.desc != f) {
      throw PbioError("format id collision for '" + f.name + "'");
    }
    return id;
  }
  by_name_[f.name] = id;
  formats_.emplace(
      id, Entry{std::make_unique<FormatDesc>(std::move(f)), canonical});
  return id;
}

const FormatDesc* FormatRegistry::find(FormatId id) const {
  MutexLock lock(mu_);
  auto it = formats_.find(id);
  return it == formats_.end() ? nullptr : it->second.desc.get();
}

FormatRegistry::Resolved FormatRegistry::resolve(FormatId id) const {
  MutexLock lock(mu_);
  auto it = formats_.find(id);
  if (it == formats_.end()) return {};
  return {it->second.desc.get(), it->second.canonical};
}

const FormatDesc* FormatRegistry::find_by_name(std::string_view name) const {
  MutexLock lock(mu_);
  auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) return nullptr;
  auto fit = formats_.find(it->second);
  return fit == formats_.end() ? nullptr : fit->second.desc.get();
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
