#include "pbio/resolver.h"

#include <utility>

namespace pbio {

Result<const Resolver::Entry*> Resolver::refill(Context::FormatId wire_id) {
  Entry e;
  e.wire = ctx_.find(wire_id);
  if (e.wire == nullptr) {
    return Status(Errc::kUnknownFormat, "data frame for unannounced format");
  }
  auto it = expected_.find(e.wire->name);
  if (it != expected_.end()) {
    // An announced format whose conversion plan fails static verification
    // is rejected here, before any plan could execute over the payload —
    // the wire format is untrusted input, not API misuse.
    auto conv =
        ctx_.try_conversion(wire_id, it->second.id, cache::Build::kDeferred);
    if (!conv.is_ok()) return conv.status();
    e.native = it->second.desc;
    e.conv = std::move(conv).take();
    native_id_ = it->second.id;
  }
  front_ = std::move(e);
  cached_wire_id_ = wire_id;
  valid_ = true;
  counting_ = front_.conv != nullptr;
  if (counting_) count_use();
  return &front_;
}

void Resolver::count_use() {
  const std::shared_ptr<const Conversion>& conv = front_.conv;
  if (!conv->pending()) {
    counting_ = false;
    return;
  }
  if (conv->count_use() < kTierUpUses) return;
  counting_ = false;
  ctx_.tier_up(cached_wire_id_, native_id_, conv);
}

}  // namespace pbio
