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
    auto conv = ctx_.try_conversion(wire_id, it->second.id);
    if (!conv.is_ok()) return conv.status();
    e.native = it->second.desc;
    e.conv = std::move(conv).take();
  }
  front_ = std::move(e);
  cached_wire_id_ = wire_id;
  valid_ = true;
  return &front_;
}

}  // namespace pbio
