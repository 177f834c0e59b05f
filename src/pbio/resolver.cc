#include "pbio/resolver.h"

#include <utility>

#include "fmt/meta.h"
#include "transport/wire.h"

namespace pbio {

Status Resolver::interpret(std::span<const std::uint8_t> frame, Frame* out,
                           bool resolve_data) {
  using Kind = Frame::Kind;
  if (frame.empty()) return Status(Errc::kMalformed, "empty frame");
  switch (frame[0]) {
    case kFrameFormat: {
      out->kind = Kind::kFormat;
      auto meta = fmt::decode_meta(frame.subspan(1));
      if (!meta.is_ok()) return meta.status();
      auto learned = ctx_.learn_format(std::move(meta).take());
      if (!learned.is_ok()) return learned.status();
      counters_.add(learned_, 1);
      return Status::ok();
    }
    case kFrameTrace: {
      out->kind = Kind::kTrace;
      obs::TraceCtx ctx;
      if (!decode_trace_frame(frame, &ctx)) {
        return Status(Errc::kMalformed, "bad trace sidecar frame");
      }
      pending_trace_ = ctx;
      pending_trace_ns_ = obs::epoch_ns();
      return Status::ok();
    }
    case kFrameData:
      break;
    default:
      out->kind = Kind::kUnknown;
      return Status(Errc::kMalformed, "unknown frame kind");
  }

  // A sidecar describes the next data frame only: this one takes it,
  // whatever becomes of the frame.
  out->trace = std::exchange(pending_trace_, obs::TraceCtx{});
  out->trace_ns = pending_trace_ns_;
  if (!decode_id_header(frame, &out->wire_id)) {
    out->kind = Kind::kShortData;
    return Status(Errc::kTruncated, "short data frame");
  }
  out->kind = Kind::kData;
  out->payload = frame.subspan(kDataHeaderSize);
  if (!resolve_data) return Status::ok();
  auto resolved = resolve(out->wire_id, &out->refilled);
  if (!resolved.is_ok()) return resolved.status();
  if (out->payload.size() < resolved.value()->wire->fixed_size) {
    return Status(Errc::kTruncated, "payload smaller than record");
  }
  out->entry = resolved.value();
  return Status::ok();
}

Result<const fmt::FormatDesc*> Resolver::fetch(Context::FormatId wire_id) {
  const auto unknown = [] {
    return Status(Errc::kUnknownFormat, "data frame for unannounced format");
  };
  if (!format_resolver_) return unknown();
  auto fetched = format_resolver_(wire_id);
  if (!fetched.is_ok()) return unknown();
  auto learned = ctx_.learn_format(std::move(fetched).take());
  if (!learned.is_ok()) return learned.status();
  if (learned.value() != wire_id) return unknown();
  counters_.add(learned_, 1);
  return ctx_.find(wire_id);
}

Result<Resolver::Entry*> Resolver::refill(Context::FormatId wire_id) {
  Known k;
  k.entry.wire = ctx_.find(wire_id);
  if (k.entry.wire == nullptr) {
    auto fetched = fetch(wire_id);
    if (!fetched.is_ok()) return fetched.status();
    k.entry.wire = fetched.value();
  }
  auto it = expected_.find(k.entry.wire->name);
  if (it != expected_.end()) {
    // An announced format whose conversion plan fails static verification
    // is rejected here, before any plan could execute over the payload —
    // the wire format is untrusted input, not API misuse.
    auto conv =
        ctx_.try_conversion(wire_id, it->second.id, cache::Build::kDeferred);
    if (!conv.is_ok()) return conv.status();
    k.entry.native = it->second.desc;
    k.entry.conv = std::move(conv).take();
    k.counting = true;
  }
  if (known_.size() == kMaxKnownIds) known_.clear();
  Known& known = known_.insert(wire_id, std::move(k));
  if (known.counting) count_use(known);
  return &known.entry;
}

void Resolver::count_use(Known& k) {
  const std::shared_ptr<const Conversion>& conv = k.entry.conv;
  if (!conv->pending()) {
    k.counting = false;
    return;
  }
  if (conv->count_use() < kTierUpUses) return;
  k.counting = false;
  ctx_.tier_up(conv);
}

}  // namespace pbio
