#include "pbio/reader.h"

#include "fmt/meta.h"
#include "obs/span.h"
#include "pbio/encode.h"
#include "transport/tracewire.h"

namespace pbio {

void Reader::expect(Context::FormatId native_id) {
  const fmt::FormatDesc* f = ctx_.find(native_id);
  if (f == nullptr) {
    throw PbioError("Reader::expect: format not registered");
  }
  expected_[f->name] = Expected{native_id, f};
  resolver_.invalidate();
}

Result<const Resolver::Entry*> Reader::resolve(Context::FormatId wire_id) {
  auto got = resolver_.resolve(wire_id);
  if (got.is_ok() || got.status().code() != Errc::kUnknownFormat ||
      !format_resolver_) {
    return got;
  }
  auto fetched = format_resolver_(wire_id);
  if (!fetched.is_ok()) return got;
  auto learned = ctx_.learn_format(std::move(fetched).take());
  if (!learned.is_ok()) return learned.status();
  if (learned.value() != wire_id) return got;
  ++formats_learned_;
  return resolver_.resolve(wire_id);
}

Result<bool> Reader::consume_frame(FrameBuf frame, Message* m) {
  if (frame.empty()) {
    return Status(Errc::kMalformed, "empty frame");
  }
  const std::uint8_t kind = frame.data()[0];
  OBS_COUNT("pbio.recv.frames", 1);
  OBS_COUNT("pbio.recv.bytes", frame.size());

  if (kind == kFrameFormat) {
    OBS_COUNT("pbio.recv.format_frames", 1);
    auto meta =
        fmt::decode_meta(std::span(frame.data() + 1, frame.size() - 1));
    if (!meta.is_ok()) return meta.status();
    auto learned = ctx_.learn_format(std::move(meta).take());
    if (!learned.is_ok()) return learned.status();
    ++formats_learned_;
    return false;
  }

  if (kind == transport::kFrameTrace) {
    // Sidecar for the next data frame. Parsed unconditionally (an obs-on
    // peer may sample regardless of this build's configuration); a
    // malformed sidecar is a protocol error like any other bad frame.
    obs::TraceCtx ctx;
    if (!transport::decode_trace_frame(frame.view(), &ctx)) {
      return Status(Errc::kMalformed, "bad trace sidecar frame");
    }
#if PBIO_OBS_ENABLED
    pending_trace_ = ctx;
    pending_trace_ns_ = obs::epoch_ns();
#endif
    return false;
  }

  if (kind != kFrameData) {
    return Status(Errc::kMalformed, "unknown frame kind");
  }
  if (frame.size() < kDataHeaderSize) {
    return Status(Errc::kTruncated, "short data frame");
  }
  OBS_COUNT("pbio.recv.data_frames", 1);
  const Context::FormatId wire_id =
      load_uint(frame.data() + kDataHeaderIdOffset, 8, ByteOrder::kLittle);

  auto resolved = resolve(wire_id);
  if (!resolved.is_ok()) return resolved.status();
  const Resolver::Entry& entry = *resolved.value();
  if (frame.size() - kDataHeaderSize < entry.wire->fixed_size) {
    return Status(Errc::kTruncated, "payload smaller than record");
  }

  m->buffer_ = std::move(frame);
  m->payload_ = std::span(m->buffer_.data() + kDataHeaderSize,
                          m->buffer_.size() - kDataHeaderSize);
  m->wire_ = entry.wire;
  m->wire_id_ = wire_id;
  m->native_ = entry.native;
  m->conv_ = entry.conv;
#if PBIO_OBS_ENABLED
  if (pending_trace_.valid()) {
    // The receive span: sidecar arrival to data-frame delivery. The ctx
    // rides on the Message so decode_into can stamp the decode span too.
    m->trace_ctx_ = pending_trace_;
    obs::trace_emit_ctx("pbio.trace.recv", pending_trace_, pending_trace_ns_,
                        obs::epoch_ns());
    pending_trace_ = obs::TraceCtx{};
  }
#endif
  return true;
}

Result<Message> Reader::next() {
  // Spans the whole fetch — including any transport wait, which is exactly
  // what a round-trip trace wants to show between encode and decode.
  OBS_SPAN("pbio.recv.next");
  if (!pending_.is_ok()) {
    Status deferred = pending_;
    pending_ = Status::ok();
    return deferred;
  }
  while (true) {
    auto frame = channel_.recv_buf();
    if (!frame.is_ok()) return frame.status();
    Message m;
    auto got = consume_frame(std::move(frame).take(), &m);
    if (!got.is_ok()) return got.status();
    if (got.value()) return m;
  }
}

Result<std::size_t> Reader::next_batch(std::span<Message> out) {
  OBS_SPAN("pbio.recv.next_batch");
  if (out.empty()) return std::size_t{0};
  auto first = next();  // blocks; also surfaces any deferred error
  if (!first.is_ok()) return first.status();
  out[0] = std::move(first).take();
  std::size_t filled = 1;
  while (filled < out.size()) {
    auto frame = channel_.poll_buf();
    if (!frame.is_ok()) {
      if (frame.status().code() != Errc::kWouldBlock) {
        // The messages already in `out` are good; report the failure on
        // the next call instead of discarding them.
        pending_ = frame.status();
      }
      break;
    }
    Message m;
    auto got = consume_frame(std::move(frame).take(), &m);
    if (!got.is_ok()) {
      pending_ = got.status();
      break;
    }
    if (got.value()) out[filled++] = std::move(m);
  }
  OBS_COUNT("pbio.recv.batches", 1);
  OBS_COUNT("pbio.recv.batch_frames", filled);
  return filled;
}

}  // namespace pbio
