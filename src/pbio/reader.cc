#include "pbio/reader.h"

#include "obs/span.h"

namespace pbio {

void Reader::expect(Context::FormatId native_id) {
  const fmt::FormatDesc* f = ctx_.find(native_id);
  if (f == nullptr) {
    throw PbioError("Reader::expect: format not registered");
  }
  expected_[f->name] = Expected{native_id, f};
  resolver_.invalidate();
}

Result<bool> Reader::consume_frame(FrameBuf frame, Message* m) {
  using Kind = Resolver::Frame::Kind;
  Resolver::Frame f;
  const Status st = resolver_.interpret(frame.view(), &f);
  if (f.kind != Kind::kEmpty) {
    OBS_COUNT("pbio.recv.frames", 1);
    OBS_COUNT("pbio.recv.bytes", frame.size());
  }
  if (f.kind == Kind::kFormat) OBS_COUNT("pbio.recv.format_frames", 1);
  if (f.kind == Kind::kData) OBS_COUNT("pbio.recv.data_frames", 1);
  if (!st.is_ok()) return st;
  if (f.kind != Kind::kData) return false;

  const Resolver::Entry& entry = *f.entry;
  m->buffer_ = std::move(frame);  // a moved lease keeps its bytes in place
  m->payload_ = f.payload;
  m->wire_ = entry.wire;
  m->wire_id_ = f.wire_id;
  m->native_ = entry.native;
  m->conv_ = entry.conv.get();
#if PBIO_OBS_ENABLED
  if (f.trace.valid()) {
    // The receive span: sidecar arrival to data-frame delivery. The ctx
    // rides on the Message so decode_into can stamp the decode span too.
    m->trace_ctx_ = f.trace;
    obs::trace_emit_ctx("pbio.trace.recv", f.trace, f.trace_ns,
                        obs::epoch_ns());
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
