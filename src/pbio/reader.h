// PBIO reader: receives format announcements and data frames, matches wire
// formats to the receiver's expected native formats *by format name*, and
// hands out Messages carrying the cached conversion.
//
// Two receive shapes:
//  * next()        — blocking, one message at a time;
//  * next_batch()  — one blocking receive, then drains every frame the
//    transport already has buffered without blocking again.
//
// Wire ids resolve through a pbio::Resolver (resolver.h): runs of frames
// with the same wire id resolve their conversion once, so a burst of small
// messages costs one registry + artifact-cache walk total, not one per
// message. A data frame whose format was never announced falls back to the
// installed format resolver (a format service), once. A pair's first record
// is interpreted; its code is generated on reuse (resolver.h).
#pragma once

#include <functional>

#include "obs/tracectx.h"
#include "pbio/context.h"
#include "pbio/message.h"
#include "pbio/resolver.h"
#include "transport/channel.h"
#include "util/wire_taint.h"

namespace pbio {

class Reader {
 public:
  using FormatResolver =
      std::function<Result<fmt::FormatDesc>(Context::FormatId)>;

  Reader(Context& ctx, transport::Channel& channel)
      : ctx_(ctx), channel_(channel), resolver_(ctx, expected_) {}

  // resolver_ borrows expected_: a copy would resolve through the
  // original's table.
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// Install a fallback for data frames whose format id was never
  /// announced on this channel — typically a FormatServiceClient's
  /// resolver(). This is what lets a reader join an ongoing stream.
  void set_format_resolver(FormatResolver resolver) {
    format_resolver_ = std::move(resolver);
  }

  /// Declare the native format this receiver wants records of the same
  /// format *name* decoded into. Unknown names still arrive (and can be
  /// reflected on); they just can't be decoded to a struct.
  void expect(Context::FormatId native_id);

  /// Receive the next data message, transparently consuming any format
  /// announcements that precede it.
  Result<Message> next();

  /// Receive up to out.size() data messages: blocks for the first, then
  /// takes only frames the transport has already buffered (poll_buf) —
  /// never a second blocking wait. Returns how many slots were filled
  /// (>= 1 on success). An error after the first message is deferred and
  /// returned by the *next* call, so no received message is lost.
  Result<std::size_t> next_batch(std::span<Message> out);

  /// Formats learned from announcements on this channel.
  std::size_t formats_learned() const { return formats_learned_; }

 private:
  /// Process one frame. Returns true when `m` was filled with a data
  /// message, false when the frame was a format announcement (consumed).
  WIRE_TAINTED Result<bool> consume_frame(FrameBuf frame, Message* m);

  /// resolver_.resolve(), plus the format-resolver fallback for an id the
  /// context has never seen: fetch, register, retry once.
  Result<const Resolver::Entry*> resolve(Context::FormatId wire_id);

  Context& ctx_;
  transport::Channel& channel_;
  ExpectedTable expected_;
  Resolver resolver_;
  FormatResolver format_resolver_;
  std::size_t formats_learned_ = 0;
  Status pending_ = Status::ok();  // deferred mid-batch error

  // Trace sidecar consumed but not yet attached: it describes the next
  // data frame on the channel (always consumed, even with PBIO_OBS=OFF —
  // the peer may be an obs-on build; only the stamping compiles out).
  obs::TraceCtx pending_trace_;
  std::uint64_t pending_trace_ns_ = 0;  // sidecar arrival wall clock
};

}  // namespace pbio
