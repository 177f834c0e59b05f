// PBIO reader: receives format announcements and data frames, matches wire
// formats to the receiver's expected native formats *by format name*, and
// hands out Messages carrying the cached conversion.
//
// Two receive shapes:
//  * next()        — blocking, one message at a time;
//  * next_batch()  — one blocking receive, then drains every frame the
//    transport already has buffered without blocking again.
//
// Every frame goes through the stream's pbio::Resolver (resolver.h), the
// frame interpreter a broker connection runs too: it learns announcements,
// holds trace sidecars and resolves data frames. Each wire id resolves its
// conversion once per stream, however the ids interleave, so a stream of
// small messages costs one registry + artifact-cache walk per format, not
// one per message. A data frame whose format was never announced falls
// back to the installed format resolver (a format service), once. A
// pair's first record is interpreted; its code is generated on reuse
// (resolver.h). The Reader itself only turns a resolved data frame into a
// Message.
#pragma once

#include "pbio/context.h"
#include "pbio/message.h"
#include "pbio/resolver.h"
#include "transport/channel.h"
#include "util/wire_taint.h"

namespace pbio {

class Reader {
 public:
  using FormatResolver = Resolver::FormatResolver;

  Reader(Context& ctx, transport::Channel& channel)
      : ctx_(ctx), channel_(channel) {}

  // resolver_ borrows expected_ and learned_: a copy would resolve
  // through the original's table and count into its counter.
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// Install a fallback for data frames whose format id was never
  /// announced on this channel — typically a FormatServiceClient's
  /// resolver(). This is what lets a reader join an ongoing stream.
  void set_format_resolver(FormatResolver resolver) {
    resolver_.set_format_resolver(std::move(resolver));
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

  /// Formats learned on this channel, from announcements and through the
  /// format resolver: this Reader's share of pbio.recv.formats_learned.
  std::size_t formats_learned() const { return learned_.get(0); }

 private:
  /// Process one frame. Returns true when `m` was filled with a data
  /// message, false when the frame was a format announcement (consumed).
  WIRE_TAINTED Result<bool> consume_frame(FrameBuf frame, Message* m);
  /// next() without its span: next_batch()'s first, blocking receive.
  Result<Message> receive();

  Context& ctx_;
  transport::Channel& channel_;
  ExpectedTable expected_;
  obs::CounterBlock learned_{"pbio.recv.formats_learned"};
  Resolver resolver_{ctx_, expected_, learned_, 0};
  Status pending_ = Status::ok();  // deferred mid-batch error
};

}  // namespace pbio
