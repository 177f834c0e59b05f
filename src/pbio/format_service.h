// Format service — PBIO's format-server companion.
//
// In-band announcements only reach receivers connected *before* the first
// record of a format. The paper's conclusion highlights that "receivers who
// have no a priori knowledge of data formats ... can easily 'join' ongoing
// communications": that needs a third party that remembers formats. The
// format service is that party: writers register format descriptions (by
// content id), late-joining readers resolve unknown wire ids against it.
//
// Its requests and replies are the kSvc* frames of transport/wire.h
// (docs/wire.md).
#pragma once

#include <functional>

#include "obs/obs.h"
#include "pbio/context.h"
#include "transport/channel.h"
#include "transport/wire.h"
#include "util/buffer.h"
#include "util/wire_taint.h"

namespace pbio {

/// Server side: backs lookups with a Context's registry (typically a
/// dedicated one). Two serving shapes:
///  * thread-per-channel — `serve_until_closed` on a dedicated channel;
///  * event-driven — `handle()` is the frame-in/frame-out dispatch an
///    event loop (the broker) calls with a request frame it already read,
///    collecting the reply bytes to send on its own schedule. handle() is
///    thread-safe (the registry locks internally; the request counter is
///    atomic), so thousands of connections across worker threads can share
///    one format registry.
/// Every non-empty request counts once in pbio.svc.requests.
class FormatServiceServer {
 public:
  explicit FormatServiceServer(Context& ctx) : ctx_(ctx) {}

  /// Dispatch one request frame; on success `reply` holds the response
  /// frame to send back (cleared and refilled — reuse one buffer per
  /// connection to keep the steady state allocation-free). Errors produce
  /// no reply (the transport layer decides whether to drop the client).
  WIRE_TAINTED Status handle(std::span<const std::uint8_t> request,
                             ByteBuffer& reply);

  /// Handle exactly one request. kChannelClosed when the peer is gone.
  Status serve_one(transport::Channel& ch);

  /// Handle requests until the channel closes.
  void serve_until_closed(transport::Channel& ch);

  /// This server's share of pbio.svc.requests.
  std::uint64_t requests_served() const { return requests_.get(0); }

 private:
  Context& ctx_;
  obs::CounterBlock requests_{"pbio.svc.requests"};
};

/// Client side: synchronous RPC over a dedicated channel.
class FormatServiceClient {
 public:
  explicit FormatServiceClient(transport::Channel& ch) : ch_(ch) {}

  /// Fetch the format description for a wire id. The service reply is
  /// untrusted wire input like any other frame.
  WIRE_TAINTED Result<fmt::FormatDesc> lookup(Context::FormatId id);

  /// Publish a format; returns its id (parsed from the untrusted reply).
  WIRE_TAINTED Result<Context::FormatId> publish(const fmt::FormatDesc& f);

  /// A resolver suitable for Reader::set_format_resolver.
  std::function<Result<fmt::FormatDesc>(Context::FormatId)> resolver() {
    return [this](Context::FormatId id) { return lookup(id); };
  }

 private:
  transport::Channel& ch_;
};

}  // namespace pbio
