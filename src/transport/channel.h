// Message-oriented channel abstraction.
//
// PBIO is transport-agnostic; the experiments only need message boundaries
// and byte counts. Two real transports are provided (in-process loopback and
// TCP) plus an analytic network-cost model (simnet.h) standing in for the
// paper's 100 Mbps Ethernet testbed.
//
// Two receive surfaces exist:
//  * recv()     — the original owning-vector API, one heap allocation per
//                 message; kept for compatibility and simple callers.
//  * recv_buf() — the pooled path: returns a refcounted FrameBuf lease
//                 (util/pool.h), allocation-free in steady state. poll_buf()
//                 is its non-blocking sibling (kWouldBlock when no frame is
//                 available right now) — the primitive Reader::next_batch
//                 drains buffered frames with.
//
// Every library transport receives through its pooled path; the unpooled
// two-reads-per-frame baseline the receive-path bench compares against is
// a Channel of the bench's own.
#pragma once

#include <sys/uio.h>

#include <cstdint>
#include <span>
#include <vector>

#include "util/error.h"
#include "util/pool.h"

namespace pbio::transport {

/// One frame expressed as scattered segments (header + payload, say) for
/// gathered multi-frame sends.
struct FrameSegments {
  std::span<const std::span<const std::uint8_t>> segments;
};

/// A non-blocking gathered byte sink: write as much of `iov` as the sink
/// can take right now. Returns the byte count written (>= 1), kWouldBlock
/// when nothing can be accepted without waiting, or a hard error. This is
/// the primitive event-driven senders (the broker's per-connection send
/// queues) drain into; SocketChannel implements it over writev, and
/// simnet's ThrottledWireSink implements it as a deterministic slow client.
class WireSink {
 public:
  virtual ~WireSink() = default;
  virtual Result<std::size_t> writev_some(std::span<const iovec> iov) = 0;
};

class Channel {
 public:
  virtual ~Channel() = default;

  /// Send one message.
  virtual Status send(std::span<const std::uint8_t> bytes) = 0;

  /// Send one message gathered from several segments without requiring the
  /// caller to concatenate them — the NDR writer's zero-copy path (header +
  /// record image as separate segments). The default concatenates.
  virtual Status send_gather(
      std::span<const std::span<const std::uint8_t>> segments);

  /// Send several messages in one channel operation. Stream transports
  /// coalesce them into a single gathered syscall (the writer's
  /// announcement + first data frame ride together); the default sends
  /// them one by one.
  virtual Status send_frames(std::span<const FrameSegments> frames);

  /// Receive the next message, blocking. kChannelClosed at end of stream.
  virtual Result<std::vector<std::uint8_t>> recv() = 0;

  /// Receive the next message as a pooled lease, blocking. The default
  /// wraps recv(); real transports override with their allocation-free
  /// path.
  virtual Result<FrameBuf> recv_buf();

  /// Non-blocking receive: a frame already buffered in the transport (or
  /// obtainable without waiting), else kWouldBlock. kChannelClosed once
  /// the stream ends. The default never buffers and always would-block.
  virtual Result<FrameBuf> poll_buf();

  /// Bytes handed to send() so far (wire-size accounting for benches).
  virtual std::uint64_t bytes_sent() const = 0;
};

}  // namespace pbio::transport
