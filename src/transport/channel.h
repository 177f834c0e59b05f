// Message-oriented channel abstraction.
//
// PBIO is transport-agnostic; the experiments only need message boundaries
// and byte counts. Three transports are provided: in-process loopback,
// TCP and frame-log files. The paper's 100 Mbps Ethernet testbed is not a
// transport but an analytic cost model kept with the benches (netmodel.h).
//
// The contract: a transport implements one send and one receive.
//  * send_frames() — every send. Frames arrive as scattered segments
//                    (header + record image, say) and leave without a
//                    concatenation copy: the NDR writer's zero-copy path.
//                    Stream transports coalesce a call's frames into one
//                    gathered syscall (the writer's announcement + first
//                    data frame ride together).
//  * recv_buf()    — every receive. A refcounted pooled FrameBuf lease
//                    (util/pool.h), allocation-free in steady state.
//  * poll_buf()    — only where the transport buffers frames: recv_buf's
//                    non-blocking sibling (kWouldBlock when no frame is
//                    available right now), the primitive
//                    Reader::next_batch drains buffered frames with.
//  * bytes_sent()  — payload bytes sent so far.
//
// send(), send_gather() and recv() are adapters written once, here, over
// those primitives; no transport overrides them. recv() copies the frame
// into a fresh vector and is kept for tests and simple callers only.
#pragma once

#include <sys/uio.h>

#include <cstdint>
#include <span>
#include <vector>

#include "util/error.h"
#include "util/pool.h"

namespace pbio::transport {

/// One frame expressed as scattered segments (header + payload, say).
struct FrameSegments {
  std::span<const std::span<const std::uint8_t>> segments;

  /// The frame's length: its segments' bytes together.
  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& s : segments) n += s.size();
    return n;
  }
};

/// A non-blocking gathered byte sink: write as much of `iov` as the sink
/// can take right now. Returns the byte count written (>= 1), kWouldBlock
/// when nothing can be accepted without waiting, or a hard error. This is
/// the primitive event-driven senders (the broker's per-connection send
/// queues) drain into; SocketChannel implements it over writev (the
/// tests drive the broker against a deterministic slow-client fake).
class WireSink {
 public:
  virtual ~WireSink() = default;
  virtual Result<std::size_t> writev_some(std::span<const iovec> iov) = 0;
};

class Channel {
 public:
  virtual ~Channel() = default;

  /// Send `frames`, in order, as one channel operation.
  virtual Status send_frames(std::span<const FrameSegments> frames) = 0;

  /// Receive the next frame as a pooled lease, blocking. kChannelClosed at
  /// end of stream.
  virtual Result<FrameBuf> recv_buf() = 0;

  /// Non-blocking receive: a frame already buffered in the transport (or
  /// obtainable without waiting), else kWouldBlock. kChannelClosed once
  /// the stream ends. The default never buffers and always would-block.
  virtual Result<FrameBuf> poll_buf();

  /// Payload bytes handed to send_frames() so far (wire-size accounting
  /// for benches; length prefixes excluded).
  virtual std::uint64_t bytes_sent() const = 0;

  // Adapters over the primitives. They are virtual only so a timing
  // decorator can wrap each entry point; transports do not override them.

  /// Send one frame.
  virtual Status send(std::span<const std::uint8_t> bytes);
  /// Send one frame gathered from several segments.
  virtual Status send_gather(
      std::span<const std::span<const std::uint8_t>> segments);
  /// Receive the next frame as an owning vector (one copy, one heap
  /// allocation per frame).
  virtual Result<std::vector<std::uint8_t>> recv();
};

}  // namespace pbio::transport
