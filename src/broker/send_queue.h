// Per-connection outbound frame queue for event-driven senders.
//
// Responses the broker cannot write immediately (the peer's socket buffer
// is full — a slow or stalled client) wait here as pooled FrameBuf leases:
// re-queuing a received frame for echo costs no copy, just a lease move.
// flush() drains the queue through a transport::WireSink with one gathered
// writev covering up to kFlushFrames frames (length prefix + payload per
// frame, same batching as SocketChannel::send_frames), resuming cleanly
// from short writes mid-header or mid-frame.
//
// The queue is a recycling ring: the backing storage grows geometrically
// and is then reused, so steady-state enqueue/flush performs no heap
// allocation — the same discipline as the receive-side BufferPool. Byte
// accounting (`queued_bytes`) is what the broker's admission control
// watches: the per-connection cap pauses reading from a connection whose
// peer will not drain, bounding memory per client.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/obs.h"
#include "obs/tracectx.h"
#include "transport/channel.h"
#include "transport/framing.h"

namespace pbio::broker {

/// Owned by one Conn, hence by that Conn's worker thread — no locks, no
/// atomics; cross-thread use is a bug the affinity checker hunts.
// thread-domain: worker
class SendQueue {
 public:
  /// Frames per gathered writev (two iovecs each: header + payload).
  static constexpr std::size_t kFlushFrames = 64;

  SendQueue() = default;

  /// Append `frame` (taking ownership of the lease). The wire image is
  /// [len u32 LE][frame bytes], matching FrameStream on the peer side; a
  /// frame longer than kMaxFrameLen is refused (kMalformed,
  /// nothing queued). A non-null `trace` marks the frame as belonging to
  /// a sampled message: its queue-residency span is emitted when the
  /// frame fully drains.
  Status push(FrameBuf frame, const obs::TraceCtx* trace = nullptr);

  struct FlushResult {
    std::size_t bytes = 0;    // wire bytes written (headers + payloads)
    std::size_t frames = 0;   // frames fully written (leases released)
    bool blocked = false;     // stopped on kWouldBlock with frames left
  };

  /// Write queued frames into `sink` until the queue empties or the sink
  /// would block. Hard sink errors are returned as-is (the connection is
  /// dead); kWouldBlock is folded into FlushResult::blocked.
  /// `residency_hist` (when not kInvalidMetric) receives one enqueue-to-
  /// egress nanosecond sample per fully written frame — the broker's
  /// queue-residency series, classed by the owning connection.
  Result<FlushResult> flush(transport::WireSink& sink,
                            obs::MetricId residency_hist = obs::kInvalidMetric);

  std::size_t queued_bytes() const { return queued_bytes_; }
  std::size_t queued_frames() const { return count_; }
  bool empty() const { return count_ == 0; }

 private:
  struct Item {
    std::uint8_t hdr[kFrameHeaderLen];
    FrameBuf frame;
    std::uint64_t enq_ticks = 0;    // residency stamp
    obs::TraceCtx trace;            // valid for sampled-message frames
  };

  void grow();

  std::vector<Item> ring_;       // capacity is a power of two, never shrinks
  std::size_t head_ = 0;         // index of the oldest item
  std::size_t count_ = 0;
  std::size_t head_written_ = 0;  // bytes of the head item already written
  std::size_t queued_bytes_ = 0;  // unsent bytes including headers
  std::vector<iovec> iov_scratch_;
};

}  // namespace pbio::broker
