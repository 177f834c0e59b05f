// In-process loopback transport: a pair of channels connected by two
// thread-safe message queues. Used by unit tests, examples, and the
// CPU-cost benches (where network time is modelled analytically).
//
// Queued messages are pooled FrameBuf leases (each frame copied once at
// send: one lease, one memcpy per segment, one queue lock) held in a ring
// that grows only when full, so both sides are allocation-free in steady
// state and poll_buf() lets Reader::next_batch drain everything already
// enqueued without blocking.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "transport/channel.h"
#include "util/mutex.h"

namespace pbio::transport {

class LoopbackChannel;

/// Create a connected pair: messages sent on `first` arrive at `second` and
/// vice versa.
std::pair<std::unique_ptr<LoopbackChannel>, std::unique_ptr<LoopbackChannel>>
make_loopback_pair();

class LoopbackChannel final : public Channel {
 public:
  Status send_frames(std::span<const FrameSegments> frames) override;
  Result<FrameBuf> recv_buf() override;
  Result<FrameBuf> poll_buf() override;
  std::uint64_t bytes_sent() const override { return bytes_sent_; }

  /// Close the channel: pending and future receives on the peer fail
  /// with kChannelClosed once drained.
  void close();

  /// Messages waiting to be received.
  std::size_t pending() const;

 private:
  friend std::pair<std::unique_ptr<LoopbackChannel>,
                   std::unique_ptr<LoopbackChannel>>
  make_loopback_pair();

  struct Queue {
    Mutex mu;
    CondVar cv;
    /// The queued frames: `count` slots of `ring` from `head` on, wrapping.
    std::vector<FrameBuf> ring PBIO_GUARDED_BY(mu);
    std::size_t head PBIO_GUARDED_BY(mu) = 0;
    std::size_t count PBIO_GUARDED_BY(mu) = 0;
    bool closed PBIO_GUARDED_BY(mu) = false;
    /// Receivers blocked in recv_buf(): a send notifies cv only when one
    /// is, since a notify takes the condition variable's own mutex.
    std::size_t waiters PBIO_GUARDED_BY(mu) = 0;

    /// Append `msg`, doubling the ring first if it is full.
    void push(FrameBuf msg) PBIO_REQUIRES(mu);
    /// Take the oldest frame and count it received; needs count != 0.
    FrameBuf pop() PBIO_REQUIRES(mu);
  };

  std::shared_ptr<Queue> in_;
  std::shared_ptr<Queue> out_;
  std::uint64_t bytes_sent_ = 0;
};

}  // namespace pbio::transport
