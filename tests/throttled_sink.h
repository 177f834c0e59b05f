// Slow-client test fake: a deterministic WireSink standing in for a TCP
// socket whose peer drains slowly. The sink models the kernel send
// buffer — writes are accepted up to `capacity` buffered bytes, then
// would-block exactly like a full socket; each tick() the "peer" drains
// up to `drain_per_tick` bytes. Backpressure and send-queue-cap logic
// (the broker's pause-reading / shed decisions) are driven against this
// instead of real sockets, so the exact byte-by-byte interleaving —
// short writes mid-frame, resume points, watermark crossings — is
// reproducible in tests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "transport/channel.h"

namespace pbio::transport {

class ThrottledWireSink final : public WireSink {
 public:
  ThrottledWireSink(std::size_t capacity, std::size_t drain_per_tick)
      : capacity_(capacity), drain_per_tick_(drain_per_tick) {}

  /// Accept as much of `iov` as fits in the remaining buffer space;
  /// kWouldBlock when the buffer is full (capacity 0 always blocks —
  /// a peer that never drains).
  Result<std::size_t> writev_some(std::span<const iovec> iov) override {
    if (iov.empty()) return std::size_t{0};
    if (buffer_.size() >= capacity_) {
      return Status(Errc::kWouldBlock, "sink full");
    }
    std::size_t room = capacity_ - buffer_.size();
    std::size_t took = 0;
    for (const iovec& v : iov) {
      if (room == 0) break;
      const std::size_t n = std::min(room, v.iov_len);
      const auto* p = static_cast<const std::uint8_t*>(v.iov_base);
      buffer_.insert(buffer_.end(), p, p + n);
      took += n;
      room -= n;
      if (n < v.iov_len) break;  // partial segment: short write, stop here
    }
    if (took == 0) {
      return Status(Errc::kWouldBlock, "sink full");
    }
    accepted_ += took;
    return took;
  }

  /// The peer drains up to drain_per_tick bytes into `received()`.
  /// Returns the bytes drained this tick.
  std::size_t tick() {
    const std::size_t n = std::min(drain_per_tick_, buffer_.size());
    received_.insert(received_.end(), buffer_.begin(), buffer_.begin() + n);
    buffer_.erase(buffer_.begin(), buffer_.begin() + n);
    return n;
  }

  std::size_t buffered() const { return buffer_.size(); }
  std::uint64_t total_accepted() const { return accepted_; }

  /// Everything the peer has drained so far, in order — tests reassemble
  /// and verify frames from this.
  const std::vector<std::uint8_t>& received() const { return received_; }

 private:
  std::size_t capacity_;
  std::size_t drain_per_tick_;
  std::vector<std::uint8_t> buffer_;    // in-flight (socket-buffer) bytes
  std::vector<std::uint8_t> received_;  // drained by the peer
  std::uint64_t accepted_ = 0;
};

}  // namespace pbio::transport
