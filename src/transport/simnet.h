// Analytic network model.
//
// The paper's testbed is two workstations on 100 Mbps Ethernet; its figures
// break round trips into encode / network / decode components where the
// network component is a deterministic function of bytes on the wire. This
// model supplies that function so the figure reproductions can report
// comparable breakdowns while encode/decode components are *measured* on
// the real conversion code.
#pragma once

#include <cstdint>
#include <vector>

#include "transport/channel.h"

namespace pbio::transport {

struct NetworkModel {
  double latency_us = 70.0;        // per-message fixed cost (switch + stack)
  double bandwidth_mbps = 100.0;   // the paper's 100 Mbps Ethernet

  /// One-way transfer time for a message of `bytes`.
  double transfer_us(std::uint64_t bytes) const {
    return latency_us +
           static_cast<double>(bytes) * 8.0 / bandwidth_mbps;  // b / (Mb/s) = us
  }

  double transfer_ms(std::uint64_t bytes) const {
    return transfer_us(bytes) / 1000.0;
  }
};

/// Model matching the paper's Figure 1 network components: with
/// latency ~70us and 100 Mbps, a 100-byte message costs ~0.08ms... The
/// paper measured ~0.227ms one-way for 100B and ~15.39ms for 100KB; its
/// effective per-message latency (~0.2ms, 1999-era stacks) and effective
/// throughput (~55 Mbps on 100 Mbps hardware) are reproduced here so the
/// *network* rows of our tables line up with the paper's.
inline NetworkModel paper_network() {
  NetworkModel m;
  m.latency_us = 212.0;      // fits 0.227ms @ 100B
  m.bandwidth_mbps = 54.0;   // fits 15.39ms @ 100KB
  return m;
}

/// A modern reference point (25 GbE, low-latency stack) used by the
/// "what would this look like today" ablation.
inline NetworkModel modern_network() {
  NetworkModel m;
  m.latency_us = 5.0;
  m.bandwidth_mbps = 25000.0;
  return m;
}

/// Slow-client mode: a deterministic WireSink standing in for a TCP
/// socket whose peer drains slowly. The sink models the kernel send
/// buffer — writes are accepted up to `capacity` buffered bytes, then
/// would-block exactly like a full socket; each tick() the "peer" drains
/// up to `drain_per_tick` bytes. Backpressure and send-queue-cap logic
/// (the broker's pause-reading / shed decisions) are driven against this
/// instead of real sockets, so the exact byte-by-byte interleaving —
/// short writes mid-frame, resume points, watermark crossings — is
/// reproducible in tests.
class ThrottledWireSink final : public WireSink {
 public:
  ThrottledWireSink(std::size_t capacity, std::size_t drain_per_tick)
      : capacity_(capacity), drain_per_tick_(drain_per_tick) {}

  /// Accept as much of `iov` as fits in the remaining buffer space;
  /// kWouldBlock when the buffer is full (capacity 0 always blocks —
  /// a peer that never drains).
  Result<std::size_t> writev_some(std::span<const iovec> iov) override;

  /// The peer drains up to drain_per_tick bytes into `received()`.
  /// Returns the bytes drained this tick.
  std::size_t tick();

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
