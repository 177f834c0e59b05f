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

namespace pbio::netmodel {

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

}  // namespace pbio::netmodel
