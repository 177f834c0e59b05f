// Floors measured in the same run as the workload they sit beside: the cost
// of the plainest way to do a layer's job, so layer times can be read as
// ratios that hold on any host.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench {

/// Median ns of one memcpy of `bytes` between two distinct buffers.
double floor_memcpy_ns(std::size_t bytes);

/// Median ns of one bare writev of a `frame_bytes` frame (length prefix,
/// 16-byte header and record as three iovecs) into a loopback TCP
/// connection that the same thread drains after every burst of 64.
double floor_writev_ns(std::size_t frame_bytes);

/// Median µs of a bare ping-pong of `frame_bytes` over loopback TCP with a
/// plain blocking echo thread (which inherits the caller's CPU pinning).
double floor_tcp_rtt_us(std::size_t frame_bytes);

}  // namespace perfbench
