// Trace-context sidecar frame: the wire form of obs::TraceCtx.
//
// A sampled message travels as two frames — a 32-byte trace sidecar
// immediately followed by the data frame it describes. The sidecar is its
// own frame kind so every hop can handle it with the existing first-byte
// dispatch: the broker re-stamps and forwards it ahead of the echoed data
// frame, the Reader attaches it to the next data message, and a peer that
// does not understand tracing just skips it — the kind byte is disjoint
// from every other frame kind, so mixed peers interoperate.
//
// Layout (little-endian, 16-aligned like the data header):
//   [kFrameTrace u8][7 pad][u64 trace_id][u64 span_id][u64 origin_ns]
#pragma once

#include <cstdint>
#include <span>

#include "obs/tracectx.h"
#include "util/endian.h"
#include "util/wire_taint.h"

namespace pbio::transport {

/// Disjoint from kFrameFormat (1), kFrameData (2), the format-service
/// request bytes (0x10/0x11), and the broker ack kind (0x30).
inline constexpr std::uint8_t kFrameTrace = 0x40;

inline constexpr std::size_t kTraceFrameLen = 32;

inline void encode_trace_frame(std::uint8_t (&out)[kTraceFrameLen],
                               const obs::TraceCtx& ctx) {
  for (std::size_t i = 0; i < kTraceFrameLen; ++i) out[i] = 0;
  out[0] = kFrameTrace;
  store_uint(out + 8, ctx.trace_id, 8, ByteOrder::kLittle);
  store_uint(out + 16, ctx.span_id, 8, ByteOrder::kLittle);
  store_uint(out + 24, ctx.origin_ns, 8, ByteOrder::kLittle);
}

/// Returns false (leaving *ctx untouched) unless `frame` is a well-formed
/// trace sidecar. Wire input is untrusted: a short or oversized frame with
/// the right kind byte is a protocol error the caller surfaces, not UB.
WIRE_TAINTED inline bool decode_trace_frame(std::span<const std::uint8_t> frame,
                                            obs::TraceCtx* ctx) {
  if (frame.size() != kTraceFrameLen || frame[0] != kFrameTrace) return false;
  ctx->trace_id = load_uint(frame.data() + 8, 8, ByteOrder::kLittle);
  ctx->span_id = load_uint(frame.data() + 16, 8, ByteOrder::kLittle);
  ctx->origin_ns = load_uint(frame.data() + 24, 8, ByteOrder::kLittle);
  return true;
}

}  // namespace pbio::transport
