// The PBIO frame layer, defined once: every frame kind, the length prefix,
// the 16-byte id header, the 9-byte service messages and the 32-byte trace
// sidecar, each with its one builder and one parser. docs/wire.md is the
// spec; the meta encoding inside announcements is in fmt/meta.cc.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "obs/tracectx.h"
#include "util/endian.h"
#include "util/wire_taint.h"

namespace pbio {

/// Stream framing: `[len u32 LE][frame bytes]*`, len <= kMaxFrameLen.
inline constexpr std::size_t kFrameHeaderLen = 4;
inline constexpr std::size_t kMaxFrameLen = 1u << 30;

/// Frame kinds: the first byte of every frame.
inline constexpr std::uint8_t kFrameFormat = 0x01;    // [kind][meta]
inline constexpr std::uint8_t kFrameData = 0x02;      // id header + record
inline constexpr std::uint8_t kSvcLookup = 0x10;      // [kind][u64 id]
inline constexpr std::uint8_t kSvcRegister = 0x11;    // [kind][meta]
inline constexpr std::uint8_t kSvcFound = 0x20;       // [kind][meta]
inline constexpr std::uint8_t kSvcRegistered = 0x21;  // [kind][u64 id]
inline constexpr std::uint8_t kSvcMiss = 0x2F;        // [kind]
inline constexpr std::uint8_t kFrameAck = 0x30;       // id header
inline constexpr std::uint8_t kFrameTrace = 0x40;     // trace sidecar

/// [kind][7 zero][u64 LE id]: 16 bytes, so a record lands 16-aligned.
inline constexpr std::size_t kDataHeaderSize = 16;
inline constexpr std::size_t kDataHeaderIdOffset = 8;
/// [kind][u64 LE id]
inline constexpr std::size_t kSvcIdLen = 9;
/// [kFrameTrace][7 zero][u64 LE trace id][u64 LE span id][u64 LE origin ns]
inline constexpr std::size_t kTraceFrameLen = 32;

/// Writes the prefix of a `len`-byte frame (transport::check_frame_len
/// has passed it) to `out[0, kFrameHeaderLen)`.
inline void encode_frame_header(std::size_t len, std::uint8_t* out) {
  store_uint(out, len, kFrameHeaderLen, ByteOrder::kLittle);
}

WIRE_TAINTED inline std::uint64_t decode_frame_header(const std::uint8_t* p) {
  return load_uint(p, kFrameHeaderLen, ByteOrder::kLittle);
}

inline bool is_svc_request(std::uint8_t kind) {
  return kind == kSvcLookup || kind == kSvcRegister;
}

/// Writes `out[0, kDataHeaderSize)`.
inline void encode_id_header(std::uint8_t* out, std::uint8_t kind,
                             std::uint64_t id) {
  std::memset(out, 0, kDataHeaderSize);
  out[0] = kind;
  store_uint(out + kDataHeaderIdOffset, id, 8, ByteOrder::kLittle);
}

/// False, leaving *id untouched, when `frame` is shorter than the header.
WIRE_TAINTED inline bool decode_id_header(std::span<const std::uint8_t> frame,
                                          std::uint64_t* id) {
  if (frame.size() < kDataHeaderSize) return false;
  *id = load_uint(frame.data() + kDataHeaderIdOffset, 8, ByteOrder::kLittle);
  return true;
}

inline std::array<std::uint8_t, kSvcIdLen> encode_svc_id(std::uint8_t kind,
                                                         std::uint64_t id) {
  std::array<std::uint8_t, kSvcIdLen> out{kind};
  store_uint(out.data() + 1, id, 8, ByteOrder::kLittle);
  return out;
}

/// False when `msg` is shorter than kSvcIdLen; the kind is the caller's.
WIRE_TAINTED inline bool decode_svc_id(std::span<const std::uint8_t> msg,
                                       std::uint64_t* id) {
  if (msg.size() < kSvcIdLen) return false;
  *id = load_uint(msg.data() + 1, 8, ByteOrder::kLittle);
  return true;
}

/// Writes `out[0, kTraceFrameLen)`.
inline void encode_trace_frame(std::uint8_t* out, const obs::TraceCtx& ctx) {
  std::memset(out, 0, kTraceFrameLen);
  out[0] = kFrameTrace;
  store_uint(out + 8, ctx.trace_id, 8, ByteOrder::kLittle);
  store_uint(out + 16, ctx.span_id, 8, ByteOrder::kLittle);
  store_uint(out + 24, ctx.origin_ns, 8, ByteOrder::kLittle);
}

/// False, leaving *ctx untouched, unless `frame` is exactly one sidecar.
WIRE_TAINTED inline bool decode_trace_frame(std::span<const std::uint8_t> frame,
                                            obs::TraceCtx* ctx) {
  if (frame.size() != kTraceFrameLen || frame[0] != kFrameTrace) return false;
  ctx->trace_id = load_uint(frame.data() + 8, 8, ByteOrder::kLittle);
  ctx->span_id = load_uint(frame.data() + 16, 8, ByteOrder::kLittle);
  ctx->origin_ns = load_uint(frame.data() + 24, 8, ByteOrder::kLittle);
  return true;
}

}  // namespace pbio
