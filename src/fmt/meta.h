// Wire encoding of format meta-information.
//
// This is what PBIO ships alongside (actually: ahead of) the data — the
// receiver learns the sender's native layout from these bytes. The meta
// encoding itself uses a fixed little-endian layout: it is tiny, sent once
// per (channel, format) pair, and must be decodable before any format
// knowledge exists.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "fmt/format.h"
#include "util/buffer.h"
#include "util/error.h"
#include "util/wire_taint.h"

namespace pbio::fmt {

/// Serialize a format description (including subformats) to bytes.
std::vector<std::uint8_t> encode_meta(const FormatDesc& f);

/// Append the same bytes to `out` (announce frames, service messages).
void encode_meta(const FormatDesc& f, ByteBuffer& out);

/// Decode a format description. Fails (never throws) on malformed input.
/// Tainted AND a sanitizer: it ingests announcement bytes, but every
/// descriptor it returns has passed FormatDesc::validate() — callers may
/// treat the result as trusted geometry.
WIRE_TAINTED WIRE_SANITIZER
Result<FormatDesc> decode_meta(std::span<const std::uint8_t> bytes);

}  // namespace pbio::fmt
