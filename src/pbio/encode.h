// Sender-side encoding.
//
// NDR's defining property: for fixed-layout records there is *no* encode
// step — the record's memory image is the wire image (the writer sends it
// with a 16-byte header via gathered I/O, no copy, no conversion). Records
// containing pointers (strings, variable arrays) are gathered: the fixed
// part is copied once, pointer slots are rewritten to record-relative
// offsets and the pointed-to data is appended. No per-field conversion
// happens in either case.
#pragma once

#include "fmt/format.h"
#include "transport/wire.h"
#include "util/buffer.h"
#include "util/error.h"

namespace pbio {

/// Append the wire image of native record `record` (described by `f`,
/// which must be a host-ABI format) to `out`. For fixed-layout formats this
/// is a single block append; prefer the writer's zero-copy path there.
Status encode_native(const fmt::FormatDesc& f, const void* record,
                     ByteBuffer& out);

}  // namespace pbio
