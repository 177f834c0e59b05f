// Two format descriptions with different content and the same
// fingerprint. FNV-1a-64 is not collision-resistant: after the meta
// prefix 01 08 00 (version, then a name length of 8), the two 8-byte names
// below leave FNV-1a in the same state, so the rest of the encoding hashes
// identically and any two formats that differ only in these names share a
// wire id. A peer can announce such a pair on purpose; every wire path has
// to answer it with an error, never an exception.
#pragma once

#include <cstdint>
#include <string>

#include "fmt/format.h"
#include "util/endian.h"

namespace pbio {

/// The 8-byte name whose little-endian bytes are `le_bytes`.
inline std::string collision_name(std::uint64_t le_bytes) {
  std::string name(8, '\0');
  store_uint(reinterpret_cast<std::uint8_t*>(name.data()), le_bytes, 8,
             ByteOrder::kLittle);
  return name;
}

/// One of the pair (`which` 0 or 1): a valid one-int format.
inline fmt::FormatDesc colliding_format(int which) {
  fmt::FormatDesc f;
  f.name = collision_name(which == 0 ? 0xa447785af56555c7ull
                                     : 0xb143a5e685ef730full);
  f.fixed_size = 4;
  f.fields = {{.name = "x", .base = fmt::BaseType::kInt, .elem_size = 4,
               .offset = 0, .slot_size = 4}};
  return f;
}

}  // namespace pbio
