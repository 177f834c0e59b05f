// CDR (Common Data Representation) — the CORBA/IIOP baseline.
//
// CDR's distinguishing properties, per the paper's §2 discussion:
//  * "reader-makes-right" byte order: the sender writes in its own order
//    and flags it; the receiver swaps only when the orders differ — so
//    homogeneous exchanges avoid byte-swapping,
//  * but atomic values are packed contiguously with *in-stream* alignment
//    (each primitive aligns to its own size relative to the stream start),
//    which never matches native struct layout — forcing a marshalling copy
//    at the sender and an unmarshalling copy at the receiver even between
//    identical machines.
//
// Marshalling of records is driven by a format description standing in for
// the IDL-compiled stub's static knowledge of the type.
#pragma once

#include <cstdint>
#include <span>

#include "fmt/format.h"
#include "util/buffer.h"
#include "util/error.h"

namespace pbio::cdr {

/// Streaming CDR encoder with in-stream alignment.
class Encoder {
 public:
  explicit Encoder(ByteBuffer& out, ByteOrder order)
      : out_(out), order_(order), stream_base_(out.size()) {}

  void put_uint(std::uint64_t v, std::uint32_t size);
  void put_float(double v, std::uint32_t size);
  void put_octets(const void* p, std::size_t n);

  ByteOrder order() const { return order_; }

 private:
  void align(std::uint32_t n);
  ByteBuffer& out_;
  ByteOrder order_;
  std::size_t stream_base_;
};

/// Streaming CDR decoder (reader-makes-right).
class Decoder {
 public:
  Decoder(std::span<const std::uint8_t> in, ByteOrder sender_order)
      : in_(in), order_(sender_order) {}

  bool get_uint(std::uint64_t* v, std::uint32_t size);
  bool get_float(double* v, std::uint32_t size);
  bool get_octets(void* p, std::size_t n);
  std::size_t position() const { return in_.position(); }

 private:
  ByteReader in_;
  ByteOrder order_;
};

/// Marshal a native record image (described by `f`) into CDR. The format
/// plays the role of the IDL stub's type knowledge. Strings map to CDR
/// strings (u32 length incl. NUL + bytes), variable arrays to CDR
/// sequences (u32 count + elements). Because CDR element sizes come from
/// the IDL contract, both endpoints must describe fields with the same
/// sizes (use size-invariant types such as int/float/double/char — real
/// ORB stubs perform the native-long <-> IDL-long width adaptation that
/// this baseline deliberately omits).
Status encode_record(const fmt::FormatDesc& f,
                     std::span<const std::uint8_t> image, Encoder& enc);

/// Unmarshal CDR bytes into a native record image for format `f`.
/// Variable-length data (strings / sequences) is appended to `var` with
/// record-relative offsets stored in the pointer slots; pass nullptr for
/// fixed-layout formats.
Status decode_record(const fmt::FormatDesc& f, Decoder& dec,
                     std::span<std::uint8_t> image,
                     ByteBuffer* var = nullptr);

/// CDR stream size of one fixed-layout record of `f` (alignment included,
/// stream starting aligned).
std::size_t encoded_size(const fmt::FormatDesc& f);

}  // namespace pbio::cdr
