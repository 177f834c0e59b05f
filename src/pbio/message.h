// A received PBIO message: the raw wire bytes plus everything needed to
// use them — the wire format (reflection), the matched native format, and
// the cached conversion.
//
// Decoding follows the paper's cost model:
//  * homogeneous layouts -> zero conversion; data used straight from the
//    receive buffer (`view<T>()`),
//  * otherwise -> one conversion pass (DCG by default) into caller storage
//    or an internal arena.
//
// The message owns its frame as a pooled FrameBuf lease (util/pool.h): no
// payload copy on receive, and the buffer returns to the pool when the
// Message is destroyed. Steady-state receive therefore allocates nothing.
#pragma once

#include <span>
#include <type_traits>
#include <vector>

#include "obs/span.h"
#include "obs/tracectx.h"
#include "pbio/context.h"
#include "util/pool.h"
#include "util/wire_taint.h"
#include "value/value.h"

namespace pbio {

class Reader;

/// Decode one received record into `out` (`size` bytes). `src` is its
/// wire image through the end of the payload, since a variable part lies
/// past the fixed one. An identity layout copies the fixed part; any other
/// pair runs `conv` on `engine`, counted by the engine that ran
/// (pbio.decode.records.{dcg,interp}), with variable-length data pointing
/// into `src` or landing in `arena`. Message's decodes and a decoding
/// broker connection both run this.
WIRE_TAINTED Status decode_record(const Conversion& conv,
                                  std::span<const std::uint8_t> src,
                                  void* out, std::size_t size, Arena& arena,
                                  Engine engine = Engine::kDcg);

class Message {
 public:
  Message() = default;

  /// The sender's format description — full run-time reflection.
  const fmt::FormatDesc& wire_format() const { return *wire_; }
  Context::FormatId wire_id() const { return wire_id_; }
  const std::string& format_name() const { return wire_->name; }
  std::span<const std::uint8_t> payload() const { return payload_; }

  /// True when the reader registered a native format matching this
  /// message's name; decoding requires it.
  bool has_native() const { return native_ != nullptr; }
  const fmt::FormatDesc* native_format() const { return native_; }

  /// True when the wire layout equals the native layout: view<T>() is free.
  bool zero_copy() const {
    return conv_ != nullptr && conv_->plan().identity;
  }

  /// Decode into caller storage of `size` bytes (>= native fixed size).
  /// String/array pointers aim into this message's buffer or arena — they
  /// stay valid for the Message's lifetime.
  /// WIRE_TAINTED: decode paths size their copies from the received
  /// payload, so every length they compute is wire-derived until compared.
  WIRE_TAINTED Status decode_into(void* out, std::size_t size,
                                  Engine engine = Engine::kDcg);

  /// Typed view: zero-copy reinterpretation when layouts match, otherwise
  /// a decode into message-owned storage. The pointer is valid for the
  /// Message's lifetime.
  template <typename T>
  Result<const T*> view(Engine engine = Engine::kDcg) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!has_native()) {
      return Status(Errc::kUnknownFormat, "no native format expected");
    }
    if (sizeof(T) < native_->fixed_size) {
      return Status(Errc::kTypeMismatch, "T smaller than native format");
    }
    if (zero_copy()) {
      OBS_COUNT("pbio.decode.identity_hits", 1);
      return reinterpret_cast<const T*>(payload_.data());
    }
    if (decoded_.empty()) {
      decoded_.resize(native_->fixed_size);
      Status st = decode_into(decoded_.data(), decoded_.size(), engine);
      if (!st.is_ok()) {
        decoded_.clear();
        return st;
      }
    }
    return reinterpret_cast<const T*>(decoded_.data());
  }

  /// Number of records in this message (fixed-layout formats can carry
  /// whole arrays, see Writer::write_array). 1-record messages are the
  /// common case; variable-layout messages always hold exactly one.
  /// WIRE_TAINTED: the count is payload-length-derived — a peer chooses it
  /// by sizing the frame, so callers must bound loops/allocations on it
  /// only after comparing (wire_taint rule T2).
  WIRE_TAINTED std::size_t count() const {
    if (!wire_->is_fixed_layout() || wire_->fixed_size == 0) return 1;
    return payload_.size() / wire_->fixed_size;
  }

  /// Zero-copy typed view of record `index` (layouts must match).
  template <typename T>
  Result<const T*> view_at(std::size_t index) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!has_native()) {
      return Status(Errc::kUnknownFormat, "no native format expected");
    }
    if (index >= count()) {
      return Status(Errc::kTruncated, "record index out of range");
    }
    if (!zero_copy()) {
      return Status(Errc::kUnsupported,
                    "indexed views require matching layouts; decode records "
                    "individually via decode_at");
    }
    OBS_COUNT("pbio.decode.identity_hits", 1);
    return reinterpret_cast<const T*>(payload_.data() +
                                      index * wire_->fixed_size);
  }

  /// Decode record `index` into caller storage (any layout pair).
  WIRE_TAINTED Status decode_at(std::size_t index, void* out,
                                std::size_t size,
                                Engine engine = Engine::kDcg);

  /// Decode every record into caller storage: record `i` lands at
  /// `out + i * stride` (`stride` >= native fixed size, `capacity` >=
  /// count() * stride). Fixed-layout conversions whose plan is a single
  /// whole-record swap/convert op run as ONE batched kernel call over all
  /// records — the SIMD batch kernels (convert/kernels) then process the
  /// entire message per dispatch instead of per record. Other plans fall
  /// back to per-record conversion; results are bit-identical either way.
  WIRE_TAINTED Status decode_all(void* out, std::size_t stride,
                                 std::size_t capacity,
                                 Engine engine = Engine::kDcg);

  /// True when the conversion can run *inside* the receive buffer (every
  /// field written at or before where it was read) — PBIO's receive-buffer
  /// reuse. Identity layouts are trivially in-place.
  bool in_place_eligible() const {
    return conv_ != nullptr && conv_->plan().inplace_safe;
  }

  /// Decode within the receive buffer and return a typed pointer into it:
  /// no destination allocation, no second buffer (paper §4.3: "reusing the
  /// receive buffer (as we do)"). Fails with kUnsupported when the layout
  /// pair is not in-place safe — fall back to view<T>(). Idempotent.
  template <typename T>
  Result<const T*> in_place_view(Engine engine = Engine::kDcg) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!has_native()) {
      return Status(Errc::kUnknownFormat, "no native format expected");
    }
    if (sizeof(T) < native_->fixed_size) {
      return Status(Errc::kTypeMismatch, "T smaller than native format");
    }
    Status st = convert_in_place(engine);
    if (!st.is_ok()) return st;
    return reinterpret_cast<const T*>(payload_.data());
  }

  /// Evolution diagnostics: wire fields this receiver ignores, and native
  /// fields the wire doesn't carry (zero-filled on decode). Empty spans
  /// when no native format is expected.
  std::span<const std::string> ignored_wire_fields() const {
    static const std::vector<std::string> kNone;
    return conv_ ? conv_->plan().ignored_wire_fields : kNone;
  }
  std::span<const std::string> missing_wire_fields() const {
    static const std::vector<std::string> kNone;
    return conv_ ? conv_->plan().missing_wire_fields : kNone;
  }

  /// Dynamic inspection without any a-priori knowledge: read the payload
  /// under the wire format (the reflection feature of §4.4).
  Result<value::Record> reflect() const;

  /// Trace context from the sampled sidecar that preceded this message
  /// (invalid for the unsampled majority). Decode paths stamp their span
  /// onto it, completing the Writer -> broker -> Reader causal trace.
  const obs::TraceCtx& trace() const { return trace_ctx_; }

 private:
  friend class Reader;

  Status convert_in_place(Engine engine);

  FrameBuf buffer_;                          // lease on the received frame
  bool converted_in_place_ = false;
  std::span<const std::uint8_t> payload_;    // record image within buffer_
  const fmt::FormatDesc* wire_ = nullptr;    // owned by the context registry
  const fmt::FormatDesc* native_ = nullptr;  // owned by the context registry
  Context::FormatId wire_id_ = 0;
  obs::TraceCtx trace_ctx_;                  // valid only for sampled messages
  const Conversion* conv_ = nullptr;         // owned by the context's cache
  Arena arena_;                              // empty until a decode needs it
  std::vector<std::uint8_t> decoded_;        // lazy view<T>() storage
};

}  // namespace pbio
