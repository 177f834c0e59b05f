// Conversion plans: the receiver-side program that rewrites a wire-format
// record (the sender's native layout) into the receiver's native layout.
//
// A plan is compiled at run time, when a format announcement reveals the
// sender's layout (paper §3). The same plan IR feeds two backends:
//  * the table-driven interpreter (`interp.h`) — PBIO's original mode, and
//  * the dynamic code generator (`vcode/jit_convert.h`) — the paper's DCG
//    optimization.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fmt/format.h"
#include "util/endian.h"

namespace pbio::convert {

/// Thrown by compile_plan when a *validated* pair of format descriptions
/// still yields an op the execution engines cannot run safely (element
/// width outside the engines' vocabulary, degenerate stride, ...). Distinct
/// from PbioError so callers can tell "malformed format description" from
/// "format describable but not convertible"; carries the offending field.
class PlanBuildError : public PbioError {
 public:
  PlanBuildError(const std::string& field, const std::string& what)
      : PbioError("plan build: field '" + field + "': " + what),
        field_(field) {}

  const std::string& field() const { return field_; }

 private:
  std::string field_;
};

/// Element kind for numeric conversion ops.
enum class NumKind : std::uint8_t { kInt = 0, kUInt = 1, kFloat = 2 };

enum class OpCode : std::uint8_t {
  /// memcpy(dst+dst_off, src+src_off, byte_len): representations identical.
  kCopy,
  /// Byte-swap `count` elements of `width_src` bytes (width_src == width_dst).
  kSwap,
  /// General per-element numeric conversion: load (src_kind, width_src,
  /// src byte order), convert, store (dst_kind, width_dst, dst byte order).
  kCvtNum,
  /// memset(dst+dst_off, 0, byte_len): field missing from the wire format.
  kZero,
  /// Run `sub` ops `count` times advancing src/dst by the strides — arrays
  /// of nested structs.
  kSubLoop,
  /// Wire string (offset slot) -> native string slot.
  kString,
  /// Wire variable array (offset slot + dim field) -> native slot; elements
  /// converted by `sub` (a one-op plan for atomic elements).
  kVarArray,
};

const char* to_string(OpCode c);

struct Op {
  OpCode code = OpCode::kCopy;
  std::uint32_t src_off = 0;
  std::uint32_t dst_off = 0;
  std::uint32_t byte_len = 0;   // kCopy / kZero
  std::uint32_t count = 0;      // kSwap / kCvtNum / kSubLoop elements
  std::uint8_t width_src = 0;   // element width on the wire
  std::uint8_t width_dst = 0;   // element width in the native record
  NumKind src_kind = NumKind::kInt;
  NumKind dst_kind = NumKind::kInt;
  bool swap_src = false;        // wire byte order != native byte order
  // kSubLoop / kVarArray element geometry:
  std::uint32_t src_stride = 0;
  std::uint32_t dst_stride = 0;
  // kVarArray: where to find the element count in the *wire* record.
  std::uint32_t dim_src_off = 0;
  std::uint8_t dim_width = 0;
  // kString / kVarArray: true when wire and native element representations
  // are identical, enabling the zero-copy path (native pointer aimed
  // directly into the receive buffer).
  bool elem_identity = false;
  std::vector<Op> sub;

  bool operator==(const Op&) const = default;
};

/// A compiled wire->native conversion.
struct Plan {
  std::vector<Op> ops;
  std::uint32_t src_fixed_size = 0;
  std::uint32_t dst_fixed_size = 0;
  ByteOrder src_order = ByteOrder::kLittle;
  ByteOrder dst_order = ByteOrder::kLittle;
  std::uint8_t src_pointer_size = 8;
  std::uint8_t dst_pointer_size = 8;

  /// True when the wire image *is* the native image (byte-identical fixed
  /// part, no variable-field rewriting): the receiver may use the message
  /// straight out of the receive buffer — PBIO's homogeneous fast path.
  bool identity = false;

  /// True when the plan produces strings / variable arrays.
  bool has_variable = false;

  /// True when the conversion may run with dst == src (reusing the receive
  /// buffer, paper §4.3): every datum is written at or before the place it
  /// was read from, in ascending source order, and never overruns a later
  /// op's unread source bytes.
  bool inplace_safe = false;

  /// Set once the plan has passed verify::verify_plan (src/verify) — the
  /// static bounds/width/overlap analysis that must run before either
  /// engine executes the plan. Context sets it after compiling and
  /// verifying; vcode::CompiledConvert refuses to emit or run code for a
  /// plan that is neither pre-verified nor verifiable.
  bool verified = false;

  /// Fields in the wire record with no counterpart in the native record
  /// (ignored, per the type-extension rules) and vice versa (zero-filled).
  std::vector<std::string> ignored_wire_fields;
  std::vector<std::string> missing_wire_fields;

  std::string describe() const;
};

/// Flatten struct arrays with at most this many elements instead of
/// emitting a kSubLoop.
inline constexpr std::uint32_t kFlattenLimit = 4;

struct CompileOptions {
  /// Coalesce adjacent same-representation regions into block copies and
  /// detect the identity plan. Disabled by the `tableb` ablation bench.
  bool optimize = true;
};

/// Compile a conversion from wire format `src` to native format `dst`.
/// Field correspondence is by name; unmatched wire fields are ignored,
/// unmatched native fields zero-filled. Throws PbioError only on malformed
/// format descriptions (validate() failures), never on honest mismatches;
/// throws PlanBuildError when a validated format pair still demands an op
/// outside the engines' vocabulary (element or dim widths not in
/// {1,2,4,8}, zero variable-element sizes).
Plan compile_plan(const fmt::FormatDesc& src, const fmt::FormatDesc& dst,
                  const CompileOptions& opts = {});

}  // namespace pbio::convert
