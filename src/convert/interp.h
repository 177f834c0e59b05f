// Table-driven plan interpreter — PBIO's original receiver-side conversion
// engine (paper §4.3: "the marshaling process is controlled by what amounts
// to a table-driven interpreter"). The DCG engine in src/vcode compiles the
// same plans to machine code.
#pragma once

#include <cstdint>

#include "convert/plan.h"
#include "util/arena.h"
#include "util/buffer.h"
#include "util/error.h"

namespace pbio::convert {

/// How variable-length fields are represented in the *destination* record.
enum class VarMode : std::uint8_t {
  /// Destination slots hold real host pointers (char*, T*). Requires the
  /// destination format's pointer size to be the host pointer size. When
  /// `borrow_from_src` is set and an element representation matches the
  /// wire exactly, pointers aim directly into the receive buffer —
  /// PBIO's zero-copy path.
  kPointers,
  /// Destination slots hold record-relative offsets; converted variable
  /// data is appended to `dst_var`. Used when the destination is a
  /// simulated foreign architecture (a fake machine has no real pointers).
  kOffsets,
};

struct ExecInput {
  const std::uint8_t* src = nullptr;  // full wire record (fixed + var data)
  std::size_t src_size = 0;
  std::uint8_t* dst = nullptr;        // native fixed part, >= dst_fixed_size
  std::size_t dst_size = 0;
  VarMode mode = VarMode::kPointers;
  Arena* arena = nullptr;             // required for kPointers with strings
  ByteBuffer* dst_var = nullptr;      // required for kOffsets with strings
  bool borrow_from_src = true;        // allow zero-copy into the src buffer
};

/// The entry check of both engines: the buffers hold the fixed parts, they
/// overlap only as dst == src on an inplace_safe plan, and a plan with
/// variable fields gets what its VarMode needs. Every op of an inplace_safe
/// plan overlaps forward, which the batch kernels accept
/// (convert/kernels/kernels.h), so no op needs an overlap check of its own.
Status check_exec_input(const Plan& plan, const ExecInput& in);

/// Execute `plan` over `in`. Fixed-part geometry is validated once up
/// front (check_exec_input); variable-data offsets are bounds-checked as
/// encountered.
Status run_plan(const Plan& plan, const ExecInput& in);

/// Execute a single op of `plan` (bases = in.src / in.dst) without the
/// up-front geometry validation. Used by the DCG engine, which generates
/// native code for fixed-part ops and delegates variable-length ops here.
Status run_op(const Plan& plan, const Op& op, const ExecInput& in);

}  // namespace pbio::convert
