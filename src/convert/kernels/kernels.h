// Batch conversion kernels for the array ops the plan compiler produces
// (kSwap / kCvtNum runs). Both conversion engines call these for large
// arrays instead of iterating per element:
//
//  * the interpreter (convert/interp.cc) dispatches here from exec_swap /
//    exec_cvt once `count >= kMinCount`, and
//  * the DCG engine (vcode/jit_convert.cc) emits a direct call to the
//    resolved kernel pointer instead of generating N scalar element bodies.
//
// Each kernel has a scalar unrolled baseline; an AVX2 form exists only
// where it reads >= 1.10x the scalar kernel (docs/kernels.md, "The rule"),
// selected once per process by cpuid (util/cpu.h). Non-x86 builds and
// CPUs without AVX2 get the scalar tier; tests can force any tier at or
// below the detected one.
//
// Contract (every kernel, every tier):
//  * src and dst may be unaligned;
//  * the ranges are disjoint, or they overlap forward: dst <= src with
//    width_dst <= width_src (dst == src included) — the in-place
//    receive-buffer path. Every kernel walks its blocks in ascending
//    order and loads a block before storing it, and the scalar tail does
//    the same per element; under a forward overlap the stores for
//    elements 0..i end at or below the end of source element i, so they
//    only reach source bytes already read. Any other overlap (dst above
//    src, or a widening conversion running into its own source) is NOT
//    allowed. Callers need no check of their own: both engines admit
//    overlapping buffers only through convert::check_exec_input, i.e.
//    dst == src on an inplace_safe plan, whose every op (nested ones
//    included) writes at or below where it reads and never widens;
//  * output is byte-identical to the scalar reference at every tier
//    (asserted by tests/kernels_property_test.cc, forward overlaps
//    included).
#pragma once

#include <cstddef>
#include <cstdint>

#include "convert/plan.h"

namespace pbio::convert::kernels {

/// Convert `count` elements from src to dst. Geometry (element widths) is
/// baked into the kernel; see the lookup functions below.
using KernelFn = void (*)(std::uint8_t* dst, const std::uint8_t* src,
                          std::size_t count);

/// Dispatch tiers, ordered.
enum class Isa : std::uint8_t { kScalar = 0, kAvx2 = 1 };

const char* to_string(Isa isa);

/// Best tier the running CPU supports (cpuid, cached).
Isa detected_isa();

/// Tier the lookups below use when none is given.
Isa active_isa();

/// Force the active tier (clamped to detected_isa() — forcing down is
/// always allowed, forcing up is ignored). For tests and benchmarks.
/// Note the JIT resolves kernel pointers at codegen time: force the tier
/// before compiling a plan to affect generated code.
void force_isa(Isa isa);

/// Restore active_isa() == detected_isa().
void reset_isa();

/// Element-count threshold below which callers keep their inline
/// per-element code (loop setup + call overhead beats the win for tiny
/// runs; the measured crossover is recorded in EXPERIMENTS.md). A form
/// may raise it for its own SIMD kernel (Resolved::min_count).
inline constexpr std::uint32_t kMinCount = 16;

/// dst bytes from which a SIMD kernel first converts scalar elements up to
/// a vector-width dst boundary, so its stores do not split cache lines.
/// Below it that head costs more than the split stores it avoids (the
/// break-even is 2-4 KB; EXPERIMENTS.md, "Kernel tier speedups").
inline constexpr std::size_t kAlignMinBytes = 4096;

/// A kCvtNum op reduced to what a batch kernel needs: element kinds and
/// widths plus whether the wire/native byte order differs from the host's
/// on each side (exec_cvt's load-in-src-order / store-in-dst-order).
struct CvtKey {
  NumKind src_kind = NumKind::kInt;
  std::uint8_t width_src = 0;
  bool src_swap = false;
  NumKind dst_kind = NumKind::kInt;
  std::uint8_t width_dst = 0;
  bool dst_swap = false;
};

/// Build the key for a kCvtNum op given the plan's byte orders.
CvtKey cvt_key(const Op& op, ByteOrder src_order, ByteOrder dst_order);

/// A resolved kernel plus the tier that provides it: the requested tier's
/// own form, else the scalar one. `fn` is nullptr when the shape has no
/// batch form at all — a swap width other than 2, 4 or 8, a cvt with an
/// unusual width (e.g. a simulated 16-byte long-double slot), or a
/// same-width float->float cvt (see scalar_cvt_kernel) — and callers keep
/// their per-element loop. The scalar tier covers every other 1/2/4/8-byte
/// integer and 4/8-byte float pairing with monomorphized loops.
/// `min_count` is the shortest run the form takes: a SIMD form slower than
/// its scalar kernel on short runs carries the count from which it reads
/// >= 1.0x (docs/kernels.md, "Short runs"), every other form kMinCount.
struct Resolved {
  KernelFn fn = nullptr;
  Isa isa = Isa::kScalar;
  std::uint32_t min_count = kMinCount;
};

/// Byte-swap kernel for elements of `width` bytes (width_src == width_dst
/// for kSwap ops).
Resolved resolve_swap_kernel(unsigned width, Isa isa = active_isa());

/// Batch kernel for a numeric conversion of `count` elements: the tier's
/// form, or the scalar one when `count` is below the form's min_count.
/// Both engines pass the op's count (the JIT at codegen, the interpreter
/// per run); the default resolves the form long runs take.
Resolved resolve_cvt_kernel(const CvtKey& key, Isa isa = active_isa(),
                            std::size_t count = SIZE_MAX);

}  // namespace pbio::convert::kernels
