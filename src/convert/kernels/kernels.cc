#include "convert/kernels/kernels.h"

#include <atomic>

#include "convert/kernels/kernels_impl.h"
#include "util/cpu.h"

namespace pbio::convert::kernels {

namespace {

Isa detect_tier() {
  return cpu_features().avx2 ? Isa::kAvx2 : Isa::kScalar;
}

std::atomic<Isa>& active_slot() {
  static std::atomic<Isa> a{detect_tier()};
  return a;
}

// --- scalar cvt lookup: (kind, width) -> concrete element type ------------

template <typename S, typename D>
KernelFn pick_swaps(bool src_swap, bool dst_swap) {
  const bool ss = src_swap && sizeof(S) > 1;
  const bool ds = dst_swap && sizeof(D) > 1;
  if (ss) {
    return ds ? &cvt_scalar<S, D, true, true> : &cvt_scalar<S, D, true, false>;
  }
  return ds ? &cvt_scalar<S, D, false, true> : &cvt_scalar<S, D, false, false>;
}

template <typename S>
KernelFn pick_dst(const CvtKey& k) {
  if (k.dst_kind == NumKind::kFloat) {
    switch (k.width_dst) {
      case 4: return pick_swaps<S, float>(k.src_swap, k.dst_swap);
      case 8: return pick_swaps<S, double>(k.src_swap, k.dst_swap);
      default: return nullptr;
    }
  }
  // Integer destinations store their low bytes whatever the dst kind —
  // normalize to the unsigned type of that width.
  switch (k.width_dst) {
    case 1: return pick_swaps<S, std::uint8_t>(k.src_swap, k.dst_swap);
    case 2: return pick_swaps<S, std::uint16_t>(k.src_swap, k.dst_swap);
    case 4: return pick_swaps<S, std::uint32_t>(k.src_swap, k.dst_swap);
    case 8: return pick_swaps<S, std::uint64_t>(k.src_swap, k.dst_swap);
    default: return nullptr;
  }
}

}  // namespace

const char* to_string(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kAvx2: return "avx2";
  }
  return "?";
}

Isa detected_isa() {
  static const Isa t = detect_tier();
  return t;
}

Isa active_isa() {
  return active_slot().load(std::memory_order_relaxed);  // mo: lone enum word; bench/test override, no data published through it
}

void force_isa(Isa isa) {
  if (isa > detected_isa()) isa = detected_isa();
  active_slot().store(isa, std::memory_order_relaxed);  // mo: see active_isa
}

void reset_isa() {
  active_slot().store(detected_isa(), std::memory_order_relaxed);  // mo: see active_isa
}

KernelFn scalar_swap_kernel(unsigned width) {
  switch (width) {
    case 2: return &swap_scalar<std::uint16_t>;
    case 4: return &swap_scalar<std::uint32_t>;
    case 8: return &swap_scalar<std::uint64_t>;
    default: return nullptr;
  }
}

KernelFn scalar_cvt_kernel(const CvtKey& k) {
  // Same-width float->float never comes out of the plan compiler (identical
  // representations are kCopy, order-only differences are kSwap), and a
  // batch form could not match the engines bit-for-bit anyway: their
  // runtime cvtss2sd/cvtsd2ss round trip quietens signaling NaNs, which
  // the compiler folds away in a monomorphized (float)(double)x loop.
  if (k.src_kind == NumKind::kFloat && k.dst_kind == NumKind::kFloat &&
      k.width_src == k.width_dst) {
    return nullptr;
  }
  if (k.src_kind == NumKind::kFloat) {
    switch (k.width_src) {
      case 4: return pick_dst<float>(k);
      case 8: return pick_dst<double>(k);
      default: return nullptr;
    }
  }
  if (k.src_kind == NumKind::kInt) {
    switch (k.width_src) {
      case 1: return pick_dst<std::int8_t>(k);
      case 2: return pick_dst<std::int16_t>(k);
      case 4: return pick_dst<std::int32_t>(k);
      case 8: return pick_dst<std::int64_t>(k);
      default: return nullptr;
    }
  }
  switch (k.width_src) {
    case 1: return pick_dst<std::uint8_t>(k);
    case 2: return pick_dst<std::uint16_t>(k);
    case 4: return pick_dst<std::uint32_t>(k);
    case 8: return pick_dst<std::uint64_t>(k);
    default: return nullptr;
  }
}

CvtKey cvt_key(const Op& op, ByteOrder src_order, ByteOrder dst_order) {
  CvtKey k;
  k.src_kind = op.src_kind;
  k.width_src = op.width_src;
  k.src_swap = op.width_src > 1 && src_order != host_byte_order();
  k.dst_kind = op.dst_kind;
  k.width_dst = op.width_dst;
  k.dst_swap = op.width_dst > 1 && dst_order != host_byte_order();
  return k;
}

Resolved resolve_swap_kernel(unsigned width, Isa isa) {
  if (isa >= Isa::kAvx2) {
    if (KernelFn fn = avx2_swap_kernel(width)) return {fn, Isa::kAvx2};
  }
  return {scalar_swap_kernel(width), Isa::kScalar};
}

Resolved resolve_cvt_kernel(const CvtKey& key, Isa isa, std::size_t count) {
  if (isa >= Isa::kAvx2) {
    const Resolved r = avx2_cvt_kernel(key);
    if (r.fn != nullptr && count >= r.min_count) return r;
  }
  return {scalar_cvt_kernel(key), Isa::kScalar};
}

}  // namespace pbio::convert::kernels
