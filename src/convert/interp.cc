#include "convert/interp.h"

#include <cstring>
#include <limits>

#include "convert/kernels/kernels.h"
#include "obs/span.h"
#include "util/endian.h"

namespace pbio::convert {

namespace {

/// Per-tier kernel usage (convert.kernels.<isa>.{calls,elems}). One add
/// per dispatched op — amortized over >= kMinCount elements.
void count_kernel_use(kernels::Isa isa, std::uint64_t elems) {
  using obs::MetricId;
  static const MetricId calls[2] = {
      obs::counter("convert.kernels.scalar.calls"),
      obs::counter("convert.kernels.avx2.calls"),
  };
  static const MetricId counts[2] = {
      obs::counter("convert.kernels.scalar.elems"),
      obs::counter("convert.kernels.avx2.elems"),
  };
  obs::counter_add(calls[static_cast<int>(isa)], 1);
  obs::counter_add(counts[static_cast<int>(isa)], elems);
}

/// Hot inner loops. Each op converts a run of identically-typed elements,
/// so the per-op dispatch cost is amortized across the run — this is what
/// makes the PBIO interpreter faster than per-element interpreted
/// marshalling (MPICH-style) while still losing to generated code.
class Executor {
 public:
  Executor(const Plan& plan, const ExecInput& in) : plan_(plan), in_(in) {}

  Status run() {
    Status st = check_exec_input(plan_, in_);
    if (!st.is_ok()) return st;
    return exec_ops(plan_.ops, in_.src, in_.dst);
  }

  Status run_single(const Op& op) { return exec_op(op, in_.src, in_.dst); }

 private:
  Status exec_ops(const std::vector<Op>& ops, const std::uint8_t* src_base,
                  std::uint8_t* dst_base) {
    for (const Op& op : ops) {
      Status st = exec_op(op, src_base, dst_base);
      if (!st.is_ok()) return st;
    }
    return Status::ok();
  }

  Status exec_op(const Op& op, const std::uint8_t* src_base,
                 std::uint8_t* dst_base) {
    const std::uint8_t* s = src_base + op.src_off;
    std::uint8_t* d = dst_base + op.dst_off;
    switch (op.code) {
      case OpCode::kCopy:
        // memmove: in-place conversions (dst == src buffer) may overlap.
        std::memmove(d, s, op.byte_len);
        return Status::ok();
      case OpCode::kZero:
        std::memset(d, 0, op.byte_len);
        return Status::ok();
      case OpCode::kSwap:
        exec_swap(op, s, d);
        return Status::ok();
      case OpCode::kCvtNum:
        exec_cvt(op, s, d);
        return Status::ok();
      case OpCode::kSubLoop: {
        for (std::uint32_t i = 0; i < op.count; ++i) {
          Status st = exec_ops(op.sub, s + i * op.src_stride,
                               d + i * op.dst_stride);
          if (!st.is_ok()) return st;
        }
        return Status::ok();
      }
      case OpCode::kString:
        return exec_string(op, src_base, d);
      case OpCode::kVarArray:
        return exec_var_array(op, src_base, d);
    }
    return Status(Errc::kMalformed, "bad opcode");
  }

  void exec_swap(const Op& op, const std::uint8_t* s, std::uint8_t* d) {
    if (op.count >= kernels::kMinCount) {
      if (const auto k = kernels::resolve_swap_kernel(op.width_src);
          k.fn != nullptr) {
        k.fn(d, s, op.count);
        count_kernel_use(k.isa, op.count);
        return;
      }
    }
    OBS_COUNT("convert.interp.per_elem.elems", op.count);
    switch (op.width_src) {
      case 2:
        for (std::uint32_t i = 0; i < op.count; ++i) {
          std::uint16_t v;
          std::memcpy(&v, s + 2 * i, 2);
          v = byte_swap(v);
          std::memcpy(d + 2 * i, &v, 2);
        }
        return;
      case 4:
        for (std::uint32_t i = 0; i < op.count; ++i) {
          std::uint32_t v;
          std::memcpy(&v, s + 4 * i, 4);
          v = byte_swap(v);
          std::memcpy(d + 4 * i, &v, 4);
        }
        return;
      case 8:
        for (std::uint32_t i = 0; i < op.count; ++i) {
          std::uint64_t v;
          std::memcpy(&v, s + 8 * i, 8);
          v = byte_swap(v);
          std::memcpy(d + 8 * i, &v, 8);
        }
        return;
      default:
        for (std::uint32_t i = 0; i < op.count; ++i) {
          std::memcpy(d + i * op.width_src, s + i * op.width_src,
                      op.width_src);
          byte_swap_inplace(d + i * op.width_src, op.width_src);
        }
        return;
    }
  }

  void exec_cvt(const Op& op, const std::uint8_t* s, std::uint8_t* d) {
    const ByteOrder so = plan_.src_order;
    const ByteOrder dord = plan_.dst_order;
    if (op.count >= kernels::kMinCount) {
      const kernels::CvtKey key = kernels::cvt_key(op, so, dord);
      if (const auto k = kernels::resolve_cvt_kernel(
              key, kernels::active_isa(), op.count);
          k.fn != nullptr) {
        k.fn(d, s, op.count);
        count_kernel_use(k.isa, op.count);
        return;
      }
    }
    OBS_COUNT("convert.interp.per_elem.elems", op.count);
    for (std::uint32_t i = 0; i < op.count; ++i) {
      const std::uint8_t* sp = s + i * op.width_src;
      std::uint8_t* dp = d + i * op.width_dst;
      if (op.src_kind == NumKind::kFloat) {
        const double v = load_float(sp, op.width_src, so);
        if (op.dst_kind == NumKind::kFloat) {
          store_float(dp, v, op.width_dst, dord);
        } else {
          // Both integer destinations truncate through int64 — defined
          // behaviour matching the DCG engine's cvttsd2si exactly (a
          // direct float->uint64 cast would be UB for negative values).
          const std::int64_t t =
              v >= 9223372036854775808.0   ? std::numeric_limits<std::int64_t>::min()
              : v <= -9223372036854775808.0 ? std::numeric_limits<std::int64_t>::min()
              : v != v                      ? std::numeric_limits<std::int64_t>::min()
                                            : static_cast<std::int64_t>(v);
          store_uint(dp, static_cast<std::uint64_t>(t), op.width_dst, dord);
        }
      } else if (op.src_kind == NumKind::kInt) {
        const std::int64_t v = load_int(sp, op.width_src, so);
        if (op.dst_kind == NumKind::kFloat) {
          store_float(dp, static_cast<double>(v), op.width_dst, dord);
        } else {
          store_uint(dp, static_cast<std::uint64_t>(v), op.width_dst, dord);
        }
      } else {
        const std::uint64_t v = load_uint(sp, op.width_src, so);
        if (op.dst_kind == NumKind::kFloat) {
          store_float(dp, static_cast<double>(v), op.width_dst, dord);
        } else {
          store_uint(dp, v, op.width_dst, dord);
        }
      }
    }
  }

  Status exec_string(const Op& op, const std::uint8_t* src_base,
                     std::uint8_t* dst_slot) {
    const std::uint64_t off =
        load_uint(src_base + op.src_off, plan_.src_pointer_size,
                  plan_.src_order);
    if (off == 0) {
      std::memset(dst_slot, 0, plan_.dst_pointer_size);
      return Status::ok();
    }
    if (off >= in_.src_size) {
      return Status(Errc::kMalformed, "string offset out of range");
    }
    const auto* start = src_base + off;
    const auto* nul = static_cast<const std::uint8_t*>(
        std::memchr(start, 0, in_.src_size - off));
    if (nul == nullptr) {
      return Status(Errc::kMalformed, "unterminated wire string");
    }
    const std::size_t len = static_cast<std::size_t>(nul - start) + 1;
    if (in_.mode == VarMode::kPointers) {
      const void* p = in_.borrow_from_src
                          ? static_cast<const void*>(start)
                          : in_.arena->copy(start, len, 1);
      std::memcpy(dst_slot, &p, sizeof(void*));
    } else {
      in_.dst_var->align_to(1);
      const std::uint64_t dst_off =
          plan_.dst_fixed_size + in_.dst_var->size();
      in_.dst_var->append(start, len);
      store_uint(dst_slot, dst_off, plan_.dst_pointer_size, plan_.dst_order);
    }
    return Status::ok();
  }

  Status exec_var_array(const Op& op, const std::uint8_t* src_base,
                        std::uint8_t* dst_slot) {
    const std::uint64_t count = load_uint(
        src_base + op.dim_src_off, op.dim_width, plan_.src_order);
    const std::uint64_t off =
        load_uint(src_base + op.src_off, plan_.src_pointer_size,
                  plan_.src_order);
    if (count == 0 || off == 0) {
      std::memset(dst_slot, 0, plan_.dst_pointer_size);
      return Status::ok();
    }
    // The verifier rejects zero-stride plans before execution; keep a
    // guard here anyway so the division below can never be UB.
    if (op.src_stride == 0) {
      return Status(Errc::kMalformed, "variable array with zero stride");
    }
    if (off > in_.src_size || count > (in_.src_size - off) / op.src_stride) {
      return Status(Errc::kMalformed, "variable array out of range");
    }
    const std::uint8_t* elems = src_base + off;
    const std::size_t dst_bytes =
        static_cast<std::size_t>(count) * op.dst_stride;

    if (in_.mode == VarMode::kPointers) {
      if (op.elem_identity && in_.borrow_from_src) {
        const void* p = elems;
        std::memcpy(dst_slot, &p, sizeof(void*));
        return Status::ok();
      }
      auto* out = static_cast<std::uint8_t*>(in_.arena->allocate(dst_bytes));
      std::memset(out, 0, dst_bytes);
      for (std::uint64_t i = 0; i < count; ++i) {
        Status st = exec_ops(op.sub, elems + i * op.src_stride,
                             out + i * op.dst_stride);
        if (!st.is_ok()) return st;
      }
      const void* p = out;
      std::memcpy(dst_slot, &p, sizeof(void*));
      return Status::ok();
    }

    in_.dst_var->align_to(8);
    const std::uint64_t dst_off = plan_.dst_fixed_size + in_.dst_var->size();
    const std::size_t var_at = in_.dst_var->size();
    in_.dst_var->append_zeros(dst_bytes);
    std::uint8_t* out = in_.dst_var->data() + var_at;
    for (std::uint64_t i = 0; i < count; ++i) {
      Status st = exec_ops(op.sub, elems + i * op.src_stride,
                           out + i * op.dst_stride);
      if (!st.is_ok()) return st;
    }
    store_uint(dst_slot, dst_off, plan_.dst_pointer_size, plan_.dst_order);
    return Status::ok();
  }

  const Plan& plan_;
  const ExecInput& in_;
};

}  // namespace

Status check_exec_input(const Plan& plan, const ExecInput& in) {
  if (in.src_size < plan.src_fixed_size) {
    return Status(Errc::kTruncated, "wire record smaller than fixed part");
  }
  if (in.dst_size < plan.dst_fixed_size) {
    return Status(Errc::kTruncated, "destination smaller than fixed part");
  }
  const bool overlap =
      in.dst < in.src + in.src_size && in.src < in.dst + in.dst_size;
  if (overlap && !(plan.inplace_safe && in.dst == in.src)) {
    return Status(Errc::kUnsupported,
                  "overlapping buffers need an inplace-safe plan with "
                  "dst == src");
  }
  if (plan.has_variable) {
    if (in.mode == VarMode::kPointers &&
        (plan.dst_pointer_size != sizeof(void*) || in.arena == nullptr)) {
      return Status(Errc::kUnsupported,
                    "pointer-mode decode requires host pointer size and an "
                    "arena");
    }
    if (in.mode == VarMode::kOffsets && in.dst_var == nullptr) {
      return Status(Errc::kUnsupported,
                    "offset-mode decode requires a variable-data buffer");
    }
  }
  return Status::ok();
}

Status run_plan(const Plan& plan, const ExecInput& in) {
  return Executor(plan, in).run();
}

Status run_op(const Plan& plan, const Op& op, const ExecInput& in) {
  return Executor(plan, in).run_single(op);
}

}  // namespace pbio::convert
