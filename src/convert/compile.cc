// Plan compiler: derives a wire->native conversion from two format
// descriptions, then optimizes it (block-copy coalescing, identity
// detection). Runs once per (wire format, native format) pair; results are
// cached by the PBIO context.
#include <algorithm>
#include <sstream>

#include "convert/plan.h"
#include "obs/span.h"
#include "util/error.h"

namespace pbio::convert {

const char* to_string(OpCode c) {
  switch (c) {
    case OpCode::kCopy:
      return "copy";
    case OpCode::kSwap:
      return "swap";
    case OpCode::kCvtNum:
      return "cvt";
    case OpCode::kZero:
      return "zero";
    case OpCode::kSubLoop:
      return "subloop";
    case OpCode::kString:
      return "string";
    case OpCode::kVarArray:
      return "vararray";
  }
  return "?";
}

namespace {

using fmt::BaseType;
using fmt::FieldDesc;
using fmt::FormatDesc;

bool is_numeric(BaseType b) {
  return b == BaseType::kInt || b == BaseType::kUInt || b == BaseType::kFloat;
}

NumKind num_kind(BaseType b) {
  switch (b) {
    case BaseType::kInt:
      return NumKind::kInt;
    case BaseType::kUInt:
      return NumKind::kUInt;
    case BaseType::kFloat:
      return NumKind::kFloat;
    default:
      throw PbioError("num_kind on non-numeric base type");
  }
}

class PlanCompiler {
 public:
  PlanCompiler(const FormatDesc& src, const FormatDesc& dst,
               const CompileOptions& opts)
      : src_(src), dst_(dst), opts_(opts) {
    swap_ = src.byte_order != dst.byte_order;
  }

  Plan run() {
    src_.validate();
    dst_.validate();
    Plan plan;
    plan.src_fixed_size = src_.fixed_size;
    plan.dst_fixed_size = dst_.fixed_size;
    plan.src_order = src_.byte_order;
    plan.dst_order = dst_.byte_order;
    plan.src_pointer_size = src_.pointer_size;
    plan.dst_pointer_size = dst_.pointer_size;
    // One op per native field in the common case; zero-filled tails and
    // flattened struct arrays grow it past that.
    plan.ops.reserve(dst_.fields.size());

    for (const FieldDesc& d : dst_.fields) {
      const FieldDesc* s = src_.find_field(d.name);
      if (s == nullptr || !compatible(*s, d)) {
        if (s == nullptr) {
          plan.missing_wire_fields.push_back(d.name);
        } else {
          plan.missing_wire_fields.push_back(d.name + " (type mismatch)");
        }
        emit_zero(plan.ops, d.offset, d.slot_size);
        continue;
      }
      compile_field(plan, *s, d, 0, 0, plan.ops, src_, dst_);
    }
    for (const FieldDesc& s : src_.fields) {
      if (dst_.find_field(s.name) == nullptr) {
        plan.ignored_wire_fields.push_back(s.name);
      }
    }
    for (const Op& op : plan.ops) {
      if (op.code == OpCode::kString || op.code == OpCode::kVarArray) {
        plan.has_variable = true;
      }
    }
    if (opts_.optimize) optimize(plan);
    detect_identity(plan);
    detect_inplace_safety(plan);
    return plan;
  }

 private:
  /// Two fields correspond only if their categories are convertible:
  /// numeric<->numeric, char<->char, struct<->struct, string<->string,
  /// var-array<->var-array (with convertible elements).
  bool compatible(const FieldDesc& s, const FieldDesc& d) const {
    if ((s.base == BaseType::kString) != (d.base == BaseType::kString)) {
      return false;
    }
    if (s.var_dim_field.empty() != d.var_dim_field.empty()) return false;
    if (s.base == BaseType::kString) return true;
    if (s.base == BaseType::kStruct || d.base == BaseType::kStruct) {
      return s.base == d.base;
    }
    if (s.base == BaseType::kChar || d.base == BaseType::kChar) {
      return s.base == d.base;
    }
    return is_numeric(s.base) && is_numeric(d.base);
  }

  void emit_zero(std::vector<Op>& ops, std::uint32_t dst_off,
                 std::uint32_t len) {
    Op op;
    op.code = OpCode::kZero;
    op.dst_off = dst_off;
    op.byte_len = len;
    ops.push_back(op);
  }

  /// True when wire and native element representations are bit-identical.
  bool elem_identical(const FieldDesc& s, const FieldDesc& d) const {
    if (s.base == BaseType::kChar && d.base == BaseType::kChar) return true;
    if (!is_numeric(s.base) || !is_numeric(d.base)) return false;
    if (s.elem_size != d.elem_size) return false;
    if ((s.base == BaseType::kFloat) != (d.base == BaseType::kFloat)) {
      return false;
    }
    // Int vs UInt of equal size: identical bits (conversion is a copy).
    if (swap_ && s.elem_size > 1) return false;
    return true;
  }

  void compile_field(Plan& plan, const FieldDesc& s, const FieldDesc& d,
                     std::uint32_t src_base, std::uint32_t dst_base,
                     std::vector<Op>& ops, const FormatDesc& src_fmt,
                     const FormatDesc& dst_fmt) {
    if (s.base == BaseType::kString) {
      Op op;
      op.code = OpCode::kString;
      op.src_off = src_base + s.offset;
      op.dst_off = dst_base + d.offset;
      op.elem_identity = true;  // char bytes never need conversion
      ops.push_back(op);
      return;
    }
    if (!s.var_dim_field.empty()) {
      compile_var_array(plan, s, d, src_base, dst_base, ops, src_fmt, dst_fmt);
      return;
    }
    if (s.base == BaseType::kStruct) {
      compile_struct_array(plan, s, d, src_base, dst_base, ops, src_fmt,
                           dst_fmt);
      return;
    }
    compile_atomic_array(s, d, src_base + s.offset, dst_base + d.offset,
                         s.static_elems, d.static_elems, ops);
  }

  /// Widths the conversion engines (and their batch kernels / generated
  /// code) can load and store as elements. Anything else must be rejected
  /// here, at plan-build time: emitting a kSwap/kCvtNum with, say, a 3- or
  /// 16-byte width would pass format validation yet be UB (or silently
  /// truncating) at execution time. The static verifier enforces the same
  /// vocabulary as a backstop.
  static bool convertible_width(std::uint32_t elem_size) {
    return elem_size == 1 || elem_size == 2 || elem_size == 4 ||
           elem_size == 8;
  }

  /// `s_elems` elements of `s` at `src_off` into `d_elems` elements of `d`
  /// at `dst_off`: the field's own array, or one variable-array element.
  void compile_atomic_array(const FieldDesc& s, const FieldDesc& d,
                            std::uint32_t src_off, std::uint32_t dst_off,
                            std::uint32_t s_elems, std::uint32_t d_elems,
                            std::vector<Op>& ops) {
    const std::uint32_t count = std::min(s_elems, d_elems);
    if (count > 0) {
      if (!elem_identical(s, d) &&
          (!convertible_width(s.elem_size) || !convertible_width(d.elem_size))) {
        throw PlanBuildError(d.name, "element size " +
                                         std::to_string(s.elem_size) + "->" +
                                         std::to_string(d.elem_size) +
                                         " is not convertible (engines "
                                         "handle 1/2/4/8-byte elements)");
      }
      if (elem_identical(s, d)) {
        Op op;
        op.code = OpCode::kCopy;
        op.src_off = src_off;
        op.dst_off = dst_off;
        op.byte_len = count * s.elem_size;
        ops.push_back(op);
      } else if (s.elem_size == d.elem_size &&
                 (s.base == BaseType::kFloat) == (d.base == BaseType::kFloat) &&
                 swap_ && s.elem_size > 1) {
        Op op;
        op.code = OpCode::kSwap;
        op.src_off = src_off;
        op.dst_off = dst_off;
        op.width_src = static_cast<std::uint8_t>(s.elem_size);
        op.width_dst = static_cast<std::uint8_t>(d.elem_size);
        op.count = count;
        ops.push_back(op);
      } else {
        Op op;
        op.code = OpCode::kCvtNum;
        op.src_off = src_off;
        op.dst_off = dst_off;
        op.width_src = static_cast<std::uint8_t>(s.elem_size);
        op.width_dst = static_cast<std::uint8_t>(d.elem_size);
        op.src_kind = num_kind(s.base);
        op.dst_kind = num_kind(d.base);
        op.count = count;
        op.swap_src = swap_;
        ops.push_back(op);
      }
    }
    if (d_elems > count) {
      emit_zero(ops, dst_off + count * d.elem_size,
                (d_elems - count) * d.elem_size);
    }
  }

  /// Compile the per-element ops converting struct `ssub` to `dsub`
  /// (offsets relative to the element start).
  std::vector<Op> compile_struct_elem(Plan& plan, const FormatDesc& ssub,
                                      const FormatDesc& dsub) {
    std::vector<Op> ops;
    ops.reserve(dsub.fields.size());
    for (const FieldDesc& d : dsub.fields) {
      const FieldDesc* s = ssub.find_field(d.name);
      if (s == nullptr || !compatible(*s, d)) {
        plan.missing_wire_fields.push_back(dsub.name + "." + d.name);
        emit_zero(ops, d.offset, d.slot_size);
        continue;
      }
      // Subformats are fixed-layout by validation; only atomic and nested
      // struct fields appear. Nested structs inside subformats are rejected
      // by the layout engine, so only atomics remain.
      compile_atomic_array(*s, d, s->offset, d.offset, s->static_elems,
                           d.static_elems, ops);
    }
    return ops;
  }

  void compile_struct_array(Plan& plan, const FieldDesc& s, const FieldDesc& d,
                            std::uint32_t src_base, std::uint32_t dst_base,
                            std::vector<Op>& ops, const FormatDesc& src_fmt,
                            const FormatDesc& dst_fmt) {
    const FormatDesc* ssub = src_fmt.find_subformat(s.subformat);
    const FormatDesc* dsub = dst_fmt.find_subformat(d.subformat);
    if (ssub == nullptr || dsub == nullptr) {
      throw PbioError("compile: dangling subformat reference");
    }
    const std::uint32_t count = std::min(s.static_elems, d.static_elems);
    std::vector<Op> elem_ops = compile_struct_elem(plan, *ssub, *dsub);
    // Identical element layouts: the whole array is one block copy.
    const bool elem_is_copy =
        s.elem_size == d.elem_size &&
        std::all_of(elem_ops.begin(), elem_ops.end(), [](const Op& op) {
          return op.code == OpCode::kCopy && op.src_off == op.dst_off;
        });
    if (count > 0) {
      if (elem_is_copy) {
        Op op;
        op.code = OpCode::kCopy;
        op.src_off = src_base + s.offset;
        op.dst_off = dst_base + d.offset;
        op.byte_len = count * s.elem_size;
        ops.push_back(op);
      } else if (count <= opts_.flatten_limit) {
        for (std::uint32_t i = 0; i < count; ++i) {
          for (Op op : elem_ops) {
            op.src_off += src_base + s.offset + i * s.elem_size;
            op.dst_off += dst_base + d.offset + i * d.elem_size;
            ops.push_back(std::move(op));
          }
        }
      } else {
        Op loop;
        loop.code = OpCode::kSubLoop;
        loop.src_off = src_base + s.offset;
        loop.dst_off = dst_base + d.offset;
        loop.count = count;
        loop.src_stride = s.elem_size;
        loop.dst_stride = d.elem_size;
        loop.sub = std::move(elem_ops);
        ops.push_back(std::move(loop));
      }
    }
    if (d.static_elems > count) {
      emit_zero(ops, dst_base + d.offset + count * d.elem_size,
                (d.static_elems - count) * d.elem_size);
    }
  }

  void compile_var_array(Plan& plan, const FieldDesc& s, const FieldDesc& d,
                         std::uint32_t src_base, std::uint32_t dst_base,
                         std::vector<Op>& ops, const FormatDesc& src_fmt,
                         const FormatDesc& dst_fmt) {
    const FieldDesc* dim = src_fmt.find_field(s.var_dim_field);
    if (dim == nullptr) {
      throw PbioError("compile: dangling var-dim reference");
    }
    // Element counts are loaded with load_uint at decode time and the
    // interpreter divides the received byte count by src_stride — both
    // need the vocabulary the engines actually support.
    if (!convertible_width(dim->elem_size)) {
      throw PlanBuildError(s.var_dim_field,
                           "variable-array dim width " +
                               std::to_string(dim->elem_size) +
                               " not in {1,2,4,8}");
    }
    if (s.elem_size == 0 || d.elem_size == 0) {
      throw PlanBuildError(d.name, "variable array with zero element size");
    }
    Op op;
    op.code = OpCode::kVarArray;
    op.src_off = src_base + s.offset;
    op.dst_off = dst_base + d.offset;
    op.dim_src_off = dim->offset;
    op.dim_width = static_cast<std::uint8_t>(dim->elem_size);
    op.src_stride = s.elem_size;
    op.dst_stride = d.elem_size;

    if (s.base == BaseType::kStruct && d.base == BaseType::kStruct) {
      const FormatDesc* ssub = src_fmt.find_subformat(s.subformat);
      const FormatDesc* dsub = dst_fmt.find_subformat(d.subformat);
      if (ssub == nullptr || dsub == nullptr) {
        throw PbioError("compile: dangling subformat reference");
      }
      op.sub = compile_struct_elem(plan, *ssub, *dsub);
      op.elem_identity =
          !swap_ && ssub->fixed_size == dsub->fixed_size &&
          op.sub.size() == 1 && op.sub[0].code == OpCode::kCopy &&
          op.sub[0].src_off == 0 && op.sub[0].dst_off == 0 &&
          op.sub[0].byte_len == ssub->fixed_size;
    } else if (is_numeric(s.base) && is_numeric(d.base)) {
      compile_atomic_array(s, d, 0, 0, 1, 1, op.sub);
      op.elem_identity =
          op.sub.size() == 1 && op.sub[0].code == OpCode::kCopy;
    } else {
      // Category mismatch inside a variable array: treat as missing.
      plan.missing_wire_fields.push_back(d.name + " (var elem mismatch)");
      emit_zero(ops, op.dst_off, d.slot_size);
      return;
    }
    ops.push_back(std::move(op));
  }

  /// Coalesce adjacent block ops and merge swap runs. Ops have disjoint
  /// destination intervals (formats forbid overlapping fields), so sorting
  /// by destination offset and merging neighbours is safe; a merged copy may
  /// also carry the padding gap when source and destination gaps agree.
  void optimize(Plan& plan) {
    auto linear = [](const Op& op) {
      return op.code == OpCode::kCopy || op.code == OpCode::kSwap ||
             op.code == OpCode::kZero;
    };
    std::stable_sort(plan.ops.begin(), plan.ops.end(),
                     [&](const Op& a, const Op& b) {
                       if (linear(a) != linear(b)) return linear(a);
                       return a.dst_off < b.dst_off;
                     });
    // Merge in place: ops[0, n) is the merged prefix.
    std::vector<Op>& ops = plan.ops;
    std::size_t n = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      Op& op = ops[i];
      if (n > 0 && linear(op) && linear(ops[n - 1])) {
        Op& prev = ops[n - 1];
        if (prev.code == OpCode::kCopy && op.code == OpCode::kCopy) {
          const std::uint64_t prev_dst_end = prev.dst_off + prev.byte_len;
          const std::uint64_t prev_src_end = prev.src_off + prev.byte_len;
          if (op.dst_off >= prev_dst_end &&
              op.dst_off - prev_dst_end == op.src_off - prev_src_end &&
              op.src_off >= prev_src_end) {
            // Same relative shift: extend the copy across the padding gap.
            prev.byte_len = op.dst_off + op.byte_len - prev.dst_off;
            continue;
          }
        }
        if (prev.code == OpCode::kSwap && op.code == OpCode::kSwap &&
            prev.width_src == op.width_src &&
            op.dst_off == prev.dst_off + prev.count * prev.width_src &&
            op.src_off == prev.src_off + prev.count * prev.width_src) {
          prev.count += op.count;
          continue;
        }
        if (prev.code == OpCode::kZero && op.code == OpCode::kZero &&
            op.dst_off == prev.dst_off + prev.byte_len) {
          prev.byte_len += op.byte_len;
          continue;
        }
      }
      if (n != i) ops[n] = std::move(op);
      ++n;
    }
    ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(n), ops.end());
  }

  void detect_identity(Plan& plan) {
    if (plan.has_variable) return;
    // The wire record may be *larger* than the native one: ignored trailing
    // extension fields don't disturb the native layout (paper §4.4 — new
    // fields appended at the end cost nothing). Missing fields do: they
    // must be zero-filled, so the record can't be used in place.
    if (plan.src_fixed_size < plan.dst_fixed_size) return;
    if (!plan.missing_wire_fields.empty()) return;
    // Identity iff every field lands via a shift-free copy: each native
    // field is then readable at its own offset straight out of the wire
    // image. Padding bytes need not be covered.
    for (const Op& op : plan.ops) {
      if (op.code != OpCode::kCopy || op.src_off != op.dst_off) return;
    }
    plan.identity = !plan.ops.empty();
  }

  /// In-place safety (dst == src buffer). Sufficient conditions, checked
  /// in execution order: each op writes at-or-below where it reads
  /// (dst_off <= src_off), never writes wider elements than it reads, and
  /// never reads source bytes an earlier op already overwrote.
  struct InplaceCheck {
    std::uint64_t max_dst_end = 0;
    bool ok = true;

    void visit(const Op& op) {
      if (!ok) return;
      std::uint64_t src_start = op.src_off;
      std::uint64_t dst_end = 0;
      std::uint64_t in_w = 0, out_w = 0;
      switch (op.code) {
        case OpCode::kZero:
          // No source; its write only constrains later readers.
          max_dst_end = std::max(max_dst_end,
                                 std::uint64_t{op.dst_off} + op.byte_len);
          return;
        case OpCode::kCopy:
          in_w = out_w = 1;
          dst_end = std::uint64_t{op.dst_off} + op.byte_len;
          break;
        case OpCode::kSwap:
          in_w = out_w = op.width_src;
          dst_end = std::uint64_t{op.dst_off} +
                    std::uint64_t{op.count} * op.width_dst;
          break;
        case OpCode::kCvtNum:
          in_w = op.width_src;
          out_w = op.width_dst;
          dst_end = std::uint64_t{op.dst_off} +
                    std::uint64_t{op.count} * op.width_dst;
          break;
        case OpCode::kSubLoop: {
          if (op.dst_stride > op.src_stride || op.dst_off > op.src_off) {
            ok = false;
            return;
          }
          InplaceCheck inner;
          for (const Op& sub : op.sub) inner.visit(sub);
          // Inner writes must also stay inside the source element so they
          // cannot reach the next element's unread source bytes.
          if (!inner.ok || inner.max_dst_end > op.src_stride) {
            ok = false;
            return;
          }
          in_w = out_w = 1;
          dst_end = std::uint64_t{op.dst_off} +
                    std::uint64_t{op.count} * op.dst_stride;
          break;
        }
        case OpCode::kString:
        case OpCode::kVarArray:
          ok = false;  // conservatively unsafe (slots + out-of-line data)
          return;
      }
      if (op.dst_off > op.src_off || out_w > in_w ||
          src_start < max_dst_end) {
        ok = false;
        return;
      }
      max_dst_end = std::max(max_dst_end, dst_end);
    }
  };

  void detect_inplace_safety(Plan& plan) {
    if (plan.identity) {
      plan.inplace_safe = true;
      return;
    }
    if (plan.has_variable) return;
    InplaceCheck check;
    for (const Op& op : plan.ops) check.visit(op);
    plan.inplace_safe = check.ok;
  }

  const FormatDesc& src_;
  const FormatDesc& dst_;
  CompileOptions opts_;
  bool swap_ = false;
};

}  // namespace

std::string Plan::describe() const {
  std::ostringstream os;
  os << "plan " << src_fixed_size << "B -> " << dst_fixed_size << "B"
     << (identity ? " [identity]" : "") << "\n";
  for (const Op& op : ops) {
    os << "  " << to_string(op.code) << " src@" << op.src_off << " dst@"
       << op.dst_off;
    if (op.byte_len != 0) os << " len=" << op.byte_len;
    if (op.count != 0) os << " count=" << op.count;
    if (op.width_src != 0) {
      os << " w=" << int(op.width_src) << "->" << int(op.width_dst);
    }
    if (op.swap_src) os << " swap";
    if (!op.sub.empty()) os << " sub_ops=" << op.sub.size();
    os << "\n";
  }
  return os.str();
}

Plan compile_plan(const fmt::FormatDesc& src, const fmt::FormatDesc& dst,
                  const CompileOptions& opts) {
  OBS_SPAN("convert.plan.compile");
  return PlanCompiler(src, dst, opts).run();
}

}  // namespace pbio::convert
