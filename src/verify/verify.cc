#include "verify/verify.h"

#include <algorithm>
#include <cstdint>
#include <span>
#include <sstream>

namespace pbio::verify {

using convert::NumKind;
using convert::Op;
using convert::OpCode;
using convert::Plan;

const char* to_string(Check c) {
  switch (c) {
    case Check::kSrcBounds:
      return "src-bounds";
    case Check::kDstBounds:
      return "dst-bounds";
    case Check::kWidth:
      return "width";
    case Check::kKind:
      return "kind";
    case Check::kGeometry:
      return "geometry";
    case Check::kNesting:
      return "nesting";
    case Check::kOverlap:
      return "overlap";
    case Check::kFlag:
      return "flag";
  }
  return "?";
}

std::string Report::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < issues.size(); ++i) {
    if (i != 0) os << "; ";
    os << issues[i].where << ": " << issues[i].message << " ["
       << verify::to_string(issues[i].check) << "]";
  }
  return os.str();
}

namespace {

bool pow2_width_le8(std::uint32_t w) {
  return w == 1 || w == 2 || w == 4 || w == 8;
}

bool kind_ok(NumKind k) {
  return k == NumKind::kInt || k == NumKind::kUInt || k == NumKind::kFloat;
}

/// One abstract-interpretation pass. Each frame is a (src window, dst
/// window) pair the ops inside it must stay within: the record's fixed
/// parts at the top, one element's strides inside a loop.
class Verifier {
 public:
  Verifier(const Plan& plan, const VerifyOptions& opts)
      : plan_(plan), opts_(opts), scratch_(thread_scratch()) {
    scratch_.writes.clear();
  }

  Report run() {
    check_frame(plan_.ops, nullptr, plan_.src_fixed_size,
                plan_.dst_fixed_size, /*depth=*/0);
    check_flags();
    return std::move(report_);
  }

 private:
  /// An op's position in the plan, e.g. "ops[3].sub[1]". Spelled out only
  /// when an issue names it.
  struct Path {
    const Path* outer = nullptr;  // the loop or var-array op of this frame
    std::size_t index = 0;

    std::string str() const {
      std::string s = outer == nullptr ? "ops" : outer->str() + ".sub";
      return s + "[" + std::to_string(index) + "]";
    }
  };

  struct Interval {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::size_t op_index = 0;
    OpCode code = OpCode::kCopy;
  };

  /// The write intervals of the frames being checked, stacked (a loop's
  /// frame is pushed and popped above its parent's), and the overlap
  /// sweep's active list. One per thread, so a warm verification
  /// allocates nothing.
  struct Scratch {
    std::vector<Interval> writes;
    std::vector<const Interval*> active;
  };

  static Scratch& thread_scratch() {
    thread_local Scratch scratch;
    return scratch;
  }

  /// Ops the optimizer sorts to the front and coalesces; everything else
  /// (kCvtNum, kSubLoop, kString, kVarArray) runs after them and may
  /// legitimately rewrite bytes a merged copy already covered.
  static bool linear_op(OpCode c) {
    return c == OpCode::kCopy || c == OpCode::kSwap || c == OpCode::kZero;
  }

  // Reporting every overlap of a hostile all-overlapping plan would itself
  // be quadratic; past this many issues the verdict cannot change.
  static constexpr std::size_t kMaxIssues = 64;

  void issue(Check c, std::string where, std::string message) {
    if (report_.issues.size() >= kMaxIssues) return;
    report_.issues.push_back({c, std::move(where), std::move(message)});
  }

  /// Destination extent of a fixed-part op (what it writes into its frame's
  /// dst window), or 0 for ops whose fixed-part write is just the slot.
  static std::uint64_t dst_extent(const Op& op,
                                  std::uint8_t dst_pointer_size) {
    switch (op.code) {
      case OpCode::kCopy:
      case OpCode::kZero:
        return op.byte_len;
      case OpCode::kSwap:
        return std::uint64_t{op.count} * op.width_dst;
      case OpCode::kCvtNum:
        return std::uint64_t{op.count} * op.width_dst;
      case OpCode::kSubLoop:
        return std::uint64_t{op.count} * op.dst_stride;
      case OpCode::kString:
      case OpCode::kVarArray:
        return dst_pointer_size;
    }
    return 0;
  }

  void check_frame(const std::vector<Op>& ops, const Path* outer,
                   std::uint64_t src_limit, std::uint64_t dst_limit,
                   int depth) {
    std::vector<Interval>& writes = scratch_.writes;
    const std::size_t first = writes.size();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const Path at{outer, i};
      if (++visited_ > opts_.max_ops) {
        issue(Check::kGeometry, at.str(),
              "plan exceeds " + std::to_string(opts_.max_ops) + " ops");
        writes.resize(first);
        return;
      }
      const Op& op = ops[i];
      check_op(op, at, src_limit, dst_limit, depth);
      const std::uint64_t extent = dst_extent(op, plan_.dst_pointer_size);
      if (extent > 0) {
        writes.push_back({op.dst_off, op.dst_off + extent, i, op.code});
      }
    }
    check_overlap(first, outer);
    writes.resize(first);
  }

  void check_op(const Op& op, const Path& at, std::uint64_t src_limit,
                std::uint64_t dst_limit, int depth) {
    switch (op.code) {
      case OpCode::kCopy:
        if (op.byte_len == 0) {
          issue(Check::kGeometry, at.str(), "empty copy");
          return;
        }
        bound_src(at, op.src_off, op.byte_len, src_limit);
        bound_dst(at, op.dst_off, op.byte_len, dst_limit);
        return;

      case OpCode::kZero:
        if (op.byte_len == 0) {
          issue(Check::kGeometry, at.str(), "empty zero fill");
          return;
        }
        bound_dst(at, op.dst_off, op.byte_len, dst_limit);
        return;

      case OpCode::kSwap: {
        if (op.width_src != op.width_dst) {
          issue(Check::kWidth, at.str(),
                "swap width_src " + std::to_string(op.width_src) +
                    " != width_dst " + std::to_string(op.width_dst));
          return;
        }
        if (op.width_src != 2 && op.width_src != 4 && op.width_src != 8) {
          issue(Check::kWidth, at.str(),
                "swap width " + std::to_string(op.width_src) +
                    " not in {2,4,8}");
          return;
        }
        if (op.count == 0) {
          issue(Check::kGeometry, at.str(), "swap of zero elements");
          return;
        }
        const std::uint64_t bytes = std::uint64_t{op.count} * op.width_src;
        bound_src(at, op.src_off, bytes, src_limit);
        bound_dst(at, op.dst_off, bytes, dst_limit);
        return;
      }

      case OpCode::kCvtNum: {
        if (!kind_ok(op.src_kind) || !kind_ok(op.dst_kind)) {
          issue(Check::kKind, at.str(), "numeric kind out of range");
          return;
        }
        if (!pow2_width_le8(op.width_src) || !pow2_width_le8(op.width_dst)) {
          issue(Check::kWidth, at.str(),
                "cvt widths " + std::to_string(op.width_src) + "->" +
                    std::to_string(op.width_dst) + " not in {1,2,4,8}");
          return;
        }
        if ((op.src_kind == NumKind::kFloat && op.width_src < 4) ||
            (op.dst_kind == NumKind::kFloat && op.width_dst < 4)) {
          issue(Check::kWidth, at.str(),
                "float element narrower than 4 bytes");
          return;
        }
        if (op.count == 0) {
          issue(Check::kGeometry, at.str(), "cvt of zero elements");
          return;
        }
        bound_src(at, op.src_off, std::uint64_t{op.count} * op.width_src,
                  src_limit);
        bound_dst(at, op.dst_off, std::uint64_t{op.count} * op.width_dst,
                  dst_limit);
        return;
      }

      case OpCode::kSubLoop: {
        if (depth != 0) {
          issue(Check::kNesting, at.str(),
                "nested kSubLoop (subformats are flat)");
          return;
        }
        if (op.count == 0 || op.src_stride == 0 || op.dst_stride == 0) {
          issue(Check::kGeometry, at.str(),
                "loop with zero count or zero stride");
          return;
        }
        if (op.sub.empty()) {
          issue(Check::kGeometry, at.str(), "loop with empty body");
          return;
        }
        bound_src(at, op.src_off, std::uint64_t{op.count} * op.src_stride,
                  src_limit);
        bound_dst(at, op.dst_off, std::uint64_t{op.count} * op.dst_stride,
                  dst_limit);
        // Element ops live in element-relative coordinates; each iteration
        // must stay inside its own element on both sides.
        check_frame(op.sub, &at, op.src_stride, op.dst_stride, depth + 1);
        return;
      }

      case OpCode::kString:
        if (depth != 0) {
          issue(Check::kNesting, at.str(), "variable op below top level");
          return;
        }
        check_var_slot(op, at, src_limit, dst_limit);
        return;

      case OpCode::kVarArray: {
        if (depth != 0) {
          issue(Check::kNesting, at.str(), "variable op below top level");
          return;
        }
        if (!check_var_slot(op, at, src_limit, dst_limit)) return;
        if (op.dim_width != 1 && op.dim_width != 2 && op.dim_width != 4 &&
            op.dim_width != 8) {
          issue(Check::kWidth, at.str(),
                "dim width " + std::to_string(op.dim_width) +
                    " not in {1,2,4,8}");
          return;
        }
        bound_src(at, op.dim_src_off, op.dim_width, src_limit, " (dim)");
        // The interpreter divides by src_stride to bound the element count
        // against the received bytes — zero would be UB before any element
        // is touched.
        if (op.src_stride == 0 || op.dst_stride == 0) {
          issue(Check::kGeometry, at.str(), "variable array with zero stride");
          return;
        }
        if (op.sub.empty()) {
          issue(Check::kGeometry, at.str(),
                "variable array with empty element plan");
          return;
        }
        check_frame(op.sub, &at, op.src_stride, op.dst_stride, depth + 1);
        return;
      }
    }
    issue(Check::kKind, at.str(),
          "opcode " + std::to_string(static_cast<unsigned>(op.code)) +
              " out of range");
  }

  /// Slot geometry shared by kString / kVarArray: the fixed part holds an
  /// offset of src_pointer_size bytes, the native record a slot of
  /// dst_pointer_size bytes.
  bool check_var_slot(const Op& op, const Path& at, std::uint64_t src_limit,
                      std::uint64_t dst_limit) {
    if (plan_.src_pointer_size == 0 || plan_.src_pointer_size > 8 ||
        plan_.dst_pointer_size == 0 || plan_.dst_pointer_size > 8) {
      issue(Check::kWidth, at.str(), "pointer size not in [1,8]");
      return false;
    }
    bool ok = bound_src(at, op.src_off, plan_.src_pointer_size, src_limit);
    ok &= bound_dst(at, op.dst_off, plan_.dst_pointer_size, dst_limit);
    return ok;
  }

  /// `part` qualifies the op in the issue, e.g. " (dim)".
  bool bound_src(const Path& at, std::uint64_t off, std::uint64_t bytes,
                 std::uint64_t limit, const char* part = "") {
    if (off + bytes > limit) {
      issue(Check::kSrcBounds, at.str() + part,
            "reads [" + std::to_string(off) + ", " +
                std::to_string(off + bytes) + ") past source limit " +
                std::to_string(limit));
      return false;
    }
    return true;
  }

  bool bound_dst(const Path& at, std::uint64_t off, std::uint64_t bytes,
                 std::uint64_t limit) {
    if (off + bytes > limit) {
      issue(Check::kDstBounds, at.str(),
            "writes [" + std::to_string(off) + ", " +
                std::to_string(off + bytes) + ") past destination limit " +
                std::to_string(limit));
      return false;
    }
    return true;
  }

  /// Ops within one frame must write pairwise-disjoint destination
  /// intervals: formats forbid overlapping fields, so a double write is a
  /// forged plan or a plan-compiler bug. One ordered exception: the
  /// optimizer coalesces adjacent copies across padding gaps, and a gap
  /// can hold the slot of a field handled by a later non-linear op —
  /// a numeric conversion, a struct-array loop, or a string/var-array
  /// pointer rewrite. So a non-linear op appearing *later in the plan*
  /// may overwrite bytes an earlier kCopy covered; every other overlap —
  /// linear over linear, non-linear over non-linear, or anything
  /// clobbering an already-applied non-linear result — is rejected.
  /// Checks the frame whose writes start at scratch index `first`.
  void check_overlap(std::size_t first, const Path* outer) {
    const auto writes = std::span(scratch_.writes).subspan(first);
    std::sort(writes.begin(), writes.end(),
              [](const Interval& a, const Interval& b) {
                return a.begin < b.begin;
              });
    // Sweep left to right keeping the intervals still open at the current
    // begin. A mutually-overlapping set that is all "allowed" stays tiny
    // (one fixed copy plus disjoint var slots riding on it), so the active
    // list — and with the issue cap below, the whole pass — stays linear
    // even on adversarial plans.
    std::vector<const Interval*>& active = scratch_.active;
    active.clear();
    for (const Interval& cur : writes) {
      std::erase_if(active,
                    [&](const Interval* p) { return p->end <= cur.begin; });
      for (const Interval* prev : active) {
        const bool allowed =
            (!linear_op(cur.code) && prev->code == OpCode::kCopy &&
             cur.op_index > prev->op_index) ||
            (!linear_op(prev->code) && cur.code == OpCode::kCopy &&
             prev->op_index > cur.op_index);
        if (!allowed) {
          issue(Check::kOverlap, Path{outer, cur.op_index}.str(),
                "destination bytes [" + std::to_string(cur.begin) + ", " +
                    std::to_string(std::min(prev->end, cur.end)) +
                    ") already written by " +
                    Path{outer, prev->op_index}.str());
          if (report_.issues.size() >= kMaxIssues) return;
        }
      }
      active.push_back(&cur);
    }
  }

  // --- declared-flag consistency ------------------------------------------

  /// Mirror of the plan compiler's in-place analysis, re-derived
  /// independently: each op writes at-or-below where it reads, never widens
  /// elements, and never reads bytes an earlier op already overwrote.
  struct InplaceCheck {
    std::uint64_t max_dst_end = 0;
    bool ok = true;

    void visit(const Op& op) {
      if (!ok) return;
      std::uint64_t dst_end = 0;
      std::uint64_t in_w = 0, out_w = 0;
      switch (op.code) {
        case OpCode::kZero:
          max_dst_end = std::max(max_dst_end,
                                 std::uint64_t{op.dst_off} + op.byte_len);
          return;
        case OpCode::kCopy:
          in_w = out_w = 1;
          dst_end = std::uint64_t{op.dst_off} + op.byte_len;
          break;
        case OpCode::kSwap:
          in_w = op.width_src;
          out_w = op.width_dst;
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
          ok = false;
          return;
        default:
          ok = false;
          return;
      }
      if (op.dst_off > op.src_off || out_w > in_w ||
          op.src_off < max_dst_end) {
        ok = false;
        return;
      }
      max_dst_end = std::max(max_dst_end, dst_end);
    }
  };

  void check_flags() {
    bool has_var = false;
    for (const Op& op : plan_.ops) {
      has_var |= op.code == OpCode::kString || op.code == OpCode::kVarArray;
    }
    if (has_var != plan_.has_variable) {
      issue(Check::kFlag, "plan",
            plan_.has_variable
                ? "has_variable set but no variable ops"
                : "variable ops present but has_variable unset");
    }

    if (plan_.identity) {
      if (plan_.has_variable || has_var) {
        issue(Check::kFlag, "plan", "identity plan with variable ops");
      } else if (plan_.src_fixed_size < plan_.dst_fixed_size) {
        issue(Check::kFlag, "plan",
              "identity claimed but wire record smaller than native");
      } else if (!plan_.missing_wire_fields.empty()) {
        issue(Check::kFlag, "plan",
              "identity claimed with missing (zero-filled) fields");
      } else if (plan_.ops.empty()) {
        issue(Check::kFlag, "plan", "identity claimed with no ops");
      } else {
        for (const Op& op : plan_.ops) {
          if (op.code != OpCode::kCopy || op.src_off != op.dst_off) {
            issue(Check::kFlag, "plan",
                  "identity claimed but ops are not shift-free copies");
            break;
          }
        }
      }
    }

    // identity => trivially in-place; otherwise a claimed inplace_safe must
    // survive the write-never-clobbers-unread-source analysis. The claim
    // matters: the engines' entry check admits dst == src on its strength
    // (Message::in_place_view() runs that way), and the batch kernels are
    // only correct there because every op of such a plan writes at or
    // below where it reads and never widens.
    if (plan_.inplace_safe && !plan_.identity) {
      if (has_var) {
        issue(Check::kFlag, "plan", "inplace_safe plan with variable ops");
      } else {
        InplaceCheck check;
        for (const Op& op : plan_.ops) check.visit(op);
        if (!check.ok) {
          issue(Check::kFlag, "plan",
                "inplace_safe claimed but an op clobbers unread source "
                "bytes");
        }
      }
    }
  }

  const Plan& plan_;
  const VerifyOptions& opts_;
  Scratch& scratch_;
  Report report_;
  std::uint32_t visited_ = 0;
};

}  // namespace

Report verify_plan(const Plan& plan, const VerifyOptions& opts) {
  return Verifier(plan, opts).run();
}

Status verify_status(const Plan& plan, const VerifyOptions& opts) {
  Report rep = verify_plan(plan, opts);
  if (rep.ok()) return Status::ok();
  return Status(Errc::kMalformed,
                "conversion plan failed verification: " + rep.to_string());
}

}  // namespace pbio::verify
