#include "verify/tval/tval.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <utility>
#include <vector>

#include "verify/tval/decode.h"

namespace pbio::verify::tval {

namespace {

using convert::Op;
using convert::OpCode;
using convert::Plan;

struct Reject {
  Fault fault;
  std::size_t off;
  std::string msg;
};

[[noreturn]] void reject(Fault f, std::size_t off, std::string msg) {
  throw Reject{f, off, std::move(msg)};
}

// --- abstract domain ---------------------------------------------------------

enum class Region : std::uint8_t { kSrc, kDst, kCtx };

/// One loop dimension a cursor has been widened through: the cursor covers
/// offsets {k * stride : 0 <= k < trips}.
struct Dim {
  std::int64_t stride = 0;
  std::uint64_t trips = 0;
  bool operator==(const Dim&) const = default;
};

constexpr std::int64_t kOffCap = std::int64_t{1} << 48;

std::int64_t saturate(__int128 v) {
  if (v > kOffCap) return kOffCap;
  if (v < -kOffCap) return -kOffCap;
  return static_cast<std::int64_t>(v);
}

/// The emitter nests loops at most two deep (enter_loop rejects deeper), so
/// a cursor legitimately carries at most two dimensions. Keeping them inline
/// makes AbsVal and State plain values that copy without allocating.
constexpr std::size_t kMaxDims = 2;

/// Abstract register value: fully unknown, a compile-time constant, or an
/// address into one of the three regions with an interval of offsets
/// described by a base displacement plus loop dimensions.
struct AbsVal {
  enum Kind : std::uint8_t { kUnknown, kConst, kAddr } kind = kUnknown;
  Region region = Region::kSrc;
  std::uint8_t ndims = 0;
  std::uint64_t cval = 0;
  std::int64_t off = 0;
  std::array<Dim, kMaxDims> dims{};

  std::span<const Dim> live_dims() const { return {dims.data(), ndims}; }

  bool operator==(const AbsVal& o) const {
    return kind == o.kind && region == o.region && cval == o.cval &&
           off == o.off && std::ranges::equal(live_dims(), o.live_dims());
  }

  static AbsVal unknown() { return {}; }
  static AbsVal constant(std::uint64_t v) {
    AbsVal a;
    a.kind = kConst;
    a.cval = v;
    return a;
  }
  static AbsVal addr(Region r, std::int64_t off) {
    AbsVal a;
    a.kind = kAddr;
    a.region = r;
    a.off = off;
    return a;
  }

  std::int64_t min_off() const {
    __int128 m = off;
    for (const Dim& d : live_dims()) {
      const __int128 span =
          static_cast<__int128>(d.stride) *
          static_cast<__int128>(d.trips == 0 ? 0 : d.trips - 1);
      if (span < 0) m += span;
    }
    return saturate(m);
  }

  std::int64_t max_off() const {
    __int128 m = off;
    for (const Dim& d : live_dims()) {
      const __int128 span =
          static_cast<__int128>(d.stride) *
          static_cast<__int128>(d.trips == 0 ? 0 : d.trips - 1);
      if (span > 0) m += span;
    }
    return saturate(m);
  }

  /// Value plus a compile-time displacement (lea/add with immediate).
  AbsVal plus(std::int64_t delta) const {
    AbsVal out = *this;
    switch (kind) {
      case kConst:
        out.cval += static_cast<std::uint64_t>(delta);
        break;
      case kAddr:
        out.off = saturate(static_cast<__int128>(off) + delta);
        break;
      case kUnknown:
        break;
    }
    return out;
  }
};

struct State {
  bool reachable = false;
  std::array<AbsVal, 16> regs;
};

std::size_t ridx(Reg r) { return static_cast<std::uint8_t>(r) & 15; }

State join(const State& a, const State& b) {
  if (!a.reachable) return b;
  if (!b.reachable) return a;
  State out;
  out.reachable = true;
  for (std::size_t i = 0; i < 16; ++i) {
    if (a.regs[i] == b.regs[i]) out.regs[i] = a.regs[i];
  }
  return out;
}

// --- plan-derived expectations ----------------------------------------------

struct Interval {
  std::int64_t lo = 0, hi = 0;  // [lo, hi)
};

void add_interval(std::vector<Interval>& v, std::int64_t lo, std::int64_t hi) {
  if (hi > lo) v.push_back({lo, hi});
}

/// Sort `v` and coalesce overlapping or touching intervals, in place.
void merge(std::vector<Interval>& v) {
  std::sort(v.begin(), v.end(),
            [](const Interval& a, const Interval& b) { return a.lo < b.lo; });
  std::size_t n = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (n != 0 && v[i].lo <= v[n - 1].hi) {
      v[n - 1].hi = std::max(v[n - 1].hi, v[i].hi);
    } else {
      v[n++] = v[i];
    }
  }
  v.resize(n);
}

bool contains(const std::vector<Interval>& v, std::int64_t lo,
              std::int64_t hi) {
  auto it = std::upper_bound(
      v.begin(), v.end(), lo,
      [](std::int64_t x, const Interval& iv) { return x < iv.lo; });
  if (it == v.begin()) return false;
  --it;
  return it->lo <= lo && hi <= it->hi;
}

/// A loop the plan can justify: trip count plus the per-iteration source and
/// destination advances, at a given nesting depth.
struct LoopSpec {
  std::uint64_t count;
  std::int64_t ss, sd;
  int depth;
  bool operator==(const LoopSpec&) const = default;
};

/// Everything the validator derives from the plan up front.
struct PlanModel {
  std::vector<Interval> src_fp;  // merged legitimate read footprint
  std::vector<Interval> dst_fp;  // merged legitimate write footprint
  std::vector<LoopSpec> loops;
  std::int64_t src_size = 0;
  std::int64_t dst_size = 0;

  bool loop_allowed(const LoopSpec& s) const {
    return std::find(loops.begin(), loops.end(), s) != loops.end();
  }
};

/// Footprint hull of one fixed-layout op, spread across `iters` iterations
/// of an enclosing stride (iters=1, stride=0 at top level). Hulls are a
/// sound over-approximation: anything a faithful compilation touches lies
/// inside them.
void op_footprint(const Op& op, std::int64_t sbase, std::int64_t dbase,
                  std::uint64_t iters, std::int64_t sstride,
                  std::int64_t dstride, std::vector<Interval>& src,
                  std::vector<Interval>& dst) {
  const auto spread_s = static_cast<std::int64_t>(iters - 1) * sstride;
  const auto spread_d = static_cast<std::int64_t>(iters - 1) * dstride;
  switch (op.code) {
    case OpCode::kCopy:
      add_interval(src, sbase + op.src_off,
                   sbase + op.src_off + op.byte_len + spread_s);
      add_interval(dst, dbase + op.dst_off,
                   dbase + op.dst_off + op.byte_len + spread_d);
      return;
    case OpCode::kZero:
      add_interval(dst, dbase + op.dst_off,
                   dbase + op.dst_off + op.byte_len + spread_d);
      return;
    case OpCode::kSwap:
    case OpCode::kCvtNum:
      add_interval(src, sbase + op.src_off,
                   sbase + op.src_off +
                       std::int64_t{op.count} * op.width_src + spread_s);
      add_interval(dst, dbase + op.dst_off,
                   dbase + op.dst_off +
                       std::int64_t{op.count} * op.width_dst + spread_d);
      return;
    case OpCode::kSubLoop:
      for (const Op& sub : op.sub) {
        op_footprint(sub, sbase + op.src_off, dbase + op.dst_off, op.count,
                     op.src_stride, op.dst_stride, src, dst);
      }
      return;
    case OpCode::kString:
    case OpCode::kVarArray:
      // Variable ops run entirely inside the interpreter helper; the
      // generated code itself touches no memory for them.
      return;
  }
}

/// Fill `m` from the plan, reusing its vectors' capacity.
void build_model(const Plan& plan, PlanModel& m) {
  m.src_fp.clear();
  m.dst_fp.clear();
  m.loops.clear();
  m.src_size = plan.src_fixed_size;
  m.dst_size = plan.dst_fixed_size;
  for (const Op& op : plan.ops) {
    op_footprint(op, 0, 0, 1, 0, 0, m.src_fp, m.dst_fp);
    switch (op.code) {
      case OpCode::kSwap:
      case OpCode::kCvtNum:
        m.loops.push_back({op.count, op.width_src, op.width_dst, 0});
        break;
      case OpCode::kSubLoop:
        m.loops.push_back({op.count, op.src_stride, op.dst_stride, 0});
        for (const Op& sub : op.sub) {
          if (sub.code == OpCode::kSwap || sub.code == OpCode::kCvtNum) {
            m.loops.push_back({sub.count, sub.width_src, sub.width_dst, 1});
          }
        }
        break;
      default:
        break;
    }
  }
  merge(m.src_fp);
  merge(m.dst_fp);
}

// --- loop structure ----------------------------------------------------------

struct LoopInfo {
  std::size_t pre_idx = 0;   // first preheader instruction (lea cur_src)
  std::size_t top_idx = 0;   // loop-top instruction
  std::size_t jcc_idx = 0;   // backedge jcc
  std::size_t top_off = 0;
  std::size_t end_off = 0;   // offset just past the backedge
  Reg rs = Reg::rax, rd = Reg::rax, rc = Reg::rax;
  std::uint32_t count = 0;
  std::int32_t ss = 0, sd = 0;
};

constexpr std::size_t kPrologueLen = 10;
constexpr std::size_t kEpilogueLen = 8;

struct PinSet {
  Reg rs, rd, rc;
};

constexpr PinSet kLoopRegs[2] = {
    {Reg::rbx, Reg::rbp, Reg::r15},  // top-level counted_loop
    {Reg::r8, Reg::r9, Reg::rdi},    // loop nested in a kSubLoop body
};

/// A pending forward-branch target: the joined state of every branch to it.
using Pending = std::pair<std::size_t, State>;

/// Every buffer one validation needs. One per thread, reused across
/// validations so a warm validate() allocates nothing; the Validator clears
/// it on construction, so a validation that threw part-way leaves nothing
/// behind for the next one.
struct Scratch {
  Decoded dec;
  PlanModel model;
  std::vector<LoopInfo> loops;       // sorted by top_off
  std::vector<Pending> pending;      // sorted by target offset
  std::vector<const LoopInfo*> lstack;
};

/// First element of the offset-sorted `v` whose `key` is not below `off`.
template <typename T>
auto find_at(std::vector<T>& v, std::size_t off, std::size_t T::*key) {
  return std::lower_bound(
      v.begin(), v.end(), off,
      [key](const T& e, std::size_t o) { return e.*key < o; });
}

// --- the validator -----------------------------------------------------------

class Validator {
 public:
  Validator(std::span<const std::uint8_t> code, const Plan& plan,
            const Options& opts, Scratch& s)
      : code_(code),
        opts_(opts),
        plan_(plan),
        dec_(s.dec),
        model_(s.model),
        loops_(s.loops),
        pending_(s.pending),
        lstack_(s.lstack) {
    loops_.clear();
    pending_.clear();
    lstack_.clear();
    build_model(plan, model_);
  }

  void run() {
    decode_into(code_, dec_);
    if (!dec_.ok) reject(Fault::kDecode, dec_.fail_off, dec_.error);
    check_prologue();
    check_epilogue();
    find_loops();
    execute();
  }

 private:
  const std::vector<Inst>& insts() const { return dec_.insts; }

  // --- structural frame checks ----------------------------------------------

  void check_prologue() {
    if (insts().size() < kPrologueLen + kEpilogueLen) {
      reject(Fault::kPrologue, 0, "code too short for frame");
    }
    static constexpr Reg kPushOrder[6] = {Reg::rbp, Reg::rbx, Reg::r12,
                                          Reg::r13, Reg::r14, Reg::r15};
    for (int i = 0; i < 6; ++i) {
      const Inst& p = insts()[static_cast<std::size_t>(i)];
      if (p.opc != Opc::kPush || p.reg != kPushOrder[i]) {
        reject(Fault::kPrologue, p.off, "callee-saved push sequence wrong");
      }
    }
    const Inst& sub = insts()[6];
    if (sub.opc != Opc::kSubRI || sub.reg != Reg::rsp ||
        static_cast<std::int32_t>(sub.imm) != 8) {
      reject(Fault::kPrologue, sub.off, "stack realignment wrong");
    }
    static constexpr Reg kArgDst[3] = {Reg::r12, Reg::r13, Reg::r14};
    static constexpr Reg kArgSrc[3] = {Reg::rdi, Reg::rsi, Reg::rdx};
    for (int i = 0; i < 3; ++i) {
      const Inst& m = insts()[static_cast<std::size_t>(7 + i)];
      if (m.opc != Opc::kMovRR || m.base != kArgDst[i] ||
          m.reg != kArgSrc[i]) {
        reject(Fault::kPrologue, m.off, "argument register moves wrong");
      }
    }
  }

  void check_epilogue() {
    epi_idx_ = insts().size() - kEpilogueLen;
    const Inst& add = insts()[epi_idx_];
    if (add.opc != Opc::kAddRI || add.reg != Reg::rsp ||
        static_cast<std::int32_t>(add.imm) != 8) {
      reject(Fault::kEpilogue, add.off, "stack restore wrong");
    }
    static constexpr Reg kPopOrder[6] = {Reg::r15, Reg::r14, Reg::r13,
                                         Reg::r12, Reg::rbx, Reg::rbp};
    for (int i = 0; i < 6; ++i) {
      const Inst& p = insts()[epi_idx_ + 1 + static_cast<std::size_t>(i)];
      if (p.opc != Opc::kPop || p.reg != kPopOrder[i]) {
        reject(Fault::kEpilogue, p.off, "callee-saved pop sequence wrong");
      }
    }
    const Inst& last = insts().back();
    if (last.opc != Opc::kRet) {
      reject(Fault::kEpilogue, last.off, "function does not end in ret");
    }
    if (last.off + last.len != code_.size()) {
      reject(Fault::kEpilogue, last.off, "bytes after final ret");
    }
    epi_off_ = add.off;
  }

  // --- loop recognition -------------------------------------------------------

  void find_loops() {
    for (std::size_t j = 0; j < epi_idx_; ++j) {
      const Inst& b = insts()[j];
      if (b.opc != Opc::kJcc || b.rel >= 0) continue;
      if (b.cc != kCcNe) {
        reject(Fault::kLoop, b.off, "backward branch with non-ne condition");
      }
      const auto t = b.target();
      if (t < 0) reject(Fault::kFlow, b.off, "branch before function start");
      const std::size_t t_idx = dec_.index_at(static_cast<std::size_t>(t));
      if (t_idx == SIZE_MAX) {
        reject(Fault::kFlow, b.off, "branch into instruction interior");
      }
      if (t_idx < kPrologueLen + 3 || j < t_idx + 3) {
        reject(Fault::kLoop, b.off, "backedge without loop frame");
      }
      LoopInfo L;
      const Inst& dec = insts()[j - 1];
      const Inst& addd = insts()[j - 2];
      const Inst& adds = insts()[j - 3];
      if (dec.opc != Opc::kDec32 || addd.opc != Opc::kAddRI ||
          adds.opc != Opc::kAddRI) {
        reject(Fault::kLoop, b.off, "loop tail not add/add/dec");
      }
      L.rc = dec.reg;
      L.rd = addd.reg;
      L.sd = static_cast<std::int32_t>(addd.imm);
      L.rs = adds.reg;
      L.ss = static_cast<std::int32_t>(adds.imm);
      const Inst& lea_s = insts()[t_idx - 3];
      const Inst& lea_d = insts()[t_idx - 2];
      const Inst& movc = insts()[t_idx - 1];
      if (lea_s.opc != Opc::kLea || lea_s.reg != L.rs ||
          lea_d.opc != Opc::kLea || lea_d.reg != L.rd ||
          movc.opc != Opc::kMovRI32 || movc.reg != L.rc) {
        reject(Fault::kLoop, b.off, "loop preheader not lea/lea/mov");
      }
      if (L.rs == L.rd || L.rs == L.rc || L.rd == L.rc) {
        reject(Fault::kLoop, b.off, "loop registers not distinct");
      }
      L.count = static_cast<std::uint32_t>(movc.imm);
      if (L.count == 0) {
        reject(Fault::kLoop, b.off, "loop trip count of zero wraps");
      }
      L.pre_idx = t_idx - 3;
      L.top_idx = t_idx;
      L.jcc_idx = j;
      L.top_off = static_cast<std::size_t>(t);
      L.end_off = b.off + b.len;
      const auto at = find_at(loops_, L.top_off, &LoopInfo::top_off);
      if (at != loops_.end() && at->top_off == L.top_off) {
        reject(Fault::kLoop, b.off, "two backedges share a loop top");
      }
      loops_.insert(at, L);
    }
    // Loop regions must nest properly or be disjoint.
    for (const LoopInfo& a : loops_) {
      for (const LoopInfo& bl : loops_) {
        if (a.top_off >= bl.top_off) continue;
        if (bl.top_off < a.end_off && a.end_off < bl.end_off) {
          reject(Fault::kLoop, bl.top_off, "overlapping loop regions");
        }
      }
    }
  }

  /// The loop whose top is at `off`, or nullptr.
  const LoopInfo* loop_at(std::size_t off) {
    const auto it = find_at(loops_, off, &LoopInfo::top_off);
    return it != loops_.end() && it->top_off == off ? &*it : nullptr;
  }

  bool in_loop(const LoopInfo& L, std::size_t off) const {
    return off >= L.top_off && off < L.end_off;
  }

  // --- register discipline ----------------------------------------------------

  /// Throws unless instruction `idx` may write `r`: never the bases/ctx/rsp,
  /// and an active loop's cursor/counter registers only in that loop's own
  /// add/add/dec tail.
  void check_writable(Reg r, std::size_t idx, std::size_t off) const {
    if (r == Reg::rsp || r == Reg::r12 || r == Reg::r13 || r == Reg::r14) {
      reject(Fault::kConvention, off, "write to pinned register");
    }
    for (const LoopInfo* L : lstack_) {
      if (r != L->rs && r != L->rd && r != L->rc) continue;
      if (idx >= L->jcc_idx - 3 && idx < L->jcc_idx) continue;  // own tail
      reject(Fault::kConvention, off, "loop register clobbered in body");
    }
  }

  void write_reg(State& st, Reg r, const AbsVal& v, std::size_t idx,
                 std::size_t off) const {
    check_writable(r, idx, off);
    st.regs[ridx(r)] = v;
  }

  // --- memory access checks ---------------------------------------------------

  void check_access(const AbsVal& a, std::int64_t len, bool is_store,
                    std::size_t off) const {
    if (a.kind != AbsVal::kAddr) {
      reject(Fault::kBounds, off, "memory access through unknown pointer");
    }
    if (len <= 0) reject(Fault::kBounds, off, "non-positive access length");
    const char* what = is_store ? "store" : "load";
    if (is_store && a.region != Region::kDst) {
      reject(Fault::kBounds, off,
             std::string(what) + " outside the native record region");
    }
    if (!is_store && a.region != Region::kSrc) {
      reject(Fault::kBounds, off,
             std::string(what) + " outside the wire record region");
    }
    const std::int64_t lo = a.min_off();
    const std::int64_t hi = saturate(static_cast<__int128>(a.max_off()) + len);
    const std::int64_t size = is_store ? model_.dst_size : model_.src_size;
    if (lo < 0 || hi > size) {
      reject(Fault::kBounds, off,
             std::string(what) + " escapes the record's fixed part");
    }
    const auto& fp = is_store ? model_.dst_fp : model_.src_fp;
    if (!contains(fp, lo, hi)) {
      reject(Fault::kBounds, off,
             std::string(what) + " outside any plan op footprint");
    }
  }

  // --- calls ------------------------------------------------------------------

  const Callee* find_callee(std::uint64_t addr) const {
    for (const Callee& c : opts_.callees) {
      if (c.addr == addr) return &c;
    }
    return nullptr;
  }

  const AbsVal& arg(const State& st, Reg r) const { return st.regs[ridx(r)]; }

  void check_call(std::size_t i, const Inst& ins, State& st) {
    if (ins.reg != Reg::rax) {
      reject(Fault::kConvention, ins.off, "call through non-rax register");
    }
    const AbsVal& target = st.regs[ridx(Reg::rax)];
    if (target.kind != AbsVal::kConst) {
      reject(Fault::kCall, ins.off, "call target not a known constant");
    }
    const Callee* callee = find_callee(target.cval);
    if (callee == nullptr) {
      reject(Fault::kCall, ins.off, "call target not allowlisted");
    }
    const AbsVal& rdi = arg(st, Reg::rdi);
    const AbsVal& rsi = arg(st, Reg::rsi);
    const AbsVal& rdx = arg(st, Reg::rdx);
    switch (callee->kind) {
      case CalleeKind::kMemmove: {
        if (rdx.kind != AbsVal::kConst) {
          reject(Fault::kCall, ins.off, "memmove length unknown");
        }
        const auto len = static_cast<std::int64_t>(rdx.cval);
        if (len <= 0 || len > model_.src_size) {
          reject(Fault::kCall, ins.off, "memmove length outside record");
        }
        check_access(rsi, len, /*is_store=*/false, ins.off);
        check_access(rdi, len, /*is_store=*/true, ins.off);
        break;
      }
      case CalleeKind::kMemset: {
        if (rsi.kind != AbsVal::kConst || rsi.cval != 0) {
          reject(Fault::kCall, ins.off, "memset fill byte not zero");
        }
        if (rdx.kind != AbsVal::kConst) {
          reject(Fault::kCall, ins.off, "memset length unknown");
        }
        const auto len = static_cast<std::int64_t>(rdx.cval);
        if (len <= 0 || len > model_.dst_size) {
          reject(Fault::kCall, ins.off, "memset length outside record");
        }
        check_access(rdi, len, /*is_store=*/true, ins.off);
        break;
      }
      case CalleeKind::kKernel: {
        if (!lstack_.empty()) {
          reject(Fault::kCall, ins.off, "kernel call inside a loop");
        }
        if (rdx.kind != AbsVal::kConst) {
          reject(Fault::kCall, ins.off, "kernel count unknown");
        }
        const auto count = static_cast<std::int64_t>(rdx.cval);
        if (count <= 0 || callee->width_src == 0 || callee->width_dst == 0) {
          reject(Fault::kCall, ins.off, "kernel count/width degenerate");
        }
        check_access(rsi, count * callee->width_src, /*is_store=*/false,
                     ins.off);
        check_access(rdi, count * callee->width_dst, /*is_store=*/true,
                     ins.off);
        break;
      }
      case CalleeKind::kVarOp: {
        if (!lstack_.empty()) {
          reject(Fault::kCall, ins.off, "variable-op call inside a loop");
        }
        if (rdi.kind != AbsVal::kAddr || rdi.region != Region::kCtx ||
            rdi.off != 0 || rdi.ndims != 0) {
          reject(Fault::kCall, ins.off,
                 "variable-op call without the runtime context");
        }
        if (rsi.kind != AbsVal::kConst || rsi.cval >= plan_.ops.size()) {
          reject(Fault::kCall, ins.off, "variable-op index out of range");
        }
        const OpCode oc = plan_.ops[rsi.cval].code;
        if (oc != OpCode::kString && oc != OpCode::kVarArray) {
          reject(Fault::kCall, ins.off,
                 "variable-op index names a fixed-layout op");
        }
        // The error-propagation contract: status must be tested and routed
        // to the shared epilogue immediately.
        if (i + 2 >= epi_idx_) {
          reject(Fault::kFlow, ins.off, "variable-op call without status "
                                        "check");
        }
        const Inst& tst = insts()[i + 1];
        const Inst& br = insts()[i + 2];
        if (tst.opc != Opc::kTestRR32 || tst.base != Reg::rax ||
            tst.reg != Reg::rax || br.opc != Opc::kJcc || br.cc != kCcNe ||
            br.target() != static_cast<std::int64_t>(epi_off_)) {
          reject(Fault::kFlow, ins.off,
                 "variable-op status not propagated to the epilogue");
        }
        break;
      }
    }
    // C ABI: caller-saved registers die; an active loop depending on one of
    // them across the call would be miscompiled.
    static constexpr Reg kCallerSaved[] = {Reg::rax, Reg::rcx, Reg::rdx,
                                           Reg::rsi, Reg::rdi, Reg::r8,
                                           Reg::r9,  Reg::r10, Reg::r11};
    for (Reg r : kCallerSaved) {
      for (const LoopInfo* L : lstack_) {
        if (r == L->rs || r == L->rd || r == L->rc) {
          reject(Fault::kConvention, ins.off,
                 "call clobbers live loop register");
        }
      }
      st.regs[ridx(r)] = AbsVal::unknown();
    }
  }

  // --- control flow -----------------------------------------------------------

  void register_forward(const Inst& ins, std::int64_t t, const State& st) {
    if (t <= static_cast<std::int64_t>(ins.off)) {
      reject(Fault::kFlow, ins.off, "unexpected backward branch");
    }
    if (t >= static_cast<std::int64_t>(epi_off_)) {
      reject(Fault::kFlow, ins.off, "branch into the epilogue");
    }
    const std::size_t toff = static_cast<std::size_t>(t);
    if (dec_.index_at(toff) == SIZE_MAX) {
      reject(Fault::kFlow, ins.off, "branch into instruction interior");
    }
    for (const LoopInfo& L : loops_) {
      if (in_loop(L, toff) != in_loop(L, ins.off)) {
        reject(Fault::kFlow, ins.off, "branch across a loop boundary");
      }
    }
    const auto it = find_at(pending_, toff, &Pending::first);
    if (it == pending_.end() || it->first != toff) {
      pending_.insert(it, {toff, st});
    } else {
      it->second = join(it->second, st);
    }
  }

  void enter_loop(const LoopInfo& L, State& st) {
    const std::size_t depth = lstack_.size();
    if (depth >= 2) {
      reject(Fault::kLoop, L.top_off, "loop nesting deeper than the emitter");
    }
    const PinSet& want = kLoopRegs[depth];
    if (L.rs != want.rs || L.rd != want.rd || L.rc != want.rc) {
      reject(Fault::kConvention, L.top_off,
             "loop registers violate the depth convention");
    }
    if (depth == 1 && !in_loop(*lstack_.back(), L.top_off)) {
      reject(Fault::kLoop, L.top_off, "inner loop outside outer region");
    }
    AbsVal& vs = st.regs[ridx(L.rs)];
    AbsVal& vd = st.regs[ridx(L.rd)];
    AbsVal& vc = st.regs[ridx(L.rc)];
    if (vs.kind != AbsVal::kAddr || vs.region != Region::kSrc) {
      reject(Fault::kLoop, L.top_off, "source cursor not a wire address");
    }
    if (vd.kind != AbsVal::kAddr || vd.region != Region::kDst) {
      reject(Fault::kLoop, L.top_off, "destination cursor not a native "
                                      "address");
    }
    if (vc.kind != AbsVal::kConst || vc.cval != L.count) {
      reject(Fault::kLoop, L.top_off, "loop counter not the preheader count");
    }
    const LoopSpec spec{L.count, L.ss, L.sd, static_cast<int>(depth)};
    if (!model_.loop_allowed(spec)) {
      reject(Fault::kLoop, L.top_off,
             "loop trip count/strides not derived from the plan");
    }
    // Widen: at the loop top, across all iterations, the cursors take
    // exactly the values base + k*stride for k in [0, count).
    widen(vs, {L.ss, L.count}, L);
    widen(vd, {L.sd, L.count}, L);
    vc = AbsVal::unknown();
    lstack_.push_back(&L);
  }

  /// Add a loop dimension to a cursor. Nesting is at most two deep, so a
  /// third dimension can only come from a cursor copied out of an earlier
  /// nest: never emitted, so rejected rather than tracked.
  static void widen(AbsVal& v, Dim d, const LoopInfo& L) {
    if (v.ndims == kMaxDims) {
      reject(Fault::kLoop, L.top_off, "cursor widened through too many loops");
    }
    v.dims[v.ndims++] = d;
  }

  void exit_loop(const LoopInfo& L, State& st) {
    // Cursors and counter are dead after the loop (the emitter always
    // re-establishes them); drop to unknown so stale bounds can't be used.
    st.regs[ridx(L.rs)] = AbsVal::unknown();
    st.regs[ridx(L.rd)] = AbsVal::unknown();
    st.regs[ridx(L.rc)] = AbsVal::unknown();
    lstack_.pop_back();
  }

  // --- the symbolic executor --------------------------------------------------

  void execute() {
    State st;
    st.reachable = true;
    st.regs[ridx(Reg::r12)] = AbsVal::addr(Region::kSrc, 0);
    st.regs[ridx(Reg::r13)] = AbsVal::addr(Region::kDst, 0);
    st.regs[ridx(Reg::r14)] = AbsVal::addr(Region::kCtx, 0);

    for (std::size_t i = kPrologueLen; i < epi_idx_; ++i) {
      const Inst& ins = insts()[i];
      const LoopInfo* loop = loop_at(ins.off);
      if (auto it = find_at(pending_, ins.off, &Pending::first);
          it != pending_.end() && it->first == ins.off) {
        if (loop != nullptr) {
          reject(Fault::kFlow, ins.off, "branch into a loop top");
        }
        st = st.reachable ? join(st, it->second) : it->second;
        pending_.erase(it);
      }
      if (loop != nullptr) {
        if (!st.reachable) {
          reject(Fault::kFlow, ins.off, "unreachable loop");
        }
        enter_loop(*loop, st);
      }
      if (!st.reachable) {
        reject(Fault::kFlow, ins.off, "unreachable instruction");
      }
      step(i, ins, st);
    }

    if (st.reachable) {
      reject(Fault::kFlow, epi_off_, "fallthrough into the epilogue");
    }
    if (!pending_.empty()) {
      reject(Fault::kFlow, pending_.begin()->first,
             "branch target never reached");
    }
    if (!lstack_.empty()) {
      reject(Fault::kLoop, lstack_.back()->top_off, "loop never closed");
    }
  }

  void step(std::size_t i, const Inst& ins, State& st) {
    auto val = [&](Reg r) -> const AbsVal& { return st.regs[ridx(r)]; };
    switch (ins.opc) {
      case Opc::kMovRI32:
      case Opc::kMovRI64:
        write_reg(st, ins.reg, AbsVal::constant(ins.imm), i, ins.off);
        return;
      case Opc::kMovRR:
        write_reg(st, ins.base, val(ins.reg), i, ins.off);
        return;
      case Opc::kXorRR32:
        write_reg(st, ins.base,
                  ins.base == ins.reg ? AbsVal::constant(0)
                                      : AbsVal::unknown(),
                  i, ins.off);
        return;
      case Opc::kLea:
        write_reg(st, ins.reg, val(ins.base).plus(ins.disp), i, ins.off);
        return;
      case Opc::kLoad:
        check_access(val(ins.base).plus(ins.disp), ins.width,
                     /*is_store=*/false, ins.off);
        write_reg(st, ins.reg, AbsVal::unknown(), i, ins.off);
        return;
      case Opc::kStore:
        check_access(val(ins.base).plus(ins.disp), ins.width,
                     /*is_store=*/true, ins.off);
        return;
      case Opc::kAddRI:
        write_reg(st, ins.reg,
                  val(ins.reg).plus(static_cast<std::int32_t>(ins.imm)), i,
                  ins.off);
        return;
      case Opc::kSubRI:
        write_reg(st, ins.reg,
                  val(ins.reg).plus(-static_cast<std::int64_t>(
                      static_cast<std::int32_t>(ins.imm))),
                  i, ins.off);
        return;
      case Opc::kAddRR: {
        const AbsVal& a = val(ins.base);
        const AbsVal& b = val(ins.reg);
        AbsVal out = AbsVal::unknown();
        if (a.kind == AbsVal::kConst && b.kind == AbsVal::kConst) {
          out = AbsVal::constant(a.cval + b.cval);
        } else if (a.kind == AbsVal::kAddr && b.kind == AbsVal::kConst) {
          out = a.plus(static_cast<std::int64_t>(b.cval));
        } else if (a.kind == AbsVal::kConst && b.kind == AbsVal::kAddr) {
          out = b.plus(static_cast<std::int64_t>(a.cval));
        }
        write_reg(st, ins.base, out, i, ins.off);
        return;
      }
      case Opc::kOrRR:
      case Opc::kBswap:
      case Opc::kShl:
      case Opc::kShr:
      case Opc::kSar:
      case Opc::kAndRI32:
      case Opc::kDec32: {
        const Reg dst = (ins.opc == Opc::kOrRR) ? ins.base : ins.reg;
        write_reg(st, dst, AbsVal::unknown(), i, ins.off);
        return;
      }
      case Opc::kTestRR32:
      case Opc::kTestRR64:
      case Opc::kMovGpXmm:
      case Opc::kCvtSi2Sd:
      case Opc::kCvtSd2Ss:
      case Opc::kCvtSs2Sd:
      case Opc::kAddSd:
        return;  // flag/xmm effects only
      case Opc::kMovXmmGp:
      case Opc::kCvtTSd2Si:
        write_reg(st, ins.reg, AbsVal::unknown(), i, ins.off);
        return;
      case Opc::kCallReg:
        check_call(i, ins, st);
        return;
      case Opc::kJmp: {
        const std::int64_t t = ins.target();
        if (t == static_cast<std::int64_t>(epi_off_)) {
          const AbsVal& rax = val(Reg::rax);
          if (rax.kind != AbsVal::kConst || rax.cval != 0) {
            reject(Fault::kFlow, ins.off,
                   "return path without a zero status in eax");
          }
        } else {
          register_forward(ins, t, st);
        }
        st.reachable = false;
        return;
      }
      case Opc::kJcc: {
        const std::int64_t t = ins.target();
        if (ins.rel < 0) {
          if (lstack_.empty() || lstack_.back()->jcc_idx != i) {
            reject(Fault::kFlow, ins.off, "unexpected backward branch");
          }
          exit_loop(*lstack_.back(), st);
          return;  // widened state already covered every iteration
        }
        if (t == static_cast<std::int64_t>(epi_off_)) {
          if (ins.cc != kCcNe) {
            reject(Fault::kFlow, ins.off,
                   "conditional epilogue exit must be jne");
          }
          const Inst& prev = insts()[i - 1];
          if (prev.opc != Opc::kTestRR32 || prev.base != Reg::rax ||
              prev.reg != Reg::rax) {
            reject(Fault::kFlow, ins.off,
                   "error return without an eax status test");
          }
          // Fallthrough means eax tested zero.
          st.regs[ridx(Reg::rax)] = AbsVal::constant(0);
          return;
        }
        register_forward(ins, t, st);
        return;  // fallthrough continues with the same state
      }
      case Opc::kPush:
      case Opc::kPop:
      case Opc::kRet:
        reject(Fault::kConvention, ins.off, "stack operation in the body");
    }
  }

  std::span<const std::uint8_t> code_;
  const Options& opts_;
  const Plan& plan_;
  Decoded& dec_;
  PlanModel& model_;
  std::vector<LoopInfo>& loops_;
  std::vector<Pending>& pending_;
  std::vector<const LoopInfo*>& lstack_;
  std::size_t epi_idx_ = 0;
  std::size_t epi_off_ = 0;
};

}  // namespace

const char* to_string(CalleeKind k) {
  switch (k) {
    case CalleeKind::kMemmove: return "memmove";
    case CalleeKind::kMemset: return "memset";
    case CalleeKind::kKernel: return "kernel";
    case CalleeKind::kVarOp: return "var-op";
  }
  return "?";
}

const char* to_string(Fault f) {
  switch (f) {
    case Fault::kNone: return "none";
    case Fault::kDecode: return "decode";
    case Fault::kPrologue: return "prologue";
    case Fault::kEpilogue: return "epilogue";
    case Fault::kConvention: return "convention";
    case Fault::kFlow: return "flow";
    case Fault::kLoop: return "loop";
    case Fault::kBounds: return "bounds";
    case Fault::kCall: return "call";
  }
  return "?";
}

std::string Report::to_string() const {
  if (ok) return "tval: accepted";
  char buf[64];
  std::snprintf(buf, sizeof buf, "tval: rejected [%s] at +0x%zx: ",
                tval::to_string(fault), off);
  return buf + message;
}

Report validate(std::span<const std::uint8_t> code, const convert::Plan& plan,
                const Options& opts) {
  thread_local Scratch scratch;
  Report rep;
  try {
    Validator(code, plan, opts, scratch).run();
    rep.ok = true;
  } catch (const Reject& r) {
    rep.ok = false;
    rep.fault = r.fault;
    rep.off = r.off;
    rep.message = r.msg;
  }
  return rep;
}

}  // namespace pbio::verify::tval
