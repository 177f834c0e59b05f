#include "vcode/jit_convert.h"

#include <atomic>
#include <cassert>
#include <cstring>

#include "convert/kernels/kernels.h"
#include "obs/span.h"
#include "util/endian.h"
#include "util/logging.h"
#include "vcode/execmem.h"
#include "vcode/vcode.h"
#include "verify/verify.h"

namespace pbio::vcode {

namespace {

namespace kernels = convert::kernels;

using convert::ExecInput;
using convert::NumKind;
using convert::Op;
using convert::OpCode;
using convert::Plan;

/// Context handed to the generated function (r14). Variable-length ops call
/// back into the interpreter through it.
struct JitRt {
  const Plan* plan;
  const ExecInput* in;
  Status* status;  // detailed status for a failing variable op
};

/// C ABI helper the generated code calls for kString / kVarArray ops.
/// Returns 0 on success, the Errc as nonzero otherwise.
extern "C" int pbio_jit_var_op(JitRt* rt, std::uint32_t op_index) {
  const Op& op = rt->plan->ops[op_index];
  Status st = convert::run_op(*rt->plan, op, *rt->in);
  if (st.is_ok()) return 0;
  *rt->status = st;
  return static_cast<int>(st.code());
}

constexpr unsigned kUnrollLimit = 4;
constexpr unsigned kInlineCopyLimit = 64;

/// Initial code and macro-note capacity of a compile. Covers every
/// hetero_bulk pair (at most 224 bytes, 33 macros) and nearly all of the
/// random-spec corpus (at most 446 bytes, 73 macros), so emission grows
/// neither buffer in the common case.
constexpr std::size_t kCodeReserve = 512;
constexpr std::size_t kMacroReserve = 64;

/// Whether the compiler will emit a batch-kernel call for this array op —
/// the exact predicate of ConvertCompiler::try_emit_kernel_call, shared so
/// walk_call_sites (the tval allowlist) reproduces the emission decisions
/// bit for bit.
bool kernel_call_emitted(const Op& op, bool top, kernels::KernelFn fn) {
  return fn != nullptr && top && op.count >= kernels::kMinCount;
}

/// Visit every call the compiler emits for `plan`, in emission order.
/// `sink(addr, kind, width_src, width_dst)` fires once per call site.
template <typename Sink>
void walk_call_sites(const Plan& plan, Sink&& sink) {
  auto visit = [&](const Op& op, bool top, auto&& self) -> void {
    switch (op.code) {
      case OpCode::kCopy:
        if (op.byte_len > kInlineCopyLimit) {
          sink(reinterpret_cast<std::uint64_t>(&std::memmove),
               verify::tval::CalleeKind::kMemmove, 0, 0);
        }
        return;
      case OpCode::kZero:
        if (op.byte_len > kInlineCopyLimit) {
          sink(reinterpret_cast<std::uint64_t>(&std::memset),
               verify::tval::CalleeKind::kMemset, 0, 0);
        }
        return;
      case OpCode::kSwap: {
        kernels::KernelFn fn = kernels::resolve_swap_kernel(op.width_src).fn;
        if (kernel_call_emitted(op, top, fn)) {
          sink(reinterpret_cast<std::uint64_t>(fn),
               verify::tval::CalleeKind::kKernel, op.width_src, op.width_src);
        }
        return;
      }
      case OpCode::kCvtNum: {
        kernels::KernelFn fn =
            kernels::resolve_cvt_kernel(
                kernels::cvt_key(op, plan.src_order, plan.dst_order),
                kernels::active_isa(), op.count)
                .fn;
        if (kernel_call_emitted(op, top, fn)) {
          sink(reinterpret_cast<std::uint64_t>(fn),
               verify::tval::CalleeKind::kKernel, op.width_src, op.width_dst);
        }
        return;
      }
      case OpCode::kSubLoop:
        for (const Op& sub : op.sub) self(sub, /*top=*/false, self);
        return;
      case OpCode::kString:
      case OpCode::kVarArray:
        sink(reinterpret_cast<std::uint64_t>(&pbio_jit_var_op),
             verify::tval::CalleeKind::kVarOp, 0, 0);
        return;
    }
  };
  for (const Op& op : plan.ops) visit(op, /*top=*/true, visit);
}

/// Emission context: which registers act as the record bases, and which
/// loop-register set is free (the top level uses rbx/rbp/r15; loops nested
/// inside a kSubLoop body use r8/r9/rdi).
struct EmitCtx {
  Gp src_base = Regs::src_base;
  Gp dst_base = Regs::dst_base;
  int loop_depth = 0;
};

class ConvertCompiler {
 public:
  explicit ConvertCompiler(const Plan& plan) : plan_(plan) {
    src_be_ = plan.src_order == ByteOrder::kBig;
    dst_be_ = plan.dst_order == ByteOrder::kBig;
  }

  Emitted compile() {
    b_.reserve(kCodeReserve, kMacroReserve);
    b_.prologue();
    EmitCtx top;
    for (std::size_t i = 0; i < plan_.ops.size(); ++i) {
      emit_op(plan_.ops[i], static_cast<std::uint32_t>(i), top);
    }
    b_.ret_ok();
    b_.finish();
    return b_.take();
  }

 private:
  void emit_op(const Op& op, std::uint32_t index, const EmitCtx& ctx) {
    switch (op.code) {
      case OpCode::kCopy:
        emit_copy(ctx, op.src_off, op.dst_off, op.byte_len);
        return;
      case OpCode::kZero:
        emit_zero(ctx, op.dst_off, op.byte_len);
        return;
      case OpCode::kSwap:
        if (try_emit_kernel_call(
                op, ctx, kernels::resolve_swap_kernel(op.width_src).fn)) {
          return;
        }
        emit_array(ctx, op, [this](Gp sb, std::int32_t so, Gp db,
                                   std::int32_t do_, const Op& o) {
          emit_swap_elem(sb, so, db, do_, o.width_src);
        });
        return;
      case OpCode::kCvtNum:
        if (try_emit_kernel_call(
                op, ctx,
                kernels::resolve_cvt_kernel(
                    kernels::cvt_key(op, plan_.src_order, plan_.dst_order),
                    kernels::active_isa(), op.count)
                    .fn)) {
          return;
        }
        emit_array(ctx, op, [this](Gp sb, std::int32_t so, Gp db,
                                   std::int32_t do_, const Op& o) {
          emit_cvt_elem(sb, so, db, do_, o);
        });
        return;
      case OpCode::kSubLoop:
        emit_subloop(op, ctx);
        return;
      case OpCode::kString:
      case OpCode::kVarArray:
        emit_helper_call(index);
        return;
    }
    throw PbioError("jit: bad opcode");
  }

  // --- copies / zero fill ----------------------------------------------------

  void emit_copy(const EmitCtx& ctx, std::int32_t src_off, std::int32_t dst_off,
                 std::uint32_t len) {
    if (len > kInlineCopyLimit) {
      // memcpy(dst, src, len) — all argument registers are scratch.
      b_.lea(Gp::rdi, ctx.dst_base, dst_off);
      b_.lea(Gp::rsi, ctx.src_base, src_off);
      b_.ld_imm32(Gp::rdx, len);
      // memmove: in-place conversions (dst == src buffer) may overlap.
      b_.call(reinterpret_cast<const void*>(&std::memmove));
      return;
    }
    std::uint32_t at = 0;
    for (unsigned w : {8u, 4u, 2u, 1u}) {
      while (len - at >= w) {
        b_.ld(Regs::scratch0, ctx.src_base, src_off + static_cast<std::int32_t>(at),
              w, /*sign=*/false);
        b_.st(ctx.dst_base, dst_off + static_cast<std::int32_t>(at),
              Regs::scratch0, w);
        at += w;
      }
    }
  }

  void emit_zero(const EmitCtx& ctx, std::int32_t dst_off, std::uint32_t len) {
    if (len > kInlineCopyLimit) {
      b_.lea(Gp::rdi, ctx.dst_base, dst_off);
      b_.ld_imm32(Gp::rsi, 0);
      b_.ld_imm32(Gp::rdx, len);
      b_.call(reinterpret_cast<const void*>(&std::memset));
      return;
    }
    b_.raw().xor_rr32(Regs::scratch0, Regs::scratch0);
    std::uint32_t at = 0;
    for (unsigned w : {8u, 4u, 2u, 1u}) {
      while (len - at >= w) {
        b_.st(ctx.dst_base, dst_off + static_cast<std::int32_t>(at),
              Regs::scratch0, w);
        at += w;
      }
    }
  }

  // --- element arrays ----------------------------------------------------------

  /// Large arrays: instead of generating `count` scalar element bodies (or
  /// a scalar loop), emit one call to the batch kernel resolved for this
  /// CPU at codegen time (convert/kernels — SIMD with scalar fallback).
  /// Small arrays keep the inline code: it is branchless, costs no call,
  /// and keeps the generated-code-size/codegen-cost story of
  /// tableb_dcg_cost measurable.
  ///
  /// No overlap check: the kernels accept disjoint ranges and forward
  /// overlaps (dst <= src, never widening), and run()'s entry check
  /// (convert::check_exec_input) admits overlapping buffers only as
  /// dst == src on an inplace_safe plan, whose ops all satisfy that
  /// (convert/kernels/kernels.h). So a kernel call is as legal for an
  /// in-place run as for separate buffers. Top level only:
  /// that is a code-size choice — inside a kSubLoop every iteration would
  /// pay a call, and per-record element runs there are small anyway.
  bool try_emit_kernel_call(const Op& op, const EmitCtx& ctx,
                            kernels::KernelFn fn) {
    if (!kernel_call_emitted(op, /*top=*/ctx.loop_depth == 0, fn)) {
      return false;
    }
    // void kernel(uint8_t* dst, const uint8_t* src, size_t count) — the
    // argument registers are scratch; loop registers are callee-saved.
    b_.lea(Gp::rdi, ctx.dst_base, static_cast<std::int32_t>(op.dst_off));
    b_.lea(Gp::rsi, ctx.src_base, static_cast<std::int32_t>(op.src_off));
    b_.ld_imm32(Gp::rdx, op.count);
    b_.call(reinterpret_cast<const void*>(fn));
    // Runtime calls through generated code are invisible to the interp
    // dispatch counters, so account the callsite (and the per-record
    // element count it will convert) here at codegen time.
    OBS_COUNT("vcode.jit.kernel_callsites", 1);
    OBS_COUNT("vcode.jit.kernel_callsite_elems", op.count);
    return true;
  }

  template <typename ElemFn>
  void emit_array(const EmitCtx& ctx, const Op& op, ElemFn&& elem) {
    if (op.count <= kUnrollLimit) {
      for (std::uint32_t i = 0; i < op.count; ++i) {
        elem(ctx.src_base,
             static_cast<std::int32_t>(op.src_off + i * op.width_src),
             ctx.dst_base,
             static_cast<std::int32_t>(op.dst_off + i * op.width_dst), op);
      }
      return;
    }
    if (ctx.loop_depth == 0) {
      b_.counted_loop(op.count, static_cast<std::int32_t>(op.src_off),
                      static_cast<std::int32_t>(op.dst_off), op.width_src,
                      op.width_dst,
                      [&] { elem(Regs::cur_src, 0, Regs::cur_dst, 0, op); });
      return;
    }
    // Nested loop (inside a kSubLoop body): secondary register set.
    b_.lea(Gp::r8, ctx.src_base, static_cast<std::int32_t>(op.src_off));
    b_.lea(Gp::r9, ctx.dst_base, static_cast<std::int32_t>(op.dst_off));
    b_.ld_imm32(Gp::rdi, op.count);
    Label top;
    b_.raw().bind(top);
    elem(Gp::r8, 0, Gp::r9, 0, op);
    b_.raw().add_ri(Gp::r8, op.width_src);
    b_.raw().add_ri(Gp::r9, op.width_dst);
    b_.raw().dec32(Gp::rdi);
    b_.raw().jcc(Cond::ne, top);
  }

  void emit_swap_elem(Gp sbase, std::int32_t soff, Gp dbase, std::int32_t doff,
                      unsigned width) {
    b_.ld(Regs::scratch0, sbase, soff, width, /*sign=*/false);
    b_.swap(Regs::scratch0, width);
    b_.st(dbase, doff, Regs::scratch0, width);
  }

  /// General numeric element conversion. Mirrors interp.cc's exec_cvt so the
  /// two engines are bit-for-bit interchangeable (the property tests assert
  /// this).
  void emit_cvt_elem(Gp sbase, std::int32_t soff, Gp dbase, std::int32_t doff,
                     const Op& op) {
    const Gp r = Regs::scratch0;
    const Xmm x = Xmm::xmm0;
    const unsigned sw = op.width_src;
    const unsigned dw = op.width_dst;

    // Load the source element into r (integers, 64-bit extended) or x (f64).
    bool value_in_xmm = false;
    if (op.src_kind == NumKind::kFloat) {
      b_.ld(r, sbase, soff, sw, /*sign=*/false);
      if (src_be_) b_.swap(r, sw);
      b_.gp_to_xmm(x, r, sw);
      if (sw == 4) b_.f32_to_f64(x);
      value_in_xmm = true;
    } else {
      const bool sign = op.src_kind == NumKind::kInt;
      if (src_be_ && sw > 1) {
        b_.ld(r, sbase, soff, sw, /*sign=*/false);
        b_.swap(r, sw);
        if (sign && sw < 8) {
          // Sign-extend the swapped value from sw bytes.
          b_.raw().shl_imm(r, 64 - 8 * sw, /*w64=*/true);
          b_.raw().sar_imm(r, 64 - 8 * sw, /*w64=*/true);
        }
      } else {
        b_.ld(r, sbase, soff, sw, sign);
      }
    }

    // Convert + store.
    if (op.dst_kind == NumKind::kFloat) {
      if (!value_in_xmm) {
        if (op.src_kind == NumKind::kInt) {
          b_.i64_to_f64(x, r);
        } else {
          b_.u64_to_f64(x, r);
        }
      }
      if (dw == 4) b_.f64_to_f32(x);
      b_.xmm_to_gp(r, x, dw);
      if (dst_be_) b_.swap(r, dw);
      b_.st(dbase, doff, r, dw);
      return;
    }
    if (value_in_xmm) {
      b_.f64_to_i64(r, x);  // both Int and UInt destinations truncate via i64
    }
    if (dst_be_ && dw > 1) b_.swap(r, dw);
    b_.st(dbase, doff, r, dw);
  }

  // --- nested structs ----------------------------------------------------------

  void emit_subloop(const Op& op, const EmitCtx& ctx) {
    if (ctx.loop_depth != 0) {
      throw PbioError("jit: nested kSubLoop (subformats are flat)");
    }
    b_.counted_loop(
        op.count, static_cast<std::int32_t>(op.src_off),
        static_cast<std::int32_t>(op.dst_off),
        static_cast<std::int32_t>(op.src_stride),
        static_cast<std::int32_t>(op.dst_stride), [&] {
          EmitCtx inner;
          inner.src_base = Regs::cur_src;
          inner.dst_base = Regs::cur_dst;
          inner.loop_depth = 1;
          for (const Op& sub : op.sub) {
            emit_op(sub, /*index=*/0, inner);  // sub ops are never var ops
          }
        });
  }

  // --- variable-length fields ----------------------------------------------------

  void emit_helper_call(std::uint32_t op_index) {
    b_.mov(Gp::rdi, Regs::ctx);
    b_.ld_imm32(Gp::rsi, op_index);
    b_.call(reinterpret_cast<const void*>(&pbio_jit_var_op));
    b_.ret_if_error();
  }

  const Plan& plan_;
  Builder b_;
  bool src_be_ = false;
  bool dst_be_ = false;
};

/// Fill `opts` with the allowlist for `plan`, reusing its capacity.
void fill_tval_options(const Plan& plan, verify::tval::Options& opts) {
  namespace tval = verify::tval;
  opts.callees.clear();
  walk_call_sites(plan, [&opts](std::uint64_t addr, tval::CalleeKind kind,
                                std::uint8_t ws, std::uint8_t wd) {
    if (addr == 0) return;
    for (const tval::Callee& c : opts.callees) {
      if (c.addr == addr && c.kind == kind && c.width_src == ws &&
          c.width_dst == wd) {
        return;
      }
    }
    opts.callees.push_back({addr, kind, ws, wd});
  });
}

/// Validate `code` against `plan` with a per-thread allowlist buffer, so a
/// warm compile builds the allowlist without allocating.
verify::tval::Report validate_code(std::span<const std::uint8_t> code,
                                   const Plan& plan) {
  OBS_SPAN("vcode.jit.tval");
  thread_local verify::tval::Options opts;
  fill_tval_options(plan, opts);
  return verify::tval::validate(code, plan, opts);
}

}  // namespace

verify::tval::Options make_tval_options(const Plan& plan) {
  verify::tval::Options opts;
  fill_tval_options(plan, opts);
  return opts;
}

struct CompiledConvert::Impl {
  /// Tier-up progress. kPending -> kClaimed by claim_tier_up(), then
  /// kDone once generate() has run to its end.
  enum Tier : std::uint8_t { kPending, kClaimed, kDone };

  Plan plan;
  std::unique_ptr<ExecBuffer> buf;
  std::size_t code_size = 0;
  Status verify_error;  // non-ok: plan failed verification, never execute
  verify::tval::Report tval;
  std::vector<MacroNote> notes;
  std::vector<std::size_t> labels;

  using Fn = int (*)(const std::uint8_t*, std::uint8_t*, JitRt*);
  /// Set at most once, by the tier-up's claim holder, with release; every
  /// reader loads it with acquire, which also orders the fields above.
  std::atomic<Fn> fn{nullptr};
  std::atomic<std::uint8_t> tier{kPending};
  std::atomic<std::uint32_t> uses{0};

  /// Seal `code` into an executable buffer and publish its entry point.
  void seal(std::span<const std::uint8_t> code) {
    buf = std::make_unique<ExecBuffer>(code.size());
    std::memcpy(buf->data(), code.data(), code.size());
    buf->make_executable();
    code_size = code.size();
    fn.store(buf->entry<Fn>(), std::memory_order_release);  // mo: release pairs with run()/jitted()'s acquire load; publishes buf and the fields above
  }

  void finish() {
    tier.store(kDone, std::memory_order_release);  // mo: release pairs with wait_tier_up()'s acquire load
    tier.notify_all();
  }
};

CompiledConvert::CompiledConvert(Plan plan)
    : CompiledConvert(std::move(plan), Deferred{}) {
  if (claim_tier_up()) generate();
}

CompiledConvert::CompiledConvert(Plan plan, Deferred)
    : impl_(std::make_unique<Impl>()) {
  impl_->plan = std::move(plan);
  // Generated code has no per-op bounds checks: it trusts the plan's
  // geometry completely. Never emit code — and never fall back to the
  // interpreter either — for a plan the static verifier has not accepted.
  if (!impl_->plan.verified) {
    Status vst = verify::verify_status(impl_->plan);
    if (!vst.is_ok()) {
      OBS_COUNT("vcode.jit.verify_rejects", 1);
      impl_->verify_error = std::move(vst);
      impl_->tier.store(Impl::kDone, std::memory_order_relaxed);  // mo: not yet shared
      return;
    }
    impl_->plan.verified = true;
  }
}

bool CompiledConvert::pending() const {
  return impl_->tier.load(std::memory_order_acquire) == Impl::kPending;  // mo: acquire pairs with finish()'s release store
}

std::uint32_t CompiledConvert::count_use() const {
  return impl_->uses.fetch_add(1, std::memory_order_relaxed) + 1;  // mo: a heuristic count; claim_tier_up() orders the tier-up itself
}

bool CompiledConvert::claim_tier_up() const {
  std::uint8_t expected = Impl::kPending;
  return impl_->tier.compare_exchange_strong(
      expected, Impl::kClaimed, std::memory_order_acq_rel);  // mo: one winner; acquire orders it after the constructor's writes
}

void CompiledConvert::wait_tier_up() const {
  for (;;) {
    const std::uint8_t t = impl_->tier.load(std::memory_order_acquire);  // mo: acquire pairs with finish()'s release store
    if (t != Impl::kClaimed) return;
    impl_->tier.wait(t, std::memory_order_acquire);  // mo: as the load above
  }
}

void CompiledConvert::generate() const {
  Impl& im = *impl_;
  assert(im.tier.load(std::memory_order_relaxed) == Impl::kClaimed);  // mo: claim holder reads its own store
  // Every exit ends the tier-up, with or without code (and if sealing
  // throws), so nothing waits on it forever.
  struct Finish {
    Impl& im;
    ~Finish() { im.finish(); }
  } finish{im};
  if (!jit_supported()) return;
  OBS_SPAN("vcode.jit.compile");
  Emitted out = ConvertCompiler(im.plan).compile();
  const std::vector<std::uint8_t>& code = out.code;
  im.notes = std::move(out.notes);
  im.labels = std::move(out.labels);
  // Translation-validate the fresh bytes before they can ever become
  // executable: decode + symbolic execution against the verified plan.
  im.tval = validate_code(code, im.plan);
  if (!im.tval.ok) {
    OBS_COUNT("pbio.jit.tval_rejects", 1);
    log_warn() << "jit: " << im.tval.to_string()
               << " — falling back to the interpreter";
    assert(im.tval.ok && "tval rejected freshly generated code");
    return;  // interpreter fallback: fn stays null, code never sealed
  }
  im.seal(code);
}

const verify::tval::Report& CompiledConvert::tval_report() const {
  return impl_->tval;
}

const std::vector<MacroNote>& CompiledConvert::macro_notes() const {
  return impl_->notes;
}

const std::vector<std::size_t>& CompiledConvert::label_offsets() const {
  return impl_->labels;
}

CompiledConvert::~CompiledConvert() = default;
CompiledConvert::CompiledConvert(CompiledConvert&&) noexcept = default;
CompiledConvert& CompiledConvert::operator=(CompiledConvert&&) noexcept =
    default;

bool CompiledConvert::jitted() const {
  return impl_->fn.load(std::memory_order_acquire) != nullptr;  // mo: acquire pairs with seal()'s release store
}

std::size_t CompiledConvert::code_size() const {
  return jitted() ? impl_->code_size : 0;
}

std::span<const std::uint8_t> CompiledConvert::code() const {
  if (!jitted()) return {};
  return {impl_->buf->data(), impl_->code_size};
}

const Plan& CompiledConvert::plan() const { return impl_->plan; }

Status CompiledConvert::run(const ExecInput& in) const {
  const Plan& plan = impl_->plan;
  if (!impl_->verify_error.is_ok()) return impl_->verify_error;
  const Impl::Fn fn = impl_->fn.load(std::memory_order_acquire);  // mo: acquire pairs with seal()'s release store
  if (fn == nullptr) {
    return convert::run_plan(plan, in);  // no code (yet): interpret
  }
  // The generated code assumes validated geometry: the interpreter's
  // entry check.
  if (Status st = convert::check_exec_input(plan, in); !st.is_ok()) {
    return st;
  }
  Status status;
  JitRt rt{&plan, &in, &status};
  const int rc = fn(in.src, in.dst, &rt);
  if (rc == 0) return Status::ok();
  if (!status.is_ok()) return status;
  return Status(static_cast<Errc>(rc), "jit conversion failed");
}

}  // namespace pbio::vcode
