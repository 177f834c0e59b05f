#include "pbio/message.h"

#include <algorithm>
#include <cstring>

#include "obs/span.h"
#include "value/read.h"

namespace pbio {

namespace {

/// Per-engine decode spans: one histogram per engine so snapshots show
/// where conversion time goes (code vs interpreter), with the source size
/// riding on the trace event. Span sites latch their name at first use, so
/// the conditional needs two distinct sites rather than one dynamic name.
/// Each span's sample count is the engine's record count: a conversion
/// interprets while it has no code (before its tier-up, after
/// a tval rejection, on a host without a JIT). Code, once published,
/// stays, so the run takes the engine the check saw.
Status run_conversion(const Conversion& conv, const convert::ExecInput& in,
                      obs::MetricId pair_hist) {
  if (conv.jitted()) {
    OBS_SPAN("pbio.decode.dcg", in.src_size, pair_hist);
    return conv.run(in);
  }
  OBS_SPAN("pbio.decode.interp", in.src_size, pair_hist);
  return convert::run_plan(conv.plan(), in);
}

}  // namespace

Status decode_record(const Conversion& conv, std::span<const std::uint8_t> src,
                     void* out, std::size_t size, Arena& arena,
                     obs::MetricId pair_hist) {
  const convert::Plan& plan = conv.plan();
  if (plan.identity) {
    // Identity layouts: a single block copy of the fixed part suffices; in
    // fact callers should prefer view<T>() and skip even this copy.
    if (size < plan.dst_fixed_size) {
      return Status(Errc::kTruncated, "output smaller than record");
    }
    OBS_COUNT("pbio.decode.identity_hits", 1);
    const bool timed = pair_hist != obs::kInvalidMetric;
    const std::uint64_t t0 = timed ? obs::ticks() : 0;
    const std::size_t n =
        std::min(src.size(), std::size_t{plan.dst_fixed_size});
    std::memcpy(out, src.data(), n);
    if (timed) {
      obs::histogram_record(pair_hist, obs::ticks_to_ns(obs::ticks() - t0));
    }
    return Status::ok();
  }
  convert::ExecInput in;
  in.src = src.data();
  in.src_size = src.size();
  in.dst = static_cast<std::uint8_t*>(out);
  in.dst_size = size;
  in.mode = convert::VarMode::kPointers;
  in.arena = &arena;
  in.borrow_from_src = true;  // pointers may alias the received frame
  return run_conversion(conv, in, pair_hist);
}

Status Message::decode_into(void* out, std::size_t size) {
  if (!has_native() || conv_ == nullptr) {
    return Status(Errc::kUnknownFormat, "no native format expected");
  }
  // Sampled messages stamp their decode as the final hop of the wire
  // trace; the unsampled majority pays one branch on an invalid ctx.
  const bool traced = trace_ctx_.valid();
  const std::uint64_t trace_t0 = traced ? obs::epoch_ns() : 0;
  struct DecodeStamp {
    const Message* m;
    bool traced;
    std::uint64_t t0;
    ~DecodeStamp() {
      if (traced) {
        obs::trace_emit_ctx("pbio.trace.decode", m->trace_ctx_, t0,
                            obs::epoch_ns());
      }
    }
  } stamp{this, traced, trace_t0};
  return decode_record(*conv_, payload_, out, size, arena_);
}

Status Message::decode_at(std::size_t index, void* out, std::size_t size) {
  if (!has_native() || conv_ == nullptr) {
    return Status(Errc::kUnknownFormat, "no native format expected");
  }
  if (index >= count()) {
    return Status(Errc::kTruncated, "record index out of range");
  }
  return decode_record(*conv_, payload_.subspan(index * wire_->fixed_size),
                       out, size, arena_);
}

Status Message::decode_all(void* out, std::size_t stride,
                           std::size_t capacity) {
  if (!has_native() || conv_ == nullptr) {
    return Status(Errc::kUnknownFormat, "no native format expected");
  }
  const std::size_t n = count();
  if (stride < native_->fixed_size) {
    return Status(Errc::kTruncated, "stride smaller than record");
  }
  if (n != 0 && (capacity / stride < n - 1 || capacity - (n - 1) * stride <
                                                 native_->fixed_size)) {
    return Status(Errc::kTruncated, "output smaller than record batch");
  }
  auto* base = static_cast<std::uint8_t*>(out);
  if (zero_copy()) {
    OBS_COUNT("pbio.decode.identity_hits", n);
    if (stride == wire_->fixed_size) {
      std::memcpy(base, payload_.data(), n * stride);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        std::memcpy(base + i * stride, payload_.data() + i * wire_->fixed_size,
                    native_->fixed_size);
      }
    }
    return Status::ok();
  }
  const convert::Plan& plan = conv_->plan();
  // Whole-record single-op plans over contiguous records collapse into one
  // op with a scaled element count: the batch kernels then see the entire
  // message (count() * fields elements) in a single dispatch.
  if (!plan.has_variable && wire_->is_fixed_layout() &&
      plan.ops.size() == 1 && stride == plan.dst_fixed_size &&
      plan.src_fixed_size == wire_->fixed_size) {
    const convert::Op& op = plan.ops.front();
    const bool whole_record =
        (op.code == convert::OpCode::kSwap ||
         op.code == convert::OpCode::kCvtNum) &&
        op.src_off == 0 && op.dst_off == 0 &&
        std::size_t{op.count} * op.width_src == plan.src_fixed_size &&
        std::size_t{op.count} * op.width_dst == plan.dst_fixed_size;
    if (whole_record) {
      convert::Op batched = op;
      batched.count = static_cast<std::uint32_t>(op.count * n);
      convert::ExecInput in;
      in.src = payload_.data();
      in.src_size = payload_.size();
      in.dst = base;
      in.dst_size = capacity;
      in.mode = convert::VarMode::kPointers;
      in.arena = &arena_;
      in.borrow_from_src = true;
      OBS_SPAN("pbio.decode.batch", payload_.size());
      OBS_COUNT("pbio.decode.batch_records", n);
      return convert::run_op(plan, batched, in);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    Status st = decode_at(i, base + i * stride, stride);
    if (!st.is_ok()) return st;
  }
  return Status::ok();
}

Status Message::convert_in_place() {
  if (converted_in_place_ || zero_copy()) return Status::ok();
  if (conv_ == nullptr) {
    return Status(Errc::kUnknownFormat, "no native format expected");
  }
  if (!conv_->plan().inplace_safe) {
    return Status(Errc::kUnsupported,
                  "layout pair is not in-place convertible");
  }
  auto* base = const_cast<std::uint8_t*>(payload_.data());
  convert::ExecInput in;
  in.src = base;
  in.src_size = payload_.size();
  in.dst = base;
  in.dst_size = payload_.size();
  Status st = run_conversion(*conv_, in, obs::kInvalidMetric);
  if (st.is_ok()) converted_in_place_ = true;
  return st;
}

Result<value::Record> Message::reflect() const {
  if (converted_in_place_) {
    // The buffer now holds the *native* image, not the wire image.
    return value::read_record(*native_, payload_);
  }
  return value::read_record(*wire_, payload_);
}

}  // namespace pbio
