#include "broker/send_queue.h"

#include "obs/span.h"

namespace pbio::broker {

void SendQueue::grow() {
  const std::size_t cap = ring_.empty() ? 16 : ring_.size() * 2;
  std::vector<Item> bigger(cap);
  for (std::size_t i = 0; i < count_; ++i) {
    Item& src = ring_[(head_ + i) & (ring_.size() - 1)];
    bigger[i].frame = std::move(src.frame);
    std::copy(std::begin(src.hdr), std::end(src.hdr), std::begin(bigger[i].hdr));
    bigger[i].enq_ticks = src.enq_ticks;
    bigger[i].trace = src.trace;
  }
  ring_ = std::move(bigger);
  head_ = 0;
}

Status SendQueue::push(FrameBuf frame, const obs::TraceCtx* trace) {
  Status st = transport::check_frame_len(frame.size());
  if (!st.is_ok()) return st;
  if (count_ == ring_.size()) grow();
  Item& it = ring_[(head_ + count_) & (ring_.size() - 1)];
  encode_frame_header(frame.size(), it.hdr);
  queued_bytes_ += kFrameHeaderLen + frame.size();
  it.frame = std::move(frame);
  it.enq_ticks = obs::ticks();
  it.trace = trace != nullptr ? *trace : obs::TraceCtx{};
  ++count_;
  return Status::ok();
}

Result<SendQueue::FlushResult> SendQueue::flush(transport::WireSink& sink,
                                                obs::MetricId residency_hist) {
  FlushResult res;
  while (count_ > 0) {
    // Gather up to kFlushFrames frames, the head one adjusted for bytes
    // already on the wire from an earlier short write.
    iov_scratch_.clear();
    const std::size_t mask = ring_.size() - 1;
    const std::size_t n = std::min(count_, kFlushFrames);
    for (std::size_t i = 0; i < n; ++i) {
      Item& it = ring_[(head_ + i) & mask];
      std::size_t skip = (i == 0) ? head_written_ : 0;
      if (skip < kFrameHeaderLen) {
        iov_scratch_.push_back({it.hdr + skip, kFrameHeaderLen - skip});
        skip = 0;
      } else {
        skip -= kFrameHeaderLen;
      }
      if (it.frame.size() > skip) {
        iov_scratch_.push_back({it.frame.data() + skip, it.frame.size() - skip});
      }
    }
    auto wrote = sink.writev_some(iov_scratch_);
    if (!wrote.is_ok()) {
      if (wrote.status().code() == Errc::kWouldBlock) {
        res.blocked = true;
        return res;
      }
      return wrote.status();
    }
    std::size_t w = wrote.value();
    res.bytes += w;
    queued_bytes_ -= w;
    // Retire fully-written head frames; a trailing partial write advances
    // head_written_ so the next flush resumes mid-frame.
    while (count_ > 0 && w > 0) {
      Item& head = ring_[head_ & mask];
      const std::size_t wire =
          kFrameHeaderLen + head.frame.size() - head_written_;
      if (w < wire) {
        head_written_ += w;
        w = 0;
        break;
      }
      w -= wire;
      // Egress stamp: this frame is fully on the wire (kernel-accepted).
      // Residency = enqueue to here — the time a response waited behind a
      // slow peer or a deep queue.
      const std::uint64_t now_ticks = obs::ticks();
      const std::uint64_t res_ns = obs::ticks_to_ns(
          now_ticks >= head.enq_ticks ? now_ticks - head.enq_ticks : 0);
      if (residency_hist != obs::kInvalidMetric) {
        obs::histogram_record(residency_hist, res_ns);
      }
      if (head.trace.valid()) {
        const std::uint64_t end_ns = obs::epoch_ns();
        obs::trace_emit_ctx("pbio.trace.queue", head.trace,
                            end_ns - res_ns, end_ns);
        head.trace = obs::TraceCtx{};
      }
      head.frame.reset();
      head_written_ = 0;
      head_ = (head_ + 1) & mask;
      --count_;
      ++res.frames;
    }
  }
  return res;
}

}  // namespace pbio::broker
