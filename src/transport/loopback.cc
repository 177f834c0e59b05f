#include "transport/loopback.h"

#include <algorithm>
#include <cstring>

#include "obs/span.h"
#include "transport/wire.h"

namespace pbio::transport {

std::pair<std::unique_ptr<LoopbackChannel>, std::unique_ptr<LoopbackChannel>>
make_loopback_pair() {
  auto q1 = std::make_shared<LoopbackChannel::Queue>();
  auto q2 = std::make_shared<LoopbackChannel::Queue>();
  auto a = std::unique_ptr<LoopbackChannel>(new LoopbackChannel());
  auto b = std::unique_ptr<LoopbackChannel>(new LoopbackChannel());
  a->in_ = q1;
  a->out_ = q2;
  b->in_ = q2;
  b->out_ = q1;
  return {std::move(a), std::move(b)};
}

void LoopbackChannel::Queue::push(FrameBuf msg) {
  if (count == ring.size()) {
    std::rotate(ring.begin(), ring.begin() + static_cast<std::ptrdiff_t>(head),
                ring.end());
    ring.resize(std::max<std::size_t>(16, 2 * count));
    head = 0;
  }
  ring[(head + count++) % ring.size()] = std::move(msg);
}

FrameBuf LoopbackChannel::Queue::pop() {
  FrameBuf msg = std::move(ring[head]);
  head = (head + 1) % ring.size();
  --count;
  OBS_COUNT("transport.loopback.msgs_in", 1);
  OBS_COUNT("transport.loopback.bytes_in", kFrameHeaderLen + msg.size());
  return msg;
}

Status LoopbackChannel::send_frames(std::span<const FrameSegments> frames) {
  for (const FrameSegments& f : frames) {
    // The lease is filled before the lock, so the receiver never waits
    // behind a memcpy.
    const std::size_t len = f.size();
    FrameBuf msg = BufferPool::shared().lease(len);
    std::size_t off = 0;
    for (const auto& s : f.segments) {
      if (!s.empty()) std::memcpy(msg.data() + off, s.data(), s.size());
      off += s.size();
    }
    MutexLock lock(out_->mu);
    if (out_->closed) {
      return Status(Errc::kChannelClosed, "peer closed");
    }
    out_->push(std::move(msg));
    bytes_sent_ += len;
    OBS_COUNT("transport.loopback.msgs_out", 1);
    OBS_COUNT("transport.loopback.bytes_out", kFrameHeaderLen + len);
    if (out_->waiters != 0) out_->cv.notify_one();
  }
  return Status::ok();
}

Result<FrameBuf> LoopbackChannel::recv_buf() {
  MutexLock lock(in_->mu);
  if (in_->count == 0 && !in_->closed) {
    ++in_->waiters;
    // The predicate runs with in_->mu held (CondVar::wait's contract), but
    // the analysis cannot see through condition_variable_any's template.
    in_->cv.wait(lock, [&]() PBIO_NO_THREAD_SAFETY_ANALYSIS {
      return in_->count != 0 || in_->closed;
    });
    --in_->waiters;
  }
  if (in_->count == 0) {
    return Status(Errc::kChannelClosed, "loopback closed");
  }
  return in_->pop();
}

Result<FrameBuf> LoopbackChannel::poll_buf() {
  MutexLock lock(in_->mu);
  if (in_->count == 0) {
    if (in_->closed) {
      return Status(Errc::kChannelClosed, "loopback closed");
    }
    // Short literal on purpose: fits in the SSO buffer, so draining a
    // batch to empty costs no heap allocation.
    return Status(Errc::kWouldBlock, "would block");
  }
  return in_->pop();
}

void LoopbackChannel::close() {
  for (const auto& q : {in_, out_}) {
    MutexLock lock(q->mu);
    q->closed = true;
    q->cv.notify_all();
  }
}

std::size_t LoopbackChannel::pending() const {
  MutexLock lock(in_->mu);
  return in_->count;
}

}  // namespace pbio::transport
