#include "transport/loopback.h"

#include <cstring>

#include "obs/span.h"

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

Status LoopbackChannel::enqueue(FrameBuf msg, std::size_t bytes) {
  MutexLock lock(out_->mu);
  if (out_->closed) {
    return Status(Errc::kChannelClosed, "peer closed");
  }
  out_->messages.push_back(std::move(msg));
  bytes_sent_ += bytes;
  OBS_COUNT("transport.loopback.msgs_out", 1);
  OBS_COUNT("transport.loopback.bytes_out", bytes);
  if (out_->waiters != 0) out_->cv.notify_one();
  return Status::ok();
}

Status LoopbackChannel::send(std::span<const std::uint8_t> bytes) {
  FrameBuf msg = BufferPool::shared().lease(bytes.size());
  if (!bytes.empty()) std::memcpy(msg.data(), bytes.data(), bytes.size());
  return enqueue(std::move(msg), bytes.size());
}

Status LoopbackChannel::send_gather(
    std::span<const std::span<const std::uint8_t>> segments) {
  std::size_t total = 0;
  for (const auto& s : segments) total += s.size();
  FrameBuf msg = BufferPool::shared().lease(total);
  std::size_t at = 0;
  for (const auto& s : segments) {
    if (!s.empty()) {
      std::memcpy(msg.data() + at, s.data(), s.size());
      at += s.size();
    }
  }
  return enqueue(std::move(msg), total);
}

Result<std::vector<std::uint8_t>> LoopbackChannel::recv() {
  auto buf = recv_buf();
  if (!buf.is_ok()) return buf.status();
  const FrameBuf& f = buf.value();
  return std::vector<std::uint8_t>(f.data(), f.data() + f.size());
}

Result<FrameBuf> LoopbackChannel::recv_buf() {
  MutexLock lock(in_->mu);
  if (in_->messages.empty() && !in_->closed) {
    ++in_->waiters;
    // The predicate runs with in_->mu held (CondVar::wait's contract), but
    // the analysis cannot see through condition_variable_any's template.
    in_->cv.wait(lock, [&]() PBIO_NO_THREAD_SAFETY_ANALYSIS {
      return !in_->messages.empty() || in_->closed;
    });
    --in_->waiters;
  }
  if (in_->messages.empty()) {
    return Status(Errc::kChannelClosed, "loopback closed");
  }
  FrameBuf msg = std::move(in_->messages.front());
  in_->messages.pop_front();
  OBS_COUNT("transport.loopback.msgs_in", 1);
  OBS_COUNT("transport.loopback.bytes_in", msg.size());
  return msg;
}

Result<FrameBuf> LoopbackChannel::poll_buf() {
  MutexLock lock(in_->mu);
  if (in_->messages.empty()) {
    if (in_->closed) {
      return Status(Errc::kChannelClosed, "loopback closed");
    }
    // Short literal on purpose: fits in the SSO buffer, so draining a
    // batch to empty costs no heap allocation.
    return Status(Errc::kWouldBlock, "would block");
  }
  FrameBuf msg = std::move(in_->messages.front());
  in_->messages.pop_front();
  OBS_COUNT("transport.loopback.msgs_in", 1);
  OBS_COUNT("transport.loopback.bytes_in", msg.size());
  return msg;
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
  return in_->messages.size();
}

}  // namespace pbio::transport
