#include "transport/framing.h"

#include <cstring>

#include "obs/span.h"

namespace pbio::transport {

namespace {

bool aligned16(const std::uint8_t* p) {
  return (reinterpret_cast<std::uintptr_t>(p) & 15u) == 0;  // wire-lint: ok pointer-to-integer for an alignment test only, never dereferenced
}

}  // namespace

Status check_frame_len(std::size_t len) {
  if (len > kMaxFrameLen) {
    OBS_COUNT("transport.frames.refused", 1);
    return Status(Errc::kMalformed, "oversized frame");
  }
  return Status::ok();
}

bool FrameStream::has_complete_frame() const {
  const std::size_t have = buffered_bytes();
  if (have < kFrameHeaderLen) return false;
  const std::uint64_t len = decode_frame_header(buf_.data() + rd_);
  return have >= kFrameHeaderLen + len;
}

std::size_t FrameStream::fill_hint() const {
  const std::size_t have = buffered_bytes();
  if (have < kFrameHeaderLen) return 1;
  const std::uint64_t len = decode_frame_header(buf_.data() + rd_);
  if (len > kMaxFrameLen) return 1;  // next_frame will reject it
  const std::size_t total = kFrameHeaderLen + static_cast<std::size_t>(len);
  return total > have ? total - have : 1;
}

FrameStream::Pull FrameStream::next_frame(FrameBuf* out, Status* err) {
  const std::size_t have = buffered_bytes();
  if (have < kFrameHeaderLen) return Pull::kNeedMore;
  const std::uint64_t len = decode_frame_header(buf_.data() + rd_);
  if (len > kMaxFrameLen) {
    *err = Status(Errc::kMalformed, "oversized frame");
    return Pull::kBad;
  }
  if (have < kFrameHeaderLen + len) return Pull::kNeedMore;
  const std::size_t start = rd_ + kFrameHeaderLen;
  const std::size_t n = static_cast<std::size_t>(len);
  rd_ = start + n;
  if (n == 0 || aligned16(buf_.data() + start)) {
    OBS_COUNT("transport.frames.sliced", 1);
    *out = buf_.slice(start, n);
    return Pull::kFrame;
  }
  // Misaligned slice: re-seat into a pooled lease so the data-frame payload
  // at +16 stays legally aligned for zero-copy struct views.
  OBS_COUNT("transport.frames.reseated", 1);
  FrameBuf copy = pool_.lease(n);
  std::memcpy(copy.data(), buf_.data() + start, n);
  *out = std::move(copy);
  return Pull::kFrame;
}

std::span<std::uint8_t> FrameStream::write_window(std::size_t min_free) {
  if (!buf_.valid()) {
    buf_ = pool_.lease(chunk_ < kSeat + min_free ? kSeat + min_free : chunk_);
    rd_ = wr_ = kSeat;
  }
  if (buf_.capacity() - wr_ >= min_free) {
    return {buf_.data() + wr_, buf_.capacity() - wr_};
  }
  const std::size_t tail = wr_ - rd_;
  const std::size_t need = kSeat + tail + min_free;
  const std::size_t want = need > chunk_ ? need : chunk_;
  if (buf_.exclusive() && buf_.capacity() >= want) {
    // Nothing else references the block: slide the partial frame down.
    std::memmove(buf_.data() + kSeat, buf_.data() + rd_, tail);
  } else {
    // Outstanding slices pin the old block (or it is too small); carry the
    // partial frame into a fresh lease and let the old block return to the
    // pool when its last frame is released.
    FrameBuf fresh = pool_.lease(want);
    std::memcpy(fresh.data() + kSeat, buf_.data() + rd_, tail);
    buf_ = std::move(fresh);
  }
  rd_ = kSeat;
  wr_ = kSeat + tail;
  return {buf_.data() + wr_, buf_.capacity() - wr_};
}

}  // namespace pbio::transport
