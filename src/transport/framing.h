// Buffered stream framing: slice many length-prefixed frames out of one
// large read.
//
// The wire stream is `[len u32 LE][frame bytes]*`. The pre-buffered
// receive path paid two syscalls (header, body) and one heap vector per
// frame; a FrameStream instead reads whatever the kernel has into a pooled
// stream buffer and slices complete frames out of it, so small-message
// workloads amortize to well under one syscall per frame. Partial frames
// (short reads, adversarial split points) simply stay buffered and carry
// over to the next fill.
//
// Alignment: data-frame payloads sit 16 bytes into a frame (wire.h)
// and the zero-copy decode path hands out struct pointers into them, so a
// frame is sliced zero-copy only when its start is 16-aligned; otherwise
// it is copied into a fresh pooled lease (still allocation-free in steady
// state). Compaction re-seats the buffer so the frame after every fill
// starts aligned — large frames, where a copy would actually hurt, take
// the zero-copy path.
#pragma once

#include <cstdint>
#include <span>

#include "transport/wire.h"
#include "util/error.h"
#include "util/pool.h"
#include "util/wire_taint.h"

namespace pbio::transport {

/// Default stream-buffer fill size: one read gathers up to this many bytes.
inline constexpr std::size_t kStreamChunk = 64 * 1024;

/// Refuse a frame no receiver accepts: longer than kMaxFrameLen is
/// kMalformed. No FrameStream would take it, and past 4 GiB its prefix
/// would wrap and desync the stream. Every sender checks each frame of a
/// call before it writes any byte of it.
Status check_frame_len(std::size_t len);

class FrameStream {
 public:
  explicit FrameStream(BufferPool& pool = BufferPool::shared(),
                       std::size_t chunk = kStreamChunk)
      : pool_(pool), chunk_(chunk) {}

  enum class Pull : std::uint8_t {
    kFrame,     // *out holds the next frame
    kNeedMore,  // fill more bytes via write_window()/commit()
    kBad,       // malformed stream; *err says why
  };

  /// Extract the next complete frame from the buffered bytes. The length
  /// prefix is attacker data: everything derived from it is checked
  /// against the buffered byte count before a slice is handed out.
  WIRE_TAINTED Pull next_frame(FrameBuf* out, Status* err);

  WIRE_TAINTED bool has_complete_frame() const;
  std::size_t buffered_bytes() const { return wr_ - rd_; }

  /// Bytes still missing for the next complete frame (1 when the length
  /// prefix itself is incomplete) — the minimum a fill must deliver.
  WIRE_TAINTED std::size_t fill_hint() const;

  /// A writable window with at least `min_free` bytes (and in practice a
  /// full chunk): compacts or swaps the stream buffer, carrying any
  /// partial frame over. Slices handed out earlier keep pinning their old
  /// block; the stream moves on to a fresh one.
  std::span<std::uint8_t> write_window(std::size_t min_free);

  /// Record that `n` bytes were read into the last write_window(). A
  /// commit larger than the window handed out would seat wr_ past the
  /// block and poison every later carryover computation (tail = wr_ - rd_
  /// would copy from beyond the buffer); clamp so rd_ <= wr_ <= capacity
  /// holds even against a buggy caller.
  void commit(std::size_t n) {
    const std::size_t free = buf_.capacity() - wr_;
    wr_ += n < free ? n : free;
  }

 private:
  // Frames are seated so a post-compaction frame body starts 16-aligned:
  // the 4-byte length prefix lands at offset 12.
  static constexpr std::size_t kSeat = 12;

  BufferPool& pool_;
  std::size_t chunk_;
  FrameBuf buf_;
  std::size_t rd_ = 0;  // always at a frame boundary (a length prefix)
  std::size_t wr_ = 0;
};

}  // namespace pbio::transport
