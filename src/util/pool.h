// Size-classed recycling buffer pool with refcounted leases.
//
// The receive path's steady-state allocation tax (one heap vector per
// frame) is what this removes: transports lease FrameBufs from a pool,
// slice frames out of large stream buffers, and hand the leases to
// Messages. A lease is a refcounted view of a pool block — several frames
// sliced from one stream read share (and pin) the same block — and the
// block returns to the pool's freelist when the last lease drops, so after
// a short warm-up the hot loop performs no heap allocation at all.
//
// Thread model: leases may be created, copied and released on any thread
// (refcounts are atomic; the freelists take a mutex on the lease/release
// cold edges only — no allocation, no syscalls). The pool must outlive its
// leases; transports use the process-wide BufferPool::shared() instance,
// which is never destroyed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>

#include "obs/obs.h"
#include "util/affinity.h"
#include "util/mutex.h"

namespace pbio {

class BufferPool;

namespace pooldetail {

/// Block header; payload bytes follow immediately. The header is padded to
/// 16 bytes and blocks are 16-aligned, so payloads are 16-aligned — the
/// alignment the data-frame header size was chosen for (see pbio/encode.h).
struct alignas(16) Block {
  BufferPool* owner;      // nullptr: plain heap block, freed on last release
  std::size_t capacity;   // payload bytes available
  std::uint32_t size_class;
  std::atomic<std::uint32_t> refs;
  Block* next_free;       // intrusive freelist link (valid while pooled)

  std::uint8_t* bytes() {
    return reinterpret_cast<std::uint8_t*>(this + 1);  // wire-lint: ok header is padded to 16B; payload starts right after it
  }
};
static_assert(sizeof(Block) % 16 == 0, "payload must stay 16-aligned");

Block* new_block(BufferPool* owner, std::size_t capacity,
                 std::uint32_t size_class);
void delete_block(Block* b);

}  // namespace pooldetail

/// A refcounted lease over a byte range of a pool block. Copyable (shares
/// the block), movable, and releases its reference on destruction; the
/// last release returns the block to its pool (or frees it for unpooled
/// blocks). `size()` is the logical frame length; `capacity()` the bytes
/// available from data() to the end of the block.
class FrameBuf {
 public:
  FrameBuf() = default;
  ~FrameBuf() { release(); }

  FrameBuf(const FrameBuf& o) : block_(o.block_), data_(o.data_), size_(o.size_) {
    if (block_ != nullptr) {
      block_->refs.fetch_add(1, std::memory_order_relaxed);  // mo: refcount increment from an existing lease; release() pairs acq_rel
    }
  }
  FrameBuf& operator=(const FrameBuf& o) {
    if (this != &o) {
      FrameBuf copy(o);
      *this = std::move(copy);
    }
    return *this;
  }
  FrameBuf(FrameBuf&& o) noexcept
      : block_(o.block_), data_(o.data_), size_(o.size_) {
    o.block_ = nullptr;
    o.data_ = nullptr;
    o.size_ = 0;
  }
  FrameBuf& operator=(FrameBuf&& o) noexcept {
    if (this != &o) {
      release();
      block_ = o.block_;
      data_ = o.data_;
      size_ = o.size_;
      o.block_ = nullptr;
      o.data_ = nullptr;
      o.size_ = 0;
    }
    return *this;
  }

  bool valid() const { return block_ != nullptr; }
  std::uint8_t* data() { return data_; }
  const std::uint8_t* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const;

  /// True when this is the only lease on the block — the holder may move
  /// bytes around inside it (the stream compaction path).
  bool exclusive() const {
    return block_ != nullptr && block_->refs.load(std::memory_order_acquire) == 1;  // mo: acquire pairs with release()'s acq_rel decrement so a sole owner sees the other lease's last writes
  }

  /// Set the logical length (must fit in capacity()).
  void set_size(std::size_t n);

  std::span<const std::uint8_t> view() const { return {data_, size_}; }
  std::span<std::uint8_t> mutable_view() { return {data_, size_}; }

  /// Aliasing sub-lease of [off, off+len) — bumps the block refcount.
  FrameBuf slice(std::size_t off, std::size_t len) const;

  /// Drop the lease now (idempotent).
  void reset() { release(); }

  /// A lease over a fresh, unpooled heap block — the per-message
  /// allocation behaviour the receive-path benchmark's unbuffered baseline
  /// measures the pool against.
  static FrameBuf heap(std::size_t size);

 private:
  friend class BufferPool;
  FrameBuf(pooldetail::Block* b, std::uint8_t* d, std::size_t n)
      : block_(b), data_(d), size_(n) {}
  void release();

  pooldetail::Block* block_ = nullptr;
  std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

// thread-domain: any
class BufferPool {
 public:
  /// Power-of-two size classes from 64 B to 1 MiB; larger requests get
  /// one-shot heap blocks (counted as oversize, never cached).
  static constexpr std::size_t kMinClassLog = 6;
  static constexpr std::size_t kMaxClassLog = 20;
  static constexpr std::size_t kClasses = kMaxClassLog - kMinClassLog + 1;

  /// `max_free_per_class` bounds the blocks cached per size class; excess
  /// releases free their block instead of growing the pool without bound.
  explicit BufferPool(std::size_t max_free_per_class = 32)
      : max_free_per_class_(max_free_per_class) {}
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Lease a buffer of at least `size` bytes; size() is preset to `size`.
  FrameBuf lease(std::size_t size);

  /// This pool's share of the pbio.pool.* series (the same counters).
  struct Stats {
    std::uint64_t hits = 0;      // leases served from a freelist
    std::uint64_t misses = 0;    // leases that had to allocate
    std::uint64_t oversize = 0;  // leases above the largest size class
    std::uint64_t recycled = 0;  // blocks returned to a freelist
  };
  Stats stats() const;

  /// Process-wide pool used by the transports. Never destroyed, so leases
  /// with arbitrary lifetimes can always release safely. Never owner-bound:
  /// any thread may lease from it.
  static BufferPool& shared();

  /// Pin this pool to the calling thread (PBIO_AFFINITY_CHECK builds):
  /// subsequent lease/recycle traffic from any other thread aborts. The
  /// broker workers bind their private arenas for the lifetime of their
  /// event loop — the "whole connection life on one core" invariant —
  /// and unbind before the loop exits so cross-thread teardown stays legal.
  void bind_owner() { owner_.bind(); }
  void unbind_owner() { owner_.unbind(); }

 private:
  friend class FrameBuf;
  static std::uint32_t class_for(std::size_t size);
  void recycle(pooldetail::Block* b);

  std::size_t max_free_per_class_;
  ThreadOwner owner_;
  Mutex mu_;
  pooldetail::Block* free_[kClasses] PBIO_GUARDED_BY(mu_) = {};
  std::size_t free_count_[kClasses] PBIO_GUARDED_BY(mu_) = {};
  enum Counter : std::size_t { kHits, kMisses, kOversize, kRecycled };
  obs::CounterBlock counters_{"pbio.pool.hits", "pbio.pool.misses",
                              "pbio.pool.oversize", "pbio.pool.recycled"};
};

}  // namespace pbio
