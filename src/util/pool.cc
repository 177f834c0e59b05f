#include "util/pool.h"

#include <cstring>
#include <new>

#include "util/error.h"

namespace pbio {

namespace pooldetail {

Block* new_block(BufferPool* owner, std::size_t capacity,
                 std::uint32_t size_class) {
  void* mem = ::operator new(sizeof(Block) + capacity, std::align_val_t{16});
  Block* b = new (mem) Block;
  b->owner = owner;
  b->capacity = capacity;
  b->size_class = size_class;
  b->refs.store(1, std::memory_order_relaxed);  // mo: block not yet published to another thread
  b->next_free = nullptr;
  return b;
}

void delete_block(Block* b) {
  b->~Block();
  ::operator delete(static_cast<void*>(b), std::align_val_t{16});
}

}  // namespace pooldetail

std::size_t FrameBuf::capacity() const {
  if (block_ == nullptr) return 0;
  return block_->capacity -
         static_cast<std::size_t>(data_ - block_->bytes());
}

void FrameBuf::set_size(std::size_t n) {
  if (n > capacity()) {
    throw PbioError("FrameBuf::set_size beyond capacity");
  }
  size_ = n;
}

FrameBuf FrameBuf::slice(std::size_t off, std::size_t len) const {
  // Two comparisons, not `off + len > capacity()`: that sum can wrap.
  if (block_ == nullptr || off > capacity() || len > capacity() - off) {
    throw PbioError("FrameBuf::slice out of range");
  }
  block_->refs.fetch_add(1, std::memory_order_relaxed);  // mo: refcount increment from a live lease; release() pairs acq_rel
  return FrameBuf(block_, data_ + off, len);
}

void FrameBuf::release() {
  pooldetail::Block* b = block_;
  block_ = nullptr;
  data_ = nullptr;
  size_ = 0;
  if (b == nullptr) return;
  // mo: acq_rel — release orders this lease's writes before the recycle;
  // acquire makes the last releaser see every other lease's writes before
  // the block is reused or freed (the classic shared_ptr decrement pairing).
  if (b->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (b->owner != nullptr) {
      b->owner->recycle(b);
    } else {
      pooldetail::delete_block(b);
    }
  }
}

FrameBuf FrameBuf::heap(std::size_t size) {
  pooldetail::Block* b = pooldetail::new_block(nullptr, size, 0);
  return FrameBuf(b, b->bytes(), size);
}

std::uint32_t BufferPool::class_for(std::size_t size) {
  std::uint32_t log = kMinClassLog;
  while ((std::size_t{1} << log) < size) ++log;
  // callers ensure size <= 1 << kMaxClassLog
  return static_cast<std::uint32_t>(log - kMinClassLog);
}

FrameBuf BufferPool::lease(std::size_t size) {
  owner_.assert_held("BufferPool::lease");
  if (size > (std::size_t{1} << kMaxClassLog)) {
    counters_.add(kOversize, 1);
    counters_.add(kMisses, 1);
    pooldetail::Block* b = pooldetail::new_block(nullptr, size, 0);
    return FrameBuf(b, b->bytes(), size);
  }
  const std::uint32_t cls = class_for(size);
  {
    MutexLock lock(mu_);
    pooldetail::Block* b = free_[cls];
    if (b != nullptr) {
      free_[cls] = b->next_free;
      --free_count_[cls];
      b->next_free = nullptr;
      b->refs.store(1, std::memory_order_relaxed);  // mo: block is unpublished while on the freelist; mu_ ordered the previous owner's release
      counters_.add(kHits, 1);
      return FrameBuf(b, b->bytes(), size);
    }
  }
  counters_.add(kMisses, 1);
  pooldetail::Block* b = pooldetail::new_block(
      this, std::size_t{1} << (cls + kMinClassLog), cls);
  return FrameBuf(b, b->bytes(), size);
}

void BufferPool::recycle(pooldetail::Block* b) {
  owner_.assert_held("BufferPool::recycle");
  {
    MutexLock lock(mu_);
    if (free_count_[b->size_class] < max_free_per_class_) {
      b->next_free = free_[b->size_class];
      free_[b->size_class] = b;
      ++free_count_[b->size_class];
      counters_.add(kRecycled, 1);
      return;
    }
  }
  pooldetail::delete_block(b);
}

BufferPool::~BufferPool() {
  for (std::size_t c = 0; c < kClasses; ++c) {
    pooldetail::Block* b = free_[c];
    while (b != nullptr) {
      pooldetail::Block* next = b->next_free;
      pooldetail::delete_block(b);
      b = next;
    }
  }
}

BufferPool::Stats BufferPool::stats() const {
  return {counters_.get(kHits), counters_.get(kMisses),
          counters_.get(kOversize), counters_.get(kRecycled)};
}

BufferPool& BufferPool::shared() {
  // Leaked on purpose: leases can outlive any scoped owner, and a static
  // local would still be destroyed before late-destructing leases in other
  // translation units.
  static BufferPool* pool = new BufferPool();
  return *pool;
}

}  // namespace pbio
