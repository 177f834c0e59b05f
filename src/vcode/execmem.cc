#include "vcode/execmem.h"

#include <sys/mman.h>
#include <unistd.h>

#include <cstring>
#include <functional>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "util/error.h"
#include "util/mutex.h"

namespace pbio::vcode {

namespace {

std::size_t page_size() {
  static const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

std::size_t round_to_pages(std::size_t n) {
  const std::size_t page = page_size();
  return (n + page - 1) / page * page;
}

/// Writable code memory. One-page buffers come from recycled slots: one
/// PROT_NONE window of 2·N+1 pages is reserved up front and slot i is page
/// 2i+1, so every slot is its own VMA between two guards and sealing it is
/// one mprotect that neither splits nor merges a neighbour. A free slot is
/// RW, already faulted and zeroed. Larger buffers, and any taken while
/// every slot is live, are mmap'd and munmap'd as they come and go.
/// Leaked on purpose: sealed buffers held by process-lifetime caches are
/// released during static destruction, after a pool object would be gone.
class CodePages {
 public:
  CodePages()
      : maps_(obs::counter("vcode.exec.maps")),
        reuses_(obs::counter("vcode.exec.reuses")),
        release_failures_(obs::counter("vcode.exec.release_failures")) {
    void* p = ::mmap(nullptr, window_bytes(), PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    // Without the window every buffer takes the mmap path.
    if (p != MAP_FAILED) window_ = static_cast<std::uint8_t*>(p);
    free_.reserve(kExecPoolSlots);
  }

  /// `bytes` (whole pages) of zeroed RW memory, or nullptr if the OS
  /// refuses.
  std::uint8_t* acquire(std::size_t bytes) {
    if (bytes == page_size()) {
      if (std::uint8_t* page = take_slot()) return page;
    }
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) return nullptr;
    obs::counter_add(maps_, 1);
    return static_cast<std::uint8_t*>(p);
  }

  /// A slot goes back to RW, zeroed, onto the free list; a slot that
  /// cannot be made writable again stays sealed and is never handed out.
  void release(std::uint8_t* data, std::size_t bytes, bool sealed) {
    if (!owns(data)) {
      ::munmap(data, bytes);
      return;
    }
    if (sealed && ::mprotect(data, bytes, PROT_READ | PROT_WRITE) != 0) {
      obs::counter_add(release_failures_, 1);
      return;
    }
    std::memset(data, 0, bytes);
    MutexLock lock(mu_);
    free_.push_back(data);  // never reallocates: reserved for every slot
  }

 private:
  static std::size_t window_bytes() {
    return (2 * kExecPoolSlots + 1) * page_size();
  }

  /// Lock-free: the window never moves after construction.
  bool owns(const std::uint8_t* p) const {
    return window_ != nullptr && !std::less<>()(p, window_) &&
           std::less<>()(p, window_ + window_bytes());
  }

  /// A recycled slot, else a newly carved one; nullptr once all are live.
  std::uint8_t* take_slot() {
    std::size_t slot = 0;
    {
      MutexLock lock(mu_);
      if (!free_.empty()) {
        std::uint8_t* page = free_.back();
        free_.pop_back();
        obs::counter_add(reuses_, 1);
        return page;
      }
      if (window_ == nullptr || carved_ == kExecPoolSlots) return nullptr;
      slot = carved_++;
    }
    std::uint8_t* page = window_ + (2 * slot + 1) * page_size();
    if (::mprotect(page, page_size(), PROT_READ | PROT_WRITE) != 0) {
      return nullptr;  // the slot stays a guard; mmap serves this buffer
    }
    obs::counter_add(maps_, 1);
    return page;
  }

  std::uint8_t* window_ = nullptr;
  const obs::MetricId maps_;
  const obs::MetricId reuses_;
  const obs::MetricId release_failures_;
  Mutex mu_;
  std::vector<std::uint8_t*> free_ PBIO_GUARDED_BY(mu_);
  std::size_t carved_ PBIO_GUARDED_BY(mu_) = 0;
};

CodePages& code_pages() {
  static CodePages* const pages = new CodePages();
  return *pages;
}

}  // namespace

ExecBuffer::ExecBuffer(std::size_t capacity)
    : data_(code_pages().acquire(round_to_pages(capacity))),
      capacity_(round_to_pages(capacity)) {
  if (data_ == nullptr) throw PbioError("ExecBuffer: mmap failed");
}

ExecBuffer::~ExecBuffer() {
  if (data_ != nullptr) code_pages().release(data_, capacity_, executable_);
}

ExecBuffer::ExecBuffer(ExecBuffer&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      capacity_(std::exchange(other.capacity_, 0)),
      executable_(std::exchange(other.executable_, false)) {}

ExecBuffer& ExecBuffer::operator=(ExecBuffer&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) code_pages().release(data_, capacity_, executable_);
    data_ = std::exchange(other.data_, nullptr);
    capacity_ = std::exchange(other.capacity_, 0);
    executable_ = std::exchange(other.executable_, false);
  }
  return *this;
}

void ExecBuffer::make_executable() {
  if (data_ == nullptr) throw PbioError("ExecBuffer: sealed after move");
  if (::mprotect(data_, capacity_, PROT_READ | PROT_EXEC) != 0) {
    throw PbioError("ExecBuffer: mprotect(RX) failed");
  }
  executable_ = true;
}

void ExecBuffer::make_writable() {
  if (data_ == nullptr) throw PbioError("ExecBuffer: unsealed after move");
  if (::mprotect(data_, capacity_, PROT_READ | PROT_WRITE) != 0) {
    throw PbioError("ExecBuffer: mprotect(RW) failed");
  }
  executable_ = false;
}

bool jit_supported() {
#if defined(__x86_64__)
  return true;
#else
  return false;
#endif
}

}  // namespace pbio::vcode
