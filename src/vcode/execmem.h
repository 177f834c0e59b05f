// Executable memory for dynamically generated code.
//
// Mirrors what Vcode needs from the OS: a buffer native instructions are
// generated into that can then be executed "without reference to an external
// compiler or linker" (paper §4.3). W^X discipline: pages are writable
// during emission and switched to read+execute before use.
//
// One-page buffers come from a process-wide pool of recycled code pages,
// each flanked by PROT_NONE guards, so sealing one is a single mprotect on
// a one-page mapping: no mmap, page fault or munmap per compiled
// conversion. A released page is made writable and zeroed before reuse;
// larger buffers, and any taken while every slot is live, are mmap'd.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/error.h"

namespace pbio::vcode {

/// Code pages the pool recycles before one-page buffers fall back to mmap.
inline constexpr std::size_t kExecPoolSlots = 64;

/// Thread model: exclusively owned while writable (one thread emits and
/// seals); after make_executable() the pages are immutable and entry() may
/// be called from any thread — Context publishes sealed buffers inside
/// shared_ptr<const Conversion>, and the release/acquire in that handoff
/// orders the code bytes. make_writable() demands exclusive ownership
/// again; nothing in the library calls it on a published buffer.
// thread-domain: any
class ExecBuffer {
 public:
  /// Reserve `capacity` bytes of zeroed, writable, page-aligned memory
  /// (rounded up to whole pages). Throws PbioError if the OS refuses.
  explicit ExecBuffer(std::size_t capacity);
  ~ExecBuffer();

  ExecBuffer(const ExecBuffer&) = delete;
  ExecBuffer& operator=(const ExecBuffer&) = delete;
  ExecBuffer(ExecBuffer&& other) noexcept;
  ExecBuffer& operator=(ExecBuffer&& other) noexcept;

  std::uint8_t* data() { return data_; }
  const std::uint8_t* data() const { return data_; }
  std::size_t capacity() const { return capacity_; }
  bool executable() const { return executable_; }

  /// Flip pages from RW to RX. Emission must be complete.
  void make_executable();

  /// Flip back to RW for regeneration.
  void make_writable();

  /// View the buffer as a callable of type `Fn`. W^X enforcement: refuses
  /// to hand out a callable while the pages are still writable — the buffer
  /// must be sealed with make_executable() first.
  template <typename Fn>
  Fn entry() const {
    if (!executable_) {
      throw PbioError("ExecBuffer: entry() before make_executable()");
    }
    return reinterpret_cast<Fn>(const_cast<std::uint8_t*>(data_));
  }

 private:
  std::uint8_t* data_ = nullptr;
  std::size_t capacity_ = 0;
  bool executable_ = false;
};

/// True if this build/host supports native code generation (x86-64 only).
bool jit_supported();

}  // namespace pbio::vcode
