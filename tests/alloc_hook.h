// Replaces every form of the global operator new and delete with malloc and
// free, and reports each allocation to `note_alloc`, which the including
// test defines (its counting policy: thread-local, process-wide, traced).
//
// Every replaceable form is covered, the nothrow and aligned ones included.
// A form left out would still come from the toolchain's (or the
// sanitizer's) allocator and then be released here with free(): under ASan
// that is an alloc-dealloc mismatch, and the allocation goes uncounted.
//
// Include from exactly one translation unit of a test binary.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>

void note_alloc(std::size_t n);

namespace alloc_hook {

inline void* try_alloc(std::size_t n) {
  note_alloc(n);
  return std::malloc(n ? n : 1);
}

inline void* try_alloc_aligned(std::size_t n, std::align_val_t a) {
  note_alloc(n);
  const auto align = static_cast<std::size_t>(a);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     n ? n : 1) != 0) {
    return nullptr;
  }
  return p;
}

inline void* alloc(std::size_t n) {
  void* p = try_alloc(n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

inline void* alloc_aligned(std::size_t n, std::align_val_t a) {
  void* p = try_alloc_aligned(n, a);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace alloc_hook

void* operator new(std::size_t n) { return alloc_hook::alloc(n); }
void* operator new[](std::size_t n) { return alloc_hook::alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return alloc_hook::alloc_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return alloc_hook::alloc_aligned(n, a);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return alloc_hook::try_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return alloc_hook::try_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return alloc_hook::try_alloc_aligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return alloc_hook::try_alloc_aligned(n, a);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}
