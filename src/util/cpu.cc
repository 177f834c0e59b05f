#include "util/cpu.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace pbio {

namespace {

#if defined(__x86_64__) || defined(__i386__)

CpuFeatures detect() {
  CpuFeatures f;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return f;
  f.sse2 = (edx & (1u << 26)) != 0;
  f.sse41 = (ecx & (1u << 19)) != 0;

  // AVX requires the OS to save/restore ymm state: OSXSAVE set and
  // XGETBV reporting xmm+ymm enabled, on top of the AVX cpuid bit.
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool avx_bit = (ecx & (1u << 28)) != 0;
  bool ymm_enabled = false;
  if (osxsave) {
    unsigned lo = 0, hi = 0;
    __asm__ __volatile__("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
    ymm_enabled = (lo & 0x6u) == 0x6u;
  }
  f.avx = avx_bit && ymm_enabled;

  unsigned max_leaf = __get_cpuid_max(0, nullptr);
  if (f.avx && max_leaf >= 7) {
    __cpuid_count(7, 0, eax, ebx, ecx, edx);
    f.avx2 = (ebx & (1u << 5)) != 0;
  }
  return f;
}

#else

CpuFeatures detect() { return CpuFeatures{}; }

#endif

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = detect();
  return f;
}

std::string describe(const CpuFeatures& f) {
  std::string s;
  auto add = [&s](bool on, const char* name) {
    if (!on) return;
    if (!s.empty()) s += ' ';
    s += name;
  };
  add(f.sse2, "sse2");
  add(f.sse41, "sse4.1");
  add(f.avx, "avx");
  add(f.avx2, "avx2");
  if (s.empty()) s = "none";
  return s;
}

}  // namespace pbio
