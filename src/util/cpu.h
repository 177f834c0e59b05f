// Runtime CPU feature detection (x86 cpuid). The conversion kernels in
// src/convert/kernels pick their SIMD tier from this once per process; on
// non-x86 builds every feature reads false and the scalar tier is used.
#pragma once

#include <string>

namespace pbio {

struct CpuFeatures {
  bool sse2 = false;
  bool sse41 = false;
  bool avx = false;    // includes the OS ymm-state (XGETBV) check
  bool avx2 = false;
};

/// Features of the machine this process runs on. Detected once, cached.
const CpuFeatures& cpu_features();

/// "sse2 sse4.1 avx avx2" — for bench/tool output.
std::string describe(const CpuFeatures& f);

}  // namespace pbio
