// Microbenchmark for the batch conversion kernels (src/convert/kernels):
// scalar vs SIMD tiers per element width and count, plus the pre-kernel
// per-element interpreter loop as the baseline the tentpole replaces.
// Prints the harness tables and also emits machine-readable results to
// BENCH_kernels.json (in the working directory) so the perf trajectory of
// the swap/convert hot loops is tracked from run to run.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "bench_support/harness.h"
#include "bench_support/workload.h"
#include "convert/interp.h"
#include "convert/kernels/kernels.h"
#include "obs/obs.h"
#include "util/cpu.h"
#include "util/endian.h"

namespace pbio::bench {
namespace {

using convert::NumKind;
using convert::kernels::CvtKey;
using convert::kernels::Isa;
using convert::kernels::KernelFn;

/// ns per element for `fn` on `count` elements; tiny counts run in an
/// inner batch so one timed call stays ~1us+ (above clock granularity).
double ns_per_elem(KernelFn fn, std::uint8_t* dst, const std::uint8_t* src,
                   std::size_t count) {
  const std::size_t reps = count >= 4096 ? 1 : 4096 / count + 1;
  const double ms = measure_ms([&] {
    for (std::size_t r = 0; r < reps; ++r) fn(dst, src, count);
  });
  return ms * 1e6 / static_cast<double>(reps) / static_cast<double>(count);
}

/// The interpreter's pre-kernel per-element swap loop (exec_swap's shape),
/// kept here as the comparison baseline.
template <typename T>
void per_elem_swap(std::uint8_t* dst, const std::uint8_t* src,
                   std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    T v;
    std::memcpy(&v, src + i * sizeof(T), sizeof(T));
    v = byte_swap(v);
    std::memcpy(dst + i * sizeof(T), &v, sizeof(T));
  }
}

std::string fmt_ns(double ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", ns);
  return buf;
}

struct JsonRow {
  std::string kernel;
  unsigned width = 0;
  std::size_t count = 0;
  std::string isa;
  double ns_elem = 0;
  double speedup_vs_scalar = 0;
};

std::vector<Isa> tiers() {
  std::vector<Isa> t = {Isa::kScalar};
  if (convert::kernels::detected_isa() >= Isa::kSsse3)
    t.push_back(Isa::kSsse3);
  if (convert::kernels::detected_isa() >= Isa::kAvx2) t.push_back(Isa::kAvx2);
  return t;
}

int run() {
  print_header("Kernels",
               "Batch swap/convert kernels: scalar vs SIMD tiers; host " +
                   describe(cpu_features()));
  std::vector<JsonRow> json;
  const std::vector<std::size_t> counts = {16, 64, 256, 1024, 4096, 65536};

  std::mt19937 rng(42);
  std::vector<std::uint8_t> src(65536 * 8 + 64);
  for (auto& b : src) b = static_cast<std::uint8_t>(rng());
  std::vector<std::uint8_t> dst(65536 * 8 + 64);

  // --- byte swap ------------------------------------------------------------
  for (unsigned w : {2u, 4u, 8u}) {
    Table t("Byte swap, width " + std::to_string(w) +
                " (ns/elem; speedup vs scalar kernel)",
            {"count", "per-elem", "scalar", "ssse3", "avx2", "best_speedup"});
    for (std::size_t n : counts) {
      const double base =
          w == 2   ? ns_per_elem(&per_elem_swap<std::uint16_t>, dst.data(),
                                 src.data(), n)
          : w == 4 ? ns_per_elem(&per_elem_swap<std::uint32_t>, dst.data(),
                                 src.data(), n)
                   : ns_per_elem(&per_elem_swap<std::uint64_t>, dst.data(),
                                 src.data(), n);
      double scalar_ns = 0;
      double best = 0;
      std::string ssse3_cell = "-", avx2_cell = "-";
      for (Isa isa : tiers()) {
        KernelFn fn = convert::kernels::swap_kernel(w, isa);
        const double ns = ns_per_elem(fn, dst.data(), src.data(), n);
        if (isa == Isa::kScalar) scalar_ns = ns;
        const double speedup = scalar_ns > 0 ? scalar_ns / ns : 0;
        if (isa == Isa::kSsse3) ssse3_cell = fmt_ratio(speedup);
        if (isa == Isa::kAvx2) avx2_cell = fmt_ratio(speedup);
        if (speedup > best) best = speedup;
        json.push_back({"swap", w, n, convert::kernels::to_string(isa), ns,
                        speedup});
      }
      t.add_row({std::to_string(n), fmt_ns(base), fmt_ns(scalar_ns),
                 ssse3_cell, avx2_cell, fmt_ratio(best)});
    }
    t.print();
  }

  // --- numeric conversions --------------------------------------------------
  struct Case {
    const char* name;
    CvtKey key;
  };
  const bool host_le = host_byte_order() == ByteOrder::kLittle;
  auto key = [&](NumKind sk, std::uint8_t sw, bool sswap, NumKind dk,
                 std::uint8_t dw, bool dswap) {
    CvtKey k;
    k.src_kind = sk;
    k.width_src = sw;
    k.src_swap = sswap && host_le;  // wire=foreign-order cases on LE hosts
    k.dst_kind = dk;
    k.width_dst = dw;
    k.dst_swap = dswap && host_le;
    return k;
  };
  const std::vector<Case> cases = {
      {"f32->f64", key(NumKind::kFloat, 4, false, NumKind::kFloat, 8, false)},
      {"f32be->f64", key(NumKind::kFloat, 4, true, NumKind::kFloat, 8, false)},
      {"f64->f32", key(NumKind::kFloat, 8, false, NumKind::kFloat, 4, false)},
      {"i32->i64", key(NumKind::kInt, 4, false, NumKind::kInt, 8, false)},
      {"i32->i64be", key(NumKind::kInt, 4, false, NumKind::kInt, 8, true)},
      {"i64->i32", key(NumKind::kInt, 8, false, NumKind::kInt, 4, false)},
      {"i16->i32", key(NumKind::kInt, 2, false, NumKind::kInt, 4, false)},
      {"i32->f64", key(NumKind::kInt, 4, false, NumKind::kFloat, 8, false)},
      {"f64->i32", key(NumKind::kFloat, 8, false, NumKind::kInt, 4, false)},
  };
  Table t("Numeric conversions at count=4096 (ns/elem; speedup vs scalar)",
          {"conversion", "scalar", "ssse3", "avx2"});
  for (const Case& c : cases) {
    double scalar_ns = 0;
    std::string ssse3_cell = "-", avx2_cell = "-";
    for (Isa isa : tiers()) {
      KernelFn fn = convert::kernels::cvt_kernel(c.key, isa);
      if (fn == nullptr) continue;
      for (std::size_t n : counts) {
        const double ns = ns_per_elem(fn, dst.data(), src.data(), n);
        if (isa == Isa::kScalar && n == 4096) scalar_ns = ns;
        const double speedup = scalar_ns > 0 ? scalar_ns / ns : 0;
        if (n == 4096) {
          if (isa == Isa::kSsse3) ssse3_cell = fmt_ratio(speedup);
          if (isa == Isa::kAvx2) avx2_cell = fmt_ratio(speedup);
        }
        json.push_back({c.name, c.key.width_src, n,
                        convert::kernels::to_string(isa), ns,
                        isa == Isa::kScalar ? 1.0 : speedup});
      }
    }
    t.add_row({c.name, fmt_ns(scalar_ns), ssse3_cell, avx2_cell});
  }
  t.print();

  // --- destination alignment ------------------------------------------------
  // One ~99 KB source (Figure 4's 100 KB record) per call, src 64-byte
  // aligned, dst at each 8-byte offset from a 32-byte boundary, at each
  // SIMD tier, with a same-size memcpy (dst at +8) as the floor. Timed in
  // alternating rounds; median us per call.
  Table at("Destination alignment, ~99 KB per call (us; dst offset mod 32)",
           {"kernel", "+0", "+8", "+16", "+24", "memcpy"});
  std::vector<std::uint8_t> abuf_src(99'224 + 64);
  std::vector<std::uint8_t> abuf_dst(2 * 99'224 + 128);
  for (auto& b : abuf_src) b = static_cast<std::uint8_t>(rng());
  const auto align64 = [](std::uint8_t* p) {
    return p + (64 - reinterpret_cast<std::uintptr_t>(p) % 64) % 64;
  };
  const std::uint8_t* asrc = align64(abuf_src.data());
  std::uint8_t* adst = align64(abuf_dst.data());
  const auto alignment_row = [&](const std::string& name, KernelFn fn,
                                 unsigned width_src, unsigned width_dst) {
    const std::size_t n = 99'224 / width_src;
    auto at_offset = [&, fn, n](std::size_t off) {
      return [=] { fn(adst + off, asrc, n); };
    };
    auto k0 = at_offset(0);
    auto k8 = at_offset(8);
    auto k16 = at_offset(16);
    auto k24 = at_offset(24);
    auto copy = [&, n] { std::memcpy(adst + 8, asrc, n * width_dst); };
    const auto [t0, t8, t16, t24, tc] =
        alternating_rounds_ns(k0, k8, k16, k24, copy);
    at.add_row({name, fmt_ns(median(t0) / 1e3), fmt_ns(median(t8) / 1e3),
                fmt_ns(median(t16) / 1e3), fmt_ns(median(t24) / 1e3),
                fmt_ns(median(tc) / 1e3)});
  };
  for (Isa isa : tiers()) {
    if (isa == Isa::kScalar) continue;
    const std::string tier =
        std::string(" ") + convert::kernels::to_string(isa);
    for (unsigned w : {2u, 4u, 8u}) {
      alignment_row("swap w" + std::to_string(w) + tier,
                    convert::kernels::swap_kernel(w, isa), w, w);
    }
    for (const Case& c : cases) {
      KernelFn fn = convert::kernels::cvt_kernel(c.key, isa);
      if (fn != nullptr) {
        alignment_row(c.name + tier, fn, c.key.width_src, c.key.width_dst);
      }
    }
  }
  at.print();

  // --- wire-path metrics snapshot -------------------------------------------
  // Drive the interpreted decode over the heterogeneous workload set (the
  // fig3 direction: x86 wire into sparc native) so the per-tier kernel
  // dispatch counters reflect a realistic mix, then embed the registry
  // snapshot in the JSON. With PBIO_OBS=OFF it holds the counters only.
  obs::reset();
  for (Size s : all_sizes()) {
    Workload w = make_workload(s, arch::abi_x86(), arch::abi_sparc_v8());
    const convert::Plan plan = convert::compile_plan(w.src_fmt, w.dst_fmt);
    std::vector<std::uint8_t> out(w.dst_fmt.fixed_size);
    convert::ExecInput in;
    in.src = w.src_image.data();
    in.src_size = w.src_image.size();
    in.dst = out.data();
    in.dst_size = out.size();
    for (int i = 0; i < 32; ++i) (void)convert::run_plan(plan, in);
  }
  const std::string metrics = obs::to_json(obs::snapshot());

  // --- machine-readable trajectory ------------------------------------------
  std::FILE* f = std::fopen("BENCH_kernels.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_kernels.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  \"host_features\": \"%s\",\n  \"detected_isa\": \"%s\",\n",
               describe(cpu_features()).c_str(),
               convert::kernels::to_string(convert::kernels::detected_isa()));
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < json.size(); ++i) {
    const JsonRow& r = json[i];
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"width\": %u, \"count\": %zu, "
                 "\"isa\": \"%s\", \"ns_per_elem\": %.4f, "
                 "\"speedup_vs_scalar\": %.3f}%s\n",
                 r.kernel.c_str(), r.width, r.count, r.isa.c_str(), r.ns_elem,
                 r.speedup_vs_scalar, i + 1 == json.size() ? "" : ",");
  }
  std::fprintf(f, "  ],\n  \"obs_enabled\": %s,\n  \"metrics\": %s\n}\n",
               PBIO_OBS_ENABLED ? "true" : "false", metrics.c_str());
  std::fclose(f);
  std::printf("wrote BENCH_kernels.json (%zu rows)\n", json.size());
  return 0;
}

}  // namespace
}  // namespace pbio::bench

int main() { return pbio::bench::run(); }
