// Microbenchmark for the batch conversion kernels (src/convert/kernels):
// every SIMD instantiation the resolver can return, each against the
// scalar kernel of the same key, at each element count; the byte swaps
// also against the pre-kernel per-element interpreter loop. Prints the
// harness tables and also emits machine-readable results to
// BENCH_kernels.json (in the working directory), which
// tools/kernel_rule.py checks against the keep-or-delete rule of
// docs/kernels.md.
#include <algorithm>
#include <array>
#include <cstdint>
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

/// One kernel call on fixed buffers, a callable for alternating_rounds_ns().
struct Call {
  KernelFn fn;
  std::uint8_t* dst;
  const std::uint8_t* src;
  std::size_t count;
  void operator()() const { fn(dst, src, count); }
};

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

/// A SIMD instantiation: its row name, the scalar kernel of the same key,
/// its own kernel, and the shortest run it takes (below it the key
/// resolves to the scalar kernel).
struct Case {
  std::string name;
  unsigned width_src = 0;
  unsigned width_dst = 0;
  KernelFn scalar = nullptr;
  KernelFn simd = nullptr;
  std::size_t min_count = convert::kernels::kMinCount;
};

/// "i32", "u16be", "f64": a side of a key, "be" when it swaps (the foreign
/// order on a little-endian host).
std::string side_name(NumKind kind, unsigned width, bool swap) {
  const char* k = kind == NumKind::kFloat  ? "f"
                  : kind == NumKind::kUInt ? "u"
                                           : "i";
  return k + std::to_string(8 * width) + (swap ? "be" : "");
}

/// An integer destination stores the same low bytes whatever its kind, so
/// its name takes the source's signedness: "u32->u64", "i64->i32".
std::string cvt_name(const CvtKey& k) {
  const NumKind dst_kind = k.dst_kind == NumKind::kFloat ? NumKind::kFloat
                           : k.src_kind == NumKind::kUInt ? NumKind::kUInt
                                                          : NumKind::kInt;
  return side_name(k.src_kind, k.width_src, k.src_swap) + "->" +
         side_name(dst_kind, k.width_dst, k.dst_swap);
}

/// Every AVX2 cvt instantiation on this host, once each: the keys the plan
/// compiler can emit (integers of 1-8 bytes and floats of 4 or 8 on each
/// side, each swap combination), named after the first key that resolves
/// to it. Empty on a host without AVX2.
std::vector<Case> avx2_cvt_cases() {
  std::vector<Case> cases;
  if (convert::kernels::detected_isa() < Isa::kAvx2) return cases;
  const auto widths = [](NumKind k) {
    return k == NumKind::kFloat ? std::vector<unsigned>{4, 8}
                                : std::vector<unsigned>{1, 2, 4, 8};
  };
  for (NumKind sk : {NumKind::kInt, NumKind::kUInt, NumKind::kFloat}) {
    for (NumKind dk : {NumKind::kInt, NumKind::kUInt, NumKind::kFloat}) {
      for (unsigned ws : widths(sk)) {
        for (unsigned wd : widths(dk)) {
          for (int swaps = 0; swaps < 4; ++swaps) {
            CvtKey k;
            k.src_kind = sk;
            k.width_src = static_cast<std::uint8_t>(ws);
            k.src_swap = (swaps & 1) != 0 && ws > 1;
            k.dst_kind = dk;
            k.width_dst = static_cast<std::uint8_t>(wd);
            k.dst_swap = (swaps & 2) != 0 && wd > 1;
            const auto r = convert::kernels::resolve_cvt_kernel(k, Isa::kAvx2);
            if (r.isa != Isa::kAvx2 ||
                std::any_of(cases.begin(), cases.end(),
                            [&r](const Case& c) { return c.simd == r.fn; })) {
              continue;
            }
            cases.push_back(
                {cvt_name(k), ws, wd,
                 convert::kernels::resolve_cvt_kernel(k, Isa::kScalar).fn,
                 r.fn, r.min_count});
          }
        }
      }
    }
  }
  return cases;
}

int run() {
  print_header("Kernels",
               "Batch swap/convert kernels: scalar vs AVX2 tier; host " +
                   describe(cpu_features()));
  std::vector<JsonFields> json;
  const std::vector<std::size_t> counts = {16, 64, 256, 1024, 4096, 65536};
  const bool avx2 = convert::kernels::detected_isa() >= Isa::kAvx2;

  std::mt19937 rng(42);
  std::vector<std::uint8_t> src(65536 * 8 + 64);
  for (auto& b : src) b = static_cast<std::uint8_t>(rng());
  std::vector<std::uint8_t> dst(65536 * 8 + 64);
  const auto row = [&](const std::string& kernel, unsigned width,
                       std::size_t n, Isa isa, double ns, double speedup) {
    json.push_back(
        {{"kernel", json_str(kernel)},
         {"width", std::to_string(width)},
         {"count", std::to_string(n)},
         {"isa", json_str(convert::kernels::to_string(isa))},
         {"ns_per_elem", json_num(ns / static_cast<double>(n), 4)},
         {"speedup_vs_scalar", json_num(speedup, 3)}});
  };
  const auto per_1k = [](const std::vector<double>& ns, std::size_t n) {
    return fmt_us(median(ns) * 1e3 / static_cast<double>(n));
  };
  const auto ratio2 = [](double r) { return json_num(r, 2) + "x"; };

  // --- byte swap ------------------------------------------------------------
  std::vector<Case> swaps;
  for (unsigned w : {2u, 4u, 8u}) {
    Table t("Byte swap, width " + std::to_string(w) +
                " (us per 1k elements; avx2 speedup vs scalar kernel)",
            {"count", "per-elem", "scalar", "avx2"});
    const KernelFn per_elem = w == 2   ? &per_elem_swap<std::uint16_t>
                              : w == 4 ? &per_elem_swap<std::uint32_t>
                                       : &per_elem_swap<std::uint64_t>;
    const auto scalar = convert::kernels::resolve_swap_kernel(w, Isa::kScalar);
    const auto simd = convert::kernels::resolve_swap_kernel(w, Isa::kAvx2);
    const bool has_simd = avx2 && simd.isa == Isa::kAvx2;
    if (has_simd) swaps.push_back({"swap w" + std::to_string(w), w, w,
                                   scalar.fn, simd.fn});
    for (std::size_t n : counts) {
      Call per{per_elem, dst.data(), src.data(), n};
      Call c0{scalar.fn, dst.data(), src.data(), n};
      // Without an AVX2 form the scalar kernel runs in its slot, so every
      // row times the same calls; the cell prints "-" and writes no row.
      Call c1{has_simd ? simd.fn : scalar.fn, dst.data(), src.data(), n};
      const auto [t_per, t0, t1] = alternating_rounds_ns(per, c0, c1);
      row("swap", w, n, Isa::kScalar, median(t0), 1.0);
      std::string cell = "-";
      if (has_simd) {
        const double s = median_ratio(t0, t1);
        row("swap", w, n, Isa::kAvx2, median(t1), s);
        cell = ratio2(s);
      }
      t.add_row({std::to_string(n), per_1k(t_per, n), per_1k(t0, n), cell});
    }
    t.print();
  }

  // --- numeric conversions --------------------------------------------------
  const std::vector<Case> cases = avx2_cvt_cases();
  std::vector<std::string> columns = {"conversion", "avx2 from",
                                      "scalar@4096"};
  for (std::size_t n : counts) columns.push_back("n=" + std::to_string(n));
  columns.push_back("best");
  Table t("Numeric conversions: every AVX2 instantiation (scalar us per 1k "
          "elements at n=4096; avx2 speedup vs scalar kernel per count, "
          "\"-\" where the key resolves to scalar)",
          columns);
  for (const Case& c : cases) {
    std::vector<std::string> cells = {c.name, std::to_string(c.min_count),
                                      ""};
    double best = 0;
    for (std::size_t n : counts) {
      // Below the form's min_count the scalar kernel runs at this count,
      // so it times in the AVX2 slot too and writes no AVX2 row.
      const bool simd_runs = n >= c.min_count;
      Call c0{c.scalar, dst.data(), src.data(), n};
      Call c1{simd_runs ? c.simd : c.scalar, dst.data(), src.data(), n};
      const auto [t0, t1] = alternating_rounds_ns(c0, c1);
      row(c.name, c.width_src, n, Isa::kScalar, median(t0), 1.0);
      if (n == 4096) cells[2] = per_1k(t0, n);
      if (!simd_runs) {
        cells.push_back("-");
        continue;
      }
      const double s = median_ratio(t0, t1);
      row(c.name, c.width_src, n, Isa::kAvx2, median(t1), s);
      cells.push_back(ratio2(s));
      best = std::max(best, s);
    }
    cells.push_back(ratio2(best));
    t.add_row(cells);
  }
  t.print();

  // --- destination alignment ------------------------------------------------
  // One ~99 KB source (Figure 4's 100 KB record) per call, src 64-byte
  // aligned, dst at each 8-byte offset from a 32-byte boundary, for each
  // AVX2 kernel, with a same-size memcpy (dst at +8) as the floor. Timed in
  // alternating rounds; median us per call.
  Table at("Destination alignment, ~99 KB per call (us; dst offset mod 32)",
           {"kernel", "+0", "+8", "+16", "+24", "memcpy"});
  // The memcpy floor copies as many bytes as the kernel writes, up to
  // twice the source for the widening kernels.
  std::vector<std::uint8_t> abuf_src(2 * 99'224 + 64);
  std::vector<std::uint8_t> abuf_dst(2 * 99'224 + 128);
  for (auto& b : abuf_src) b = static_cast<std::uint8_t>(rng());
  const auto align64 = [](std::uint8_t* p) {
    return p + (64 - reinterpret_cast<std::uintptr_t>(p) % 64) % 64;
  };
  const std::uint8_t* asrc = align64(abuf_src.data());
  std::uint8_t* adst = align64(abuf_dst.data());
  for (const std::vector<Case>* group :
       std::array<const std::vector<Case>*, 2>{&swaps, &cases}) {
    for (const Case& c : *group) {
      const std::size_t n = 99'224 / c.width_src;
      auto at_offset = [&, fn = c.simd, n](std::size_t off) {
        return [=] { fn(adst + off, asrc, n); };
      };
      auto k0 = at_offset(0);
      auto k8 = at_offset(8);
      auto k16 = at_offset(16);
      auto k24 = at_offset(24);
      auto copy = [&, n, w = c.width_dst] {
        std::memcpy(adst + 8, asrc, n * w);
      };
      const auto [t0, t8, t16, t24, tc] =
          alternating_rounds_ns(k0, k8, k16, k24, copy);
      at.add_row({c.name, fmt_us(median(t0)), fmt_us(median(t8)),
                  fmt_us(median(t16)), fmt_us(median(t24)),
                  fmt_us(median(tc))});
    }
  }
  at.print();

  // --- wire-path metrics snapshot -------------------------------------------
  // Drive the interpreted decode over the heterogeneous workload set (the
  // fig3 direction: x86 wire into sparc native) so the per-tier kernel
  // dispatch counters reflect a realistic mix, then embed the registry
  // snapshot in the JSON.
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
  const bool written = write_bench_json(
      "BENCH_kernels.json", "kernels_bench",
      {{"host_features", json_str(describe(cpu_features()))},
       {"detected_isa",
        json_str(convert::kernels::to_string(
            convert::kernels::detected_isa()))},
       {"metrics", metrics}},
      json);
  return written ? 0 : 1;
}

}  // namespace
}  // namespace pbio::bench

int main() { return pbio::bench::run(); }
