// Microbenchmark for the batch conversion kernels (src/convert/kernels):
// scalar vs SIMD tiers per element width and count, plus the pre-kernel
// per-element interpreter loop as the baseline the tentpole replaces.
// Prints the harness tables and also emits machine-readable results to
// BENCH_kernels.json (in the working directory) so the perf trajectory of
// the swap/convert hot loops is tracked from run to run.
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

constexpr std::array<Isa, 3> kTiers = {Isa::kScalar, Isa::kSsse3, Isa::kAvx2};

/// One row's kernel calls at each tier, in kTiers order. A tier the host
/// or the conversion lacks (`has` false) runs the scalar kernel in its
/// slot, so every row times the same calls; it prints "-" and writes no
/// JSON row.
struct TierCalls {
  std::array<Call, 3> call;
  std::array<bool, 3> has{};
};

template <typename KernelOf>
TierCalls tier_calls(KernelOf kernel_of, std::uint8_t* dst,
                     const std::uint8_t* src, std::size_t n) {
  TierCalls t;
  for (std::size_t k = 0; k < kTiers.size(); ++k) {
    const KernelFn fn = convert::kernels::detected_isa() >= kTiers[k]
                            ? kernel_of(kTiers[k])
                            : nullptr;
    t.has[k] = fn != nullptr;
    t.call[k] = {t.has[k] ? fn : t.call[0].fn, dst, src, n};
  }
  return t;
}

int run() {
  print_header("Kernels",
               "Batch swap/convert kernels: scalar vs SIMD tiers; host " +
                   describe(cpu_features()));
  std::vector<JsonFields> json;
  const std::vector<std::size_t> counts = {16, 64, 256, 1024, 4096, 65536};

  std::mt19937 rng(42);
  std::vector<std::uint8_t> src(65536 * 8 + 64);
  for (auto& b : src) b = static_cast<std::uint8_t>(rng());
  std::vector<std::uint8_t> dst(65536 * 8 + 64);
  // Each present tier's speedup over scalar (0 where absent), and its
  // JSON row.
  const auto report = [&](const std::string& kernel, unsigned width,
                          const TierCalls& t,
                          const std::array<std::vector<double>, 3>& ns) {
    std::array<double, 3> speedup{};
    for (std::size_t k = 0; k < kTiers.size(); ++k) {
      if (!t.has[k]) continue;
      const std::size_t n = t.call[k].count;
      speedup[k] = median_ratio(ns[0], ns[k]);
      json.push_back(
          {{"kernel", json_str(kernel)},
           {"width", std::to_string(width)},
           {"count", std::to_string(n)},
           {"isa", json_str(convert::kernels::to_string(kTiers[k]))},
           {"ns_per_elem", json_num(median(ns[k]) / static_cast<double>(n), 4)},
           {"speedup_vs_scalar", json_num(speedup[k], 3)}});
    }
    return speedup;
  };
  const auto cell = [](const TierCalls& t, const std::array<double, 3>& x,
                       std::size_t k) {
    return t.has[k] ? fmt_ratio(x[k]) : std::string("-");
  };

  // --- byte swap ------------------------------------------------------------
  for (unsigned w : {2u, 4u, 8u}) {
    Table t("Byte swap, width " + std::to_string(w) +
                " (us per 1k elements; speedup vs scalar kernel)",
            {"count", "per-elem", "scalar", "ssse3", "avx2", "best_speedup"});
    const KernelFn per_elem = w == 2   ? &per_elem_swap<std::uint16_t>
                              : w == 4 ? &per_elem_swap<std::uint32_t>
                                       : &per_elem_swap<std::uint64_t>;
    for (std::size_t n : counts) {
      TierCalls tc = tier_calls(
          [w](Isa isa) { return convert::kernels::swap_kernel(w, isa); },
          dst.data(), src.data(), n);
      Call per{per_elem, dst.data(), src.data(), n};
      const auto [t_per, t0, t1, t2] =
          alternating_rounds_ns(per, tc.call[0], tc.call[1], tc.call[2]);
      const auto speedup = report("swap", w, tc, {t0, t1, t2});
      const auto per_1k = [n](const std::vector<double>& ns) {
        return fmt_us(median(ns) * 1e3 / static_cast<double>(n));
      };
      t.add_row({std::to_string(n), per_1k(t_per), per_1k(t0),
                 cell(tc, speedup, 1), cell(tc, speedup, 2),
                 fmt_ratio(*std::max_element(speedup.begin(), speedup.end()))});
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
      {"i64be->i32", key(NumKind::kInt, 8, true, NumKind::kInt, 4, false)},
      {"i16->i32", key(NumKind::kInt, 2, false, NumKind::kInt, 4, false)},
      {"i32->f64", key(NumKind::kInt, 4, false, NumKind::kFloat, 8, false)},
      {"f64->i32", key(NumKind::kFloat, 8, false, NumKind::kInt, 4, false)},
  };
  Table t("Numeric conversions at count=4096 (us per 1k elements; speedup "
          "vs scalar)",
          {"conversion", "scalar", "ssse3", "avx2"});
  for (const Case& c : cases) {
    std::string scalar_cell, ssse3_cell, avx2_cell;
    for (std::size_t n : counts) {
      TierCalls tc = tier_calls(
          [&c](Isa isa) { return convert::kernels::cvt_kernel(c.key, isa); },
          dst.data(), src.data(), n);
      if (!tc.has[0]) break;
      const auto [t0, t1, t2] =
          alternating_rounds_ns(tc.call[0], tc.call[1], tc.call[2]);
      const auto speedup = report(c.name, c.key.width_src, tc, {t0, t1, t2});
      if (n == 4096) {
        scalar_cell = fmt_us(median(t0) * 1e3 / static_cast<double>(n));
        ssse3_cell = cell(tc, speedup, 1);
        avx2_cell = cell(tc, speedup, 2);
      }
    }
    if (!scalar_cell.empty()) {
      t.add_row({c.name, scalar_cell, ssse3_cell, avx2_cell});
    }
  }
  t.print();

  // --- destination alignment ------------------------------------------------
  // One ~99 KB source (Figure 4's 100 KB record) per call, src 64-byte
  // aligned, dst at each 8-byte offset from a 32-byte boundary, at each
  // SIMD tier, with a same-size memcpy (dst at +8) as the floor. Timed in
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
    at.add_row({name, fmt_us(median(t0)), fmt_us(median(t8)),
                fmt_us(median(t16)), fmt_us(median(t24)),
                fmt_us(median(tc))});
  };
  for (Isa isa : {Isa::kSsse3, Isa::kAvx2}) {
    if (convert::kernels::detected_isa() < isa) continue;
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
  const bool written = write_bench_json(
      "BENCH_kernels.json", "kernels_bench",
      {{"host_features", json_str(describe(cpu_features()))},
       {"detected_isa",
        json_str(convert::kernels::to_string(
            convert::kernels::detected_isa()))},
       {"obs_enabled", PBIO_OBS_ENABLED ? "true" : "false"},
       {"metrics", metrics}},
      json);
  return written ? 0 : 1;
}

}  // namespace
}  // namespace pbio::bench

int main() { return pbio::bench::run(); }
