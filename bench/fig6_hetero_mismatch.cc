// Figure 6 reproduction: receiver-side decoding cost with and without an
// unexpected field, heterogeneous case (x86 wire -> sparc native, DCG).
//
// Paper shape to confirm: the curves coincide — when a conversion is
// happening anyway, ignoring an extra field costs nothing ("the extra
// field has no effect upon the receive-side performance").
//
// The wire format's extra field is inserted *before* all expected fields —
// the paper's worst case, shifting every expected field's offset.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support/harness.h"
#include "bench_support/workload.h"
#include "vcode/jit_convert.h"
#include "value/materialize.h"

namespace pbio::bench {
namespace {

// The two plans are timed in alternating rounds (which plan goes first
// flips every round), each round a batch of back-to-back calls long enough
// to dwarf the clock's resolution; medians over the rounds shed scheduler
// noise and the alternation spreads any drift over both plans.
constexpr int kRounds = 21;
constexpr double kBatchNs = 200'000;

/// ns per call of `fn`, over `reps` back-to-back calls.
template <typename Fn>
double per_call_ns(Fn& fn, std::size_t reps) {
  Stopwatch sw;
  for (std::size_t i = 0; i < reps; ++i) fn();
  return static_cast<double>(sw.elapsed_ns()) / static_cast<double>(reps);
}

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

std::string fmt_us4(double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", us);
  return buf;
}

std::string fmt_pct(double pct) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", pct);
  return buf;
}

int run() {
  print_header("Figure 6",
               "Decode cost with/without unexpected field, heterogeneous "
               "(DCG); median us per record over alternating rounds");
  Table table("Heterogeneous receive times (us)",
              {"size", "matched", "mismatched", "overhead%"});

  for (Size s : all_sizes()) {
    Workload w = make_workload(s, arch::abi_x86(), arch::abi_sparc_v8());

    // Extended sender: one unexpected double at the *front* of the record.
    arch::StructSpec ext_spec = mech_spec(s);
    ext_spec.fields.insert(ext_spec.fields.begin(),
                           {.name = "surprise", .type = arch::CType::kDouble});
    const auto ext_fmt = arch::layout_format(ext_spec, arch::abi_x86());
    value::Record ext_rec = w.record;
    ext_rec.set("surprise", value::Value(1.0));
    const auto ext_image = value::materialize(ext_fmt, ext_rec);

    const vcode::CompiledConvert matched(
        convert::compile_plan(w.src_fmt, w.dst_fmt));
    const vcode::CompiledConvert mismatched(
        convert::compile_plan(ext_fmt, w.dst_fmt));

    std::vector<std::uint8_t> out(w.dst_fmt.fixed_size);
    convert::ExecInput in_m;
    in_m.src = w.src_image.data();
    in_m.src_size = w.src_image.size();
    in_m.dst = out.data();
    in_m.dst_size = out.size();
    convert::ExecInput in_x = in_m;
    in_x.src = ext_image.data();
    in_x.src_size = ext_image.size();
    auto run_m = [&] { (void)matched.run(in_m); };
    auto run_x = [&] { (void)mismatched.run(in_x); };

    // Warm both plans, then size a batch from the slower one's cost.
    const double est =
        std::max({per_call_ns(run_m, 64), per_call_ns(run_x, 64), 1.0});
    const auto reps = static_cast<std::size_t>(std::max(1.0, kBatchNs / est));
    std::vector<double> t_m;
    std::vector<double> t_x;
    std::vector<double> ratio;
    for (int r = 0; r < kRounds; ++r) {
      double m = 0;
      double x = 0;
      if (r % 2 == 0) {
        m = per_call_ns(run_m, reps);
        x = per_call_ns(run_x, reps);
      } else {
        x = per_call_ns(run_x, reps);
        m = per_call_ns(run_m, reps);
      }
      t_m.push_back(m);
      t_x.push_back(x);
      ratio.push_back(x / m);
    }

    table.add_row({label(s), fmt_us4(median(t_m) / 1e3),
                   fmt_us4(median(t_x) / 1e3),
                   fmt_pct((median(ratio) - 1.0) * 100.0)});
  }
  table.print();
  return 0;
}

}  // namespace
}  // namespace pbio::bench

int main() { return pbio::bench::run(); }
