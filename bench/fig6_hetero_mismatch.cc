// Figure 6 reproduction: receiver-side decoding cost with and without an
// unexpected field, heterogeneous case (x86 wire -> sparc native, DCG).
//
// Paper shape to confirm: the curves coincide — when a conversion is
// happening anyway, ignoring an extra field costs nothing ("the extra
// field has no effect upon the receive-side performance").
//
// The wire format's extra field is inserted *before* all expected fields —
// the paper's worst case, shifting every expected field's offset.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_support/harness.h"
#include "bench_support/workload.h"
#include "vcode/jit_convert.h"
#include "value/materialize.h"

namespace pbio::bench {
namespace {

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

    const auto [t_m, t_x] = alternating_rounds_ns(run_m, run_x);
    table.add_row({label(s), fmt_us(median(t_m)),
                   fmt_us(median(t_x)),
                   fmt_pct((median_ratio(t_x, t_m) - 1.0) * 100.0)});
  }
  table.print();
  return 0;
}

}  // namespace
}  // namespace pbio::bench

int main() { return pbio::bench::run(); }
