// Table B (paper §3 text): the economics of dynamic code generation —
// "the one-time costs of generating binary code coupled with the
// performance gains ... far outweigh the costs of continually interpreting
// data formats". Reports plan-compile time, codegen time, generated code
// size, per-record win, and the break-even record count.
//
// Also the DESIGN.md ablation: plan optimization (block-copy coalescing)
// on vs off, for both engines; and the code step a tier-up pays per pair,
// with the break-even behind pbio::kTierUpUses.
#include <cstdio>

#include "bench_support/harness.h"
#include "bench_support/workload.h"
#include "pbio/resolver.h"
#include "vcode/jit_convert.h"

namespace pbio::bench {
namespace {

/// The code step per pair: a fresh compile (emit + tval + W^X seal), in
/// µs — what a tier-up pays.
void code_step() {
  Table table("Code step per pair", {"size", "compile_us"});
  for (Size s : all_sizes()) {
    Workload w = make_workload(s, arch::abi_x86(), arch::abi_sparc_v8());
    // Unverified, so the step includes the plan verification.
    const convert::Plan plan = convert::compile_plan(w.src_fmt, w.dst_fmt);
    const double compile_us =
        measure_ms([&] { vcode::CompiledConvert cc(plan); }) * 1000.0;
    table.add_row({label(s), fmt_ms(compile_us)});
  }
  table.print();
}

int run() {
  print_header("Table B",
               "One-time DCG costs vs per-record savings; x86 wire -> sparc "
               "native");
  Table table("DCG economics",
              {"size", "plan_us", "codegen_us", "code_B", "interp_ms",
               "dcg_ms", "win_ms", "breakeven_recs"});

  for (Size s : all_sizes()) {
    Workload w = make_workload(s, arch::abi_x86(), arch::abi_sparc_v8());

    const double plan_us = measure_ms([&] {
                             (void)convert::compile_plan(w.src_fmt, w.dst_fmt);
                           }) *
                           1000.0;
    const convert::Plan plan = convert::compile_plan(w.src_fmt, w.dst_fmt);
    const double codegen_us =
        measure_ms([&] { vcode::CompiledConvert cc(plan); }) * 1000.0;
    const vcode::CompiledConvert dcg(plan);

    std::vector<std::uint8_t> out(w.dst_fmt.fixed_size);
    convert::ExecInput in;
    in.src = w.src_image.data();
    in.src_size = w.src_image.size();
    in.dst = out.data();
    in.dst_size = out.size();
    const double interp_ms =
        measure_ms([&] { (void)convert::run_plan(plan, in); });
    const double dcg_ms = measure_ms([&] { (void)dcg.run(in); });
    const double win = interp_ms - dcg_ms;
    const double breakeven =
        win > 0 ? (plan_us + codegen_us) / 1000.0 / win : -1;

    table.add_row({label(s), fmt_ms(plan_us), fmt_ms(codegen_us),
                   fmt_bytes(dcg.code_size()), fmt_ms(interp_ms),
                   fmt_ms(dcg_ms), fmt_ms(win),
                   breakeven >= 0 ? fmt_ms(breakeven) : "n/a"});
  }
  table.print();
  std::printf(
      "Streams generate a pair's code at its use number %u "
      "(pbio::kTierUpUses).\n\n",
      kTierUpUses);

  code_step();

  // Ablation: disable block-copy coalescing / identity detection.
  Table ablation("Ablation: plan optimizer off (same conversion)",
                 {"size", "ops_opt", "ops_raw", "interp_opt_ms",
                  "interp_raw_ms", "dcg_opt_ms", "dcg_raw_ms"});
  for (Size s : all_sizes()) {
    Workload w = make_workload(s, arch::abi_x86(), arch::abi_sparc_v8());
    convert::CompileOptions raw_opts;
    raw_opts.optimize = false;
    const convert::Plan opt = convert::compile_plan(w.src_fmt, w.dst_fmt);
    const convert::Plan raw =
        convert::compile_plan(w.src_fmt, w.dst_fmt, raw_opts);
    const vcode::CompiledConvert dcg_opt(opt);
    const vcode::CompiledConvert dcg_raw(raw);

    std::vector<std::uint8_t> out(w.dst_fmt.fixed_size);
    convert::ExecInput in;
    in.src = w.src_image.data();
    in.src_size = w.src_image.size();
    in.dst = out.data();
    in.dst_size = out.size();
    ablation.add_row(
        {label(s), std::to_string(opt.ops.size()),
         std::to_string(raw.ops.size()),
         fmt_ms(measure_ms([&] { (void)convert::run_plan(opt, in); })),
         fmt_ms(measure_ms([&] { (void)convert::run_plan(raw, in); })),
         fmt_ms(measure_ms([&] { (void)dcg_opt.run(in); })),
         fmt_ms(measure_ms([&] { (void)dcg_raw.run(in); }))});
  }
  ablation.print();
  return 0;
}

}  // namespace
}  // namespace pbio::bench

int main() { return pbio::bench::run(); }
