// Table B (paper §3 text): the economics of dynamic code generation —
// "the one-time costs of generating binary code coupled with the
// performance gains ... far outweigh the costs of continually interpreting
// data formats". Reports plan-compile time, codegen time, generated code
// size, per-record win, and the break-even record count. Each row's
// costs are timed against each other in alternating rounds
// (bench_support/harness.h): cells are medians in µs, and the break-even
// is the median over rounds of one-time cost / per-record win.
//
// The codegen column is the code step a tier-up pays per pair (emit +
// tval + W^X seal), and the break-even is the one behind
// pbio::kTierUpUses. Also the DESIGN.md ablation: plan optimization
// (block-copy coalescing) on vs off, for both engines.
#include <cmath>
#include <cstdio>

#include "bench_support/harness.h"
#include "bench_support/workload.h"
#include "pbio/resolver.h"
#include "vcode/jit_convert.h"

namespace pbio::bench {
namespace {

int run() {
  print_header("Table B",
               "One-time DCG costs vs per-record savings; x86 wire -> sparc "
               "native");
  Table table("DCG economics (us)",
              {"size", "plan", "codegen", "code_B", "interp", "dcg", "win",
               "breakeven_recs"});

  for (Size s : all_sizes()) {
    Workload w = make_workload(s, arch::abi_x86(), arch::abi_sparc_v8());
    const convert::Plan plan = convert::compile_plan(w.src_fmt, w.dst_fmt);
    const vcode::CompiledConvert dcg(plan);

    std::vector<std::uint8_t> out(w.dst_fmt.fixed_size);
    convert::ExecInput in;
    in.src = w.src_image.data();
    in.src_size = w.src_image.size();
    in.dst = out.data();
    in.dst_size = out.size();
    auto plan_fn = [&] { (void)convert::compile_plan(w.src_fmt, w.dst_fmt); };
    auto codegen = [&] { vcode::CompiledConvert cc(plan); };
    auto interp = [&] { (void)convert::run_plan(plan, in); };
    auto gen = [&] { (void)dcg.run(in); };
    const auto [t_plan, t_codegen, t_interp, t_dcg] =
        alternating_rounds_ns(plan_fn, codegen, interp, gen);
    // Per round: the one-time cost and the per-record win it buys back.
    std::vector<double> one_time(t_plan.size()), win(t_plan.size());
    for (std::size_t r = 0; r < win.size(); ++r) {
      one_time[r] = t_plan[r] + t_codegen[r];
      win[r] = t_interp[r] - t_dcg[r];
    }
    const double median_win = median(win);
    const std::string breakeven =
        median_win > 0
            ? std::to_string(std::llround(median_ratio(one_time, win)))
            : "n/a";

    table.add_row({label(s), fmt_us(median(t_plan)),
                   fmt_us(median(t_codegen)), fmt_bytes(dcg.code_size()),
                   fmt_us(median(t_interp)), fmt_us(median(t_dcg)),
                   fmt_us(median_win), breakeven});
  }
  table.print();
  std::printf(
      "Streams generate a pair's code at its use number %u "
      "(pbio::kTierUpUses).\n\n",
      kTierUpUses);

  // Ablation: disable block-copy coalescing / identity detection.
  Table ablation("Ablation: plan optimizer off (same conversion; us)",
                 {"size", "ops_opt", "ops_raw", "interp_opt", "interp_raw",
                  "dcg_opt", "dcg_raw"});
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
    auto interp_opt = [&] { (void)convert::run_plan(opt, in); };
    auto interp_raw = [&] { (void)convert::run_plan(raw, in); };
    auto gen_opt = [&] { (void)dcg_opt.run(in); };
    auto gen_raw = [&] { (void)dcg_raw.run(in); };
    const auto [t_iopt, t_iraw, t_dopt, t_draw] =
        alternating_rounds_ns(interp_opt, interp_raw, gen_opt, gen_raw);
    ablation.add_row({label(s), std::to_string(opt.ops.size()),
                      std::to_string(raw.ops.size()), fmt_us(median(t_iopt)),
                      fmt_us(median(t_iraw)), fmt_us(median(t_dopt)),
                      fmt_us(median(t_draw))});
  }
  ablation.print();
  return 0;
}

}  // namespace
}  // namespace pbio::bench

int main() { return pbio::bench::run(); }
