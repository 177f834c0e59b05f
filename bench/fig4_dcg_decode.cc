// Figure 4 reproduction: receiver-side conversion — MPICH interpreted
// unpack vs PBIO interpreted vs PBIO with dynamic code generation, plus a
// memcpy reference (the paper's point: DCG "brings conversion down to near
// the level of a copy operation").
//
// The decoders of each row are timed against each other in alternating
// rounds (bench_support/harness.h); each cell is the median µs per record
// and each ratio the median of its per-round ratios.
#include <cstring>

#include "baselines/mpilite/pack.h"
#include "bench_support/harness.h"
#include "bench_support/workload.h"
#include "vcode/jit_convert.h"

namespace pbio::bench {
namespace {

int run() {
  print_header("Figure 4",
               "Receiver conversions: interpreted (MPICH, PBIO) vs PBIO DCG; "
               "x86 wire -> sparc native; median us per record over "
               "alternating rounds");
  Table table("Receive decode times (us)",
              {"size", "MPICH", "PBIO-interp", "PBIO-DCG", "memcpy",
               "interp/DCG", "DCG/memcpy"});

  for (Size s : all_sizes()) {
    Workload w = make_workload(s, arch::abi_x86(), arch::abi_sparc_v8());
    const auto dt_dst = datatype_for(w.dst_fmt);
    ByteBuffer packed;
    (void)mpilite::pack(datatype_for(w.src_fmt), w.src_image.data(), 1,
                        packed);
    const convert::Plan plan = convert::compile_plan(w.src_fmt, w.dst_fmt);
    const vcode::CompiledConvert dcg(plan);

    std::vector<std::uint8_t> out(w.dst_fmt.fixed_size);
    convert::ExecInput in;
    in.src = w.src_image.data();
    in.src_size = w.src_image.size();
    in.dst = out.data();
    in.dst_size = out.size();
    auto mpich = [&] {
      (void)mpilite::unpack(dt_dst, packed.view(), out.data(), out.size(), 1);
    };
    auto interp = [&] { (void)convert::run_plan(plan, in); };
    auto gen = [&] { (void)dcg.run(in); };
    auto copy = [&] {
      std::memcpy(out.data(), w.src_image.data(),
                  std::min<std::size_t>(out.size(), w.src_image.size()));
    };
    const auto [t_mpich, t_interp, t_dcg, t_memcpy] =
        alternating_rounds_ns(mpich, interp, gen, copy);

    table.add_row({label(s), fmt_us(median(t_mpich)),
                   fmt_us(median(t_interp)),
                   fmt_us(median(t_dcg)),
                   fmt_us(median(t_memcpy)),
                   fmt_ratio(median_ratio(t_interp, t_dcg)),
                   fmt_ratio(median_ratio(t_dcg, t_memcpy))});
  }
  table.print();
  std::cout
      << "\nThe FEM workload is array-heavy, so the block interpreter "
         "amortizes its dispatch;\nMPICH's per-element interpretation is the "
         "paper's interpreted data point (~10x DCG).\n";

  // Scalar-heavy records: many distinct small fields, where per-op
  // dispatch dominates the interpreter and straight-line generated code
  // shows its full advantage (the shape of PBIO's original Figure 4 gap).
  Table scalar_table(
      "Scalar-heavy records (N mixed scalar fields; decode times in us)",
      {"fields", "MPICH_us", "PBIO-interp_us", "PBIO-DCG_us", "interp/DCG"});
  for (std::uint32_t nfields : {16u, 64u, 256u, 1024u}) {
    arch::StructSpec spec;
    spec.name = "scalars" + std::to_string(nfields);
    constexpr arch::CType kTypes[] = {
        arch::CType::kInt, arch::CType::kDouble, arch::CType::kFloat,
        arch::CType::kShort, arch::CType::kLongLong};
    for (std::uint32_t i = 0; i < nfields; ++i) {
      spec.fields.push_back(
          {.name = std::string("s").append(std::to_string(i)),
           .type = kTypes[i % 5]});
    }
    const auto src_fmt = arch::layout_format(spec, arch::abi_x86());
    const auto dst_fmt = arch::layout_format(spec, arch::abi_sparc_v8());
    std::vector<std::uint8_t> image(src_fmt.fixed_size, 0x5A);
    const auto dt_dst = datatype_for(dst_fmt);
    ByteBuffer packed;
    (void)mpilite::pack(datatype_for(src_fmt), image.data(), 1, packed);
    const convert::Plan plan = convert::compile_plan(src_fmt, dst_fmt);
    const vcode::CompiledConvert dcg(plan);

    std::vector<std::uint8_t> out(dst_fmt.fixed_size);
    convert::ExecInput in;
    in.src = image.data();
    in.src_size = image.size();
    in.dst = out.data();
    in.dst_size = out.size();
    auto mpich = [&] {
      (void)mpilite::unpack(dt_dst, packed.view(), out.data(), out.size(), 1);
    };
    auto interp = [&] { (void)convert::run_plan(plan, in); };
    auto gen = [&] { (void)dcg.run(in); };
    const auto [t_mpich, t_interp, t_dcg] =
        alternating_rounds_ns(mpich, interp, gen);
    scalar_table.add_row({std::to_string(nfields),
                          fmt_us(median(t_mpich)),
                          fmt_us(median(t_interp)),
                          fmt_us(median(t_dcg)),
                          fmt_ratio(median_ratio(t_interp, t_dcg))});
  }
  scalar_table.print();
  return 0;
}

}  // namespace
}  // namespace pbio::bench

int main() { return pbio::bench::run(); }
