// Figure 4 reproduction: receiver-side conversion — MPICH interpreted
// unpack vs PBIO interpreted vs PBIO with dynamic code generation, plus a
// memcpy reference (the paper's point: DCG "brings conversion down to near
// the level of a copy operation").
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
               "x86 wire -> sparc native; times in ms");
  Table table("Receive decode times (ms)",
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
    const double t_mpich = measure_ms([&] {
      (void)mpilite::unpack(dt_dst, packed.view(), out.data(), out.size(), 1);
    });
    convert::ExecInput in;
    in.src = w.src_image.data();
    in.src_size = w.src_image.size();
    in.dst = out.data();
    in.dst_size = out.size();
    const double t_interp =
        measure_ms([&] { (void)convert::run_plan(plan, in); });
    const double t_dcg = measure_ms([&] { (void)dcg.run(in); });
    const double t_memcpy = measure_ms([&] {
      std::memcpy(out.data(), w.src_image.data(),
                  std::min<std::size_t>(out.size(), w.src_image.size()));
    });

    table.add_row({label(s), fmt_ms(t_mpich), fmt_ms(t_interp),
                   fmt_ms(t_dcg), fmt_ms(t_memcpy),
                   fmt_ratio(t_interp / t_dcg),
                   fmt_ratio(t_dcg / t_memcpy)});
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
    const double t_mpich = measure_ms([&] {
                             (void)mpilite::unpack(dt_dst, packed.view(),
                                                   out.data(), out.size(), 1);
                           }) *
                           1000.0;
    const double t_interp =
        measure_ms([&] { (void)convert::run_plan(plan, in); }) * 1000.0;
    const double t_dcg = measure_ms([&] { (void)dcg.run(in); }) * 1000.0;
    scalar_table.add_row({std::to_string(nfields), fmt_ms(t_mpich),
                          fmt_ms(t_interp), fmt_ms(t_dcg),
                          fmt_ratio(t_interp / t_dcg)});
  }
  scalar_table.print();
  return 0;
}

}  // namespace
}  // namespace pbio::bench

int main() { return pbio::bench::run(); }
