// Figure 3 reproduction: receiver-side decode times for interpreted
// converters — XML vs MPICH vs CORBA vs PBIO (interpreted mode) — on the
// (simulated) Sparc side of a heterogeneous exchange with an x86 sender.
//
// Paper shape to confirm: XML is 1-2 decimal orders above the binary
// systems; PBIO's interpreted converter is at or below MPICH (it converts
// whole field runs per dispatch and reuses the receive buffer; MPICH
// dispatches per element into a separate buffer).
//
// The four decoders of each row are timed against each other in
// alternating rounds (bench_support/harness.h); each cell is the median µs
// per record and each ratio the median of its per-round ratios.
#include <string>

#include "baselines/cdr/cdr.h"
#include "baselines/mpilite/pack.h"
#include "baselines/xmlwire/decode.h"
#include "baselines/xmlwire/encode.h"
#include "bench_support/harness.h"
#include "bench_support/workload.h"
#include "convert/interp.h"

namespace pbio::bench {
namespace {

int run() {
  print_header("Figure 3",
               "Receiver-side decode times (interpreted), x86 wire -> sparc "
               "native; median us per record over alternating rounds");
  Table table("Receive decode times (us)",
              {"size", "XML", "MPICH", "CORBA", "PBIO", "XML/PBIO",
               "MPICH/PBIO"});

  for (Size s : all_sizes()) {
    // x86 PC sender, sparc receiver — the paper's measured direction.
    Workload w = make_workload(s, arch::abi_x86(), arch::abi_sparc_v8());
    const auto dt_dst = datatype_for(w.dst_fmt);

    // Pre-build each system's wire bytes (sender side is Figure 2).
    std::string xml;
    (void)xmlwire::encode_xml(w.src_fmt, w.src_image, xml,
                              xmlwire::XmlStyle{.element_per_value = true});
    ByteBuffer packed;
    (void)mpilite::pack(datatype_for(w.src_fmt), w.src_image.data(), 1,
                        packed);
    ByteBuffer cdr_stream;
    cdr::Encoder enc(cdr_stream, w.src_fmt.byte_order);
    (void)cdr::encode_record(w.src_fmt, w.src_image, enc);
    const convert::Plan plan = convert::compile_plan(w.src_fmt, w.dst_fmt);

    std::vector<std::uint8_t> out(w.dst_fmt.fixed_size);
    convert::ExecInput in;
    in.src = w.src_image.data();
    in.src_size = w.src_image.size();
    in.dst = out.data();
    in.dst_size = out.size();
    auto xml_dec = [&] { (void)xmlwire::decode_xml(w.dst_fmt, xml, out); };
    auto mpich = [&] {
      (void)mpilite::unpack(dt_dst, packed.view(), out.data(), out.size(), 1);
    };
    auto corba = [&] {
      cdr::Decoder dec(cdr_stream.view(), w.src_fmt.byte_order);
      (void)cdr::decode_record(w.dst_fmt, dec, out);
    };
    auto pbio = [&] { (void)convert::run_plan(plan, in); };
    const auto [t_xml, t_mpich, t_corba, t_pbio] =
        alternating_rounds_ns(xml_dec, mpich, corba, pbio);

    table.add_row({label(s), fmt_us(median(t_xml)), fmt_us(median(t_mpich)),
                   fmt_us(median(t_corba)), fmt_us(median(t_pbio)),
                   fmt_ratio(median_ratio(t_xml, t_pbio)),
                   fmt_ratio(median_ratio(t_mpich, t_pbio))});
  }
  table.print();
  return 0;
}

}  // namespace
}  // namespace pbio::bench

int main() { return pbio::bench::run(); }
