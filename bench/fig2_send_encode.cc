// Figure 2 reproduction: sender-side encode times — XML vs MPICH vs CORBA
// vs PBIO, on the (simulated) Sparc sender.
//
// Paper shape to confirm: XML is 1-2 orders above the binary systems;
// MPICH/CORBA grow with message size; PBIO stays flat (NDR sends the
// record's own bytes — the only work is a 16-byte header and a gather).
//
// The four encoders of each row are timed against each other in
// alternating rounds (bench_support/harness.h); each cell is the median µs
// per record and each ratio the median of its per-round ratios.
#include <string>

#include "baselines/cdr/cdr.h"
#include "baselines/cdr/giop.h"
#include "baselines/mpilite/pack.h"
#include "baselines/xmlwire/encode.h"
#include "bench_support/harness.h"
#include "bench_support/workload.h"
#include "pbio/pbio.h"

namespace pbio::bench {
namespace {

int run() {
  print_header("Figure 2",
               "Sender-side encode times on the sparc sender; median us per "
               "record over alternating rounds");
  Table table("Send encode times (us)",
              {"size", "XML", "MPICH", "CORBA", "PBIO", "MPICH/PBIO",
               "XML/PBIO"});

  Context ctx;
  NullChannel null_channel;
  Writer writer(ctx, null_channel);
  // 2000-era XML encoders tag every value (paper's 6-8x expansion).
  const xmlwire::XmlStyle era_style{.element_per_value = true};

  for (Size s : all_sizes()) {
    Workload w = make_workload(s, arch::abi_sparc_v8(), arch::abi_x86());
    const auto dt = datatype_for(w.src_fmt);
    const auto fmt_id = ctx.register_format(w.src_fmt);
    // Announce outside the measurement: a once-per-channel cost.
    (void)writer.announce(fmt_id);

    std::string xml;
    auto xml_enc = [&] {
      xml.clear();
      (void)xmlwire::encode_xml(w.src_fmt, w.src_image, xml, era_style);
    };
    ByteBuffer packed;
    auto mpich = [&] {
      packed.clear();
      (void)mpilite::pack(dt, w.src_image.data(), 1, packed);
    };
    ByteBuffer cdr_buf;
    auto corba = [&] {
      cdr_buf.clear();
      cdr::GiopHeader h;
      h.byte_order = w.src_fmt.byte_order;
      h.body_length = static_cast<std::uint32_t>(cdr::encoded_size(w.src_fmt));
      cdr::write_giop_header(h, cdr_buf);
      cdr::Encoder enc(cdr_buf, w.src_fmt.byte_order);
      (void)cdr::encode_record(w.src_fmt, w.src_image, enc);
    };
    auto pbio = [&] { (void)writer.write_image(fmt_id, w.src_image); };
    const auto [t_xml, t_mpich, t_corba, t_pbio] =
        alternating_rounds_ns(xml_enc, mpich, corba, pbio);

    table.add_row({label(s), fmt_us(median(t_xml)), fmt_us(median(t_mpich)),
                   fmt_us(median(t_corba)), fmt_us(median(t_pbio)),
                   fmt_ratio(median_ratio(t_mpich, t_pbio)),
                   fmt_ratio(median_ratio(t_xml, t_pbio))});
  }
  table.print();
  std::cout << "\nPBIO send cost is flat: NDR transmits the record image "
               "as-is (gathered header+payload).\n";
  return 0;
}

}  // namespace
}  // namespace pbio::bench

int main() { return pbio::bench::run(); }
