// Table A (paper §2 text): bytes on the wire per system, including the
// XML expansion factor ("an expansion factor of 6-8 is not unusual") and
// the effect of wire size on the modelled network time.
#include <string>

#include "baselines/cdr/cdr.h"
#include "baselines/cdr/giop.h"
#include "baselines/mpilite/pack.h"
#include "baselines/xmlwire/encode.h"
#include "bench_support/harness.h"
#include "bench_support/workload.h"
#include "fmt/meta.h"
#include "pbio/pbio.h"
#include "baselines/netmodel.h"

namespace pbio::bench {
namespace {

int run() {
  print_header("Table A",
               "Wire sizes per system (bytes) and XML expansion factor");
  const auto net = netmodel::paper_network();
  Table table("Wire sizes",
              {"size", "native", "PBIO", "MPICH", "CORBA", "XML",
               "XML_expansion", "XML_compact", "XML_net_us", "PBIO_net_us"});

  for (Size s : all_sizes()) {
    Workload w = make_workload(s, arch::abi_sparc_v8(), arch::abi_x86());
    ByteBuffer packed;
    (void)mpilite::pack(mpilite::datatype_for(w.src_fmt),
                        w.src_image.data(), 1, packed);
    std::string xml;
    (void)xmlwire::encode_xml(w.src_fmt, w.src_image, xml,
                              xmlwire::XmlStyle{.element_per_value = true});
    std::string xml_compact;
    (void)xmlwire::encode_xml(w.src_fmt, w.src_image, xml_compact);
    const std::uint64_t native = w.src_image.size();
    const std::uint64_t pbio_wire = native + kDataHeaderSize;
    const std::uint64_t cdr_wire =
        cdr::encoded_size(w.src_fmt) + cdr::GiopHeader::kSize;
    const std::uint64_t mpich_wire = packed.size() + 8;

    table.add_row(
        {label(s), fmt_bytes(native), fmt_bytes(pbio_wire),
         fmt_bytes(mpich_wire), fmt_bytes(cdr_wire), fmt_bytes(xml.size()),
         fmt_ratio(static_cast<double>(xml.size()) /
                   static_cast<double>(native)),
         fmt_bytes(xml_compact.size()),
         fmt_us(net.transfer_ms(xml.size()) * 1e6),
         fmt_us(net.transfer_ms(pbio_wire) * 1e6)});
  }
  table.print();

  // One-time meta-information cost: what PBIO ships once per
  // (channel, format) pair that fixed-format systems never send — both the
  // bytes and the first-write vs steady-state send time, timed against
  // each other in alternating rounds (median us per write).
  Table meta_table("PBIO one-time format announcement",
                   {"size", "meta_bytes", "fields", "first_write_us",
                    "steady_write_us"});
  for (Size s : all_sizes()) {
    Workload w = make_workload(s, arch::abi_sparc_v8(), arch::abi_x86());
    Context ctx;
    const auto id = ctx.register_format(w.src_fmt);
    // First write: a fresh Writer encodes the meta-information and sends
    // the announcement frame before the record.
    auto first = [&] {
      NullChannel ch;
      Writer fresh(ctx, ch);
      (void)fresh.write_image(id, w.src_image);
    };
    NullChannel ch;
    Writer writer(ctx, ch);
    auto steady = [&] { (void)writer.write_image(id, w.src_image); };
    const auto [t_first, t_steady] = alternating_rounds_ns(first, steady);
    meta_table.add_row(
        {label(s), fmt_bytes(fmt::encode_meta(w.src_fmt).size() + 1),
         std::to_string(w.src_fmt.fields.size()), fmt_us(median(t_first)),
         fmt_us(median(t_steady))});
  }
  meta_table.print();
  return 0;
}

}  // namespace
}  // namespace pbio::bench

int main() { return pbio::bench::run(); }
