// Heterogeneous exchange: a (simulated) big-endian Sparc workstation
// streams instrument records to the local x86-64 host, which decodes them
// with a dynamically generated conversion routine — the paper's core
// scenario, runnable on one machine thanks to the virtual ABI layer.
//
//   $ ./hetero_exchange
#include <cstdio>

#include "pbio/pbio.h"
#include "value/materialize.h"

struct Reading {
  int sensor_id;
  long timestamp;      // 8 bytes here, 4 bytes on the sparc sender!
  double values[6];
  char unit[8];
};

int main() {
  using namespace pbio;
  Context ctx;
  auto [send_ch, recv_ch] = transport::make_loopback_pair();

  // ---- The "Sparc" sender -------------------------------------------------
  // Its record layout: big-endian, 4-byte long, natural alignment. The
  // layout engine computes exactly what a v8 compiler would.
  arch::StructSpec spec;
  spec.name = "reading";
  spec.fields = {
      {.name = "sensor_id", .type = arch::CType::kInt},
      {.name = "timestamp", .type = arch::CType::kLong},
      {.name = "values", .type = arch::CType::kDouble, .array_elems = 6},
      {.name = "unit", .type = arch::CType::kChar, .array_elems = 8},
  };
  const auto sparc_fmt = arch::layout_format(spec, arch::abi_sparc_v8());
  const auto sparc_id = ctx.register_format(sparc_fmt);
  std::printf("sparc record: %u bytes, %s-endian, long=%u\n",
              sparc_fmt.fixed_size, to_string(sparc_fmt.byte_order),
              sparc_fmt.find_field("timestamp")->elem_size);

  Writer writer(ctx, *send_ch);
  for (int i = 0; i < 3; ++i) {
    value::Record r;
    r.set("sensor_id", value::Value(100 + i));
    r.set("timestamp", value::Value(1700000000 + i * 60));
    value::Value::List vals;
    for (int v = 0; v < 6; ++v) {
      vals.push_back(value::Value(20.0 + i + v * 0.25));
    }
    r.set("values", value::Value(std::move(vals)));
    r.set("unit", value::Value("celsius"));
    const auto image = value::materialize(sparc_fmt, r);
    if (!writer.write_image(sparc_id, image).is_ok()) return 1;
  }

  // ---- The x86-64 receiver ------------------------------------------------
  const NativeField fields[] = {
      PBIO_FIELD(Reading, sensor_id, arch::CType::kInt),
      PBIO_FIELD(Reading, timestamp, arch::CType::kLong),
      PBIO_ARRAY(Reading, values, arch::CType::kDouble, 6),
      PBIO_ARRAY(Reading, unit, arch::CType::kChar, 8),
  };
  const auto native_id = ctx.register_format(
      native_format("reading", fields, sizeof(Reading)));
  std::printf("native record: %zu bytes, little-endian, long=%zu\n\n",
              sizeof(Reading), sizeof(long));

  Reader reader(ctx, *recv_ch);
  reader.expect(native_id);
  for (int i = 0; i < 3; ++i) {
    auto msg = reader.next();
    if (!msg.is_ok()) return 1;
    Reading out{};
    // The conversion runs its generated machine code once the pair has
    // tiered up, and the table-driven interpreter before that.
    if (!msg.value().decode_into(&out, sizeof(out)).is_ok()) return 1;
    std::printf("sensor %d @%ld: %.2f %.2f ... %s  (byte-swapped, "
                "4->8 byte long, realigned)\n",
                out.sensor_id, out.timestamp, out.values[0], out.values[1],
                out.unit);
  }

  const auto stats = ctx.stats();
  std::printf("\nconversions compiled: %llu (%llu bytes of generated code)\n",
              static_cast<unsigned long long>(stats.conversions_compiled),
              static_cast<unsigned long long>(stats.jit_code_bytes));
  return 0;
}
