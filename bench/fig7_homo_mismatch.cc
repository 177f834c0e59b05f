// Figure 7 reproduction: receiver-side decoding cost with and without an
// unexpected field, homogeneous case (x86-64 <-> x86-64).
//
// Paper shape to confirm: matching formats impose no conversion at all
// (zero-copy); a mismatched (extended-at-front) wire format forces a
// relocating conversion whose overhead is "roughly comparable to the cost
// of a memcpy operation for the same amount of data".
//
// Extra rows beyond the paper: the extension placed at the *end* of the
// record (the paper's §4.4 recommendation) — which preserves the zero-copy
// path entirely — and a raw memcpy reference.
//
// The three receive paths and the memcpy are timed against each other in
// alternating rounds (bench_support/harness.h); each cell is the median µs
// per record.
#include <cstring>
#include <vector>

#include "bench_support/harness.h"
#include "bench_support/workload.h"
#include "vcode/jit_convert.h"
#include "value/materialize.h"

namespace pbio::bench {
namespace {

int run() {
  print_header("Figure 7",
               "Decode cost with/without unexpected field, homogeneous "
               "(DCG); median us per record over alternating rounds");
  Table table("Homogeneous receive times (us)",
              {"size", "matched", "mismatch_front", "mismatch_end", "memcpy",
               "front/memcpy"});

  const auto& abi = arch::abi_x86_64();
  for (Size s : all_sizes()) {
    Workload w = make_workload(s, abi, abi);

    auto extended = [&](bool front) {
      arch::StructSpec spec = mech_spec(s);
      const arch::SpecField extra{.name = "surprise",
                                  .type = arch::CType::kDouble};
      if (front) {
        spec.fields.insert(spec.fields.begin(), extra);
      } else {
        spec.fields.push_back(extra);
      }
      return arch::layout_format(spec, abi);
    };
    const auto front_fmt = extended(true);
    const auto end_fmt = extended(false);
    value::Record ext_rec = w.record;
    ext_rec.set("surprise", value::Value(1.0));
    const auto front_image = value::materialize(front_fmt, ext_rec);
    const auto end_image = value::materialize(end_fmt, ext_rec);

    const vcode::CompiledConvert matched(
        convert::compile_plan(w.src_fmt, w.dst_fmt));
    const vcode::CompiledConvert mis_front(
        convert::compile_plan(front_fmt, w.dst_fmt));
    const vcode::CompiledConvert mis_end(
        convert::compile_plan(end_fmt, w.dst_fmt));

    // The whole per-message receive-side processing: an identity plan (the
    // matched and extended-at-end cases) hands the caller a pointer into
    // the receive buffer — zero-copy; any other plan converts into `out`.
    std::vector<std::uint8_t> out(w.dst_fmt.fixed_size);
    volatile const std::uint8_t* sink = nullptr;
    auto receiver = [&](const vcode::CompiledConvert& c,
                        const std::vector<std::uint8_t>& buf) {
      convert::ExecInput in;
      in.src = buf.data();
      in.src_size = buf.size();
      in.dst = out.data();
      in.dst_size = out.size();
      return [&c, &buf, &sink, in] {
        if (c.plan().identity) {
          sink = buf.data();
        } else {
          (void)c.run(in);
        }
      };
    };
    auto recv_matched = receiver(matched, w.src_image);
    auto recv_front = receiver(mis_front, front_image);
    auto recv_end = receiver(mis_end, end_image);
    auto copy = [&] {
      std::memcpy(out.data(), w.src_image.data(), out.size());
    };
    const auto [t_matched, t_front, t_end, t_memcpy] =
        alternating_rounds_ns(recv_matched, recv_front, recv_end, copy);
    (void)sink;

    table.add_row({label(s), fmt_us(median(t_matched)),
                   fmt_us(median(t_front)),
                   fmt_us(median(t_end)),
                   fmt_us(median(t_memcpy)),
                   fmt_ratio(median_ratio(t_front, t_memcpy))});
  }
  table.print();
  std::cout << "\nmatched / mismatch_end rows are the zero-copy path "
               "(identity plan: use the receive buffer in place).\n";
  return 0;
}

}  // namespace
}  // namespace pbio::bench

int main() { return pbio::bench::run(); }
