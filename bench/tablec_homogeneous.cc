// Table C (paper §4.3 text): the homogeneous exchange — PBIO's
// receive-buffer reuse / zero-copy path vs MPICH's canonical-format
// round trip ("On an exchange between homogeneous architectures, PBIO and
// MPI would have substantially lower costs" — but MPI still packs into and
// unpacks out of the canonical format; PBIO does nothing at all).
//
// This is also the DESIGN.md ablation for receive-buffer reuse: the
// "PBIO_copy" column decodes into a separate buffer instead of using the
// message in place.
//
// The six costs of each row are timed against each other in alternating
// rounds (bench_support/harness.h); each cell is the median µs per record
// and the ratio the median of its per-round ratios.
#include <cstring>

#include "baselines/mpilite/pack.h"
#include "bench_support/harness.h"
#include "bench_support/workload.h"
#include "pbio/pbio.h"
#include "vcode/jit_convert.h"

namespace pbio::bench {
namespace {

int run() {
  print_header("Table C",
               "Homogeneous exchange (x86-64 <-> x86-64): per-side CPU "
               "costs, median us over alternating rounds");
  Table table("Homogeneous costs (us)",
              {"size", "MPICH_enc", "MPICH_dec", "PBIO_enc", "PBIO_zero_copy",
               "PBIO_inplace", "PBIO_copy", "MPICH_total/PBIO_total"});

  Context ctx;
  NullChannel null_channel;
  Writer writer(ctx, null_channel);
  const auto& abi = arch::abi_x86_64();

  for (Size s : all_sizes()) {
    Workload w = make_workload(s, abi, abi);
    const auto dt = mpilite::datatype_for(w.src_fmt);
    const auto fmt_id = ctx.register_format(w.src_fmt);
    (void)writer.announce(fmt_id);

    ByteBuffer packed;
    auto mpich_enc = [&] {
      packed.clear();
      (void)mpilite::pack(dt, w.src_image.data(), 1, packed);
    };
    mpich_enc();  // the decoder reads the encoder's output
    std::vector<std::uint8_t> out(w.dst_fmt.fixed_size);
    auto mpich_dec = [&] {
      (void)mpilite::unpack(dt, packed.view(), out.data(), out.size(), 1);
    };
    auto pbio_enc = [&] { (void)writer.write_image(fmt_id, w.src_image); };

    const vcode::CompiledConvert conv(
        convert::compile_plan(w.src_fmt, w.dst_fmt));
    volatile const std::uint8_t* sink = nullptr;
    auto pbio_zero = [&] {
      if (conv.plan().identity) sink = w.src_image.data();
    };
    convert::ExecInput in;
    in.src = w.src_image.data();
    in.src_size = w.src_image.size();
    in.dst = out.data();
    in.dst_size = out.size();
    auto pbio_copy = [&] { (void)conv.run(in); };

    // Receive-buffer reuse: convert inside the (copied) receive buffer.
    std::vector<std::uint8_t> inplace_buf = w.src_image;
    convert::ExecInput ip;
    ip.src = inplace_buf.data();
    ip.src_size = inplace_buf.size();
    ip.dst = inplace_buf.data();
    ip.dst_size = inplace_buf.size();
    auto pbio_inplace = [&] { (void)conv.run(ip); };

    const auto [t_menc, t_mdec, t_penc, t_zero, t_inplace, t_copy] =
        alternating_rounds_ns(mpich_enc, mpich_dec, pbio_enc, pbio_zero,
                              pbio_inplace, pbio_copy);
    (void)sink;
    // Per round: each system's send plus receive.
    std::vector<double> mpich_total(t_menc.size()), pbio_total(t_menc.size());
    for (std::size_t r = 0; r < mpich_total.size(); ++r) {
      mpich_total[r] = t_menc[r] + t_mdec[r];
      pbio_total[r] = t_penc[r] + t_zero[r];
    }

    table.add_row({label(s), fmt_us(median(t_menc)), fmt_us(median(t_mdec)),
                   fmt_us(median(t_penc)), fmt_us(median(t_zero)),
                   fmt_us(median(t_inplace)), fmt_us(median(t_copy)),
                   fmt_ratio(median_ratio(mpich_total, pbio_total))});
  }
  table.print();
  return 0;
}

}  // namespace
}  // namespace pbio::bench

int main() { return pbio::bench::run(); }
