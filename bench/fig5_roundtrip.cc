// Figure 5 reproduction: full round-trip cost comparison, PBIO (with DCG)
// vs MPICH — the paper's headline result
// ("PBIO can accomplish a round-trip in 45% of the time required by
// MPICH" at large sizes).
//
// CPU components are measured; network components use the calibrated
// 100 Mbps model applied to each system's actual wire size. The eight
// marshalling steps of each size (four per system) are timed against each
// other in alternating rounds (bench/roundtrip.h); each cell is a median in
// µs and each ratio the median of its per-round ratios.
#include "bench_support/harness.h"
#include "bench_support/workload.h"
#include "pbio/pbio.h"
#include "roundtrip.h"
#include "baselines/netmodel.h"
#include "vcode/jit_convert.h"

namespace pbio::bench {
namespace {

struct Row {
  Roundtrip mpich, pbio;
  // Wire bytes each way, for the modern-network view.
  std::size_t mpich_ab, mpich_ba, pbio_ab, pbio_ba;
};

Row measure(Size s, Context& ctx, Writer& writer,
            const netmodel::NetworkModel& net) {
  MpichSteps m(s);
  const Workload& ab = m.ab;
  const Workload& ba = m.ba;
  auto m_sparc_enc = [&] { m.sparc_enc(); };
  auto m_i86_dec = [&] { m.i86_dec(); };
  auto m_i86_enc = [&] { m.i86_enc(); };
  auto m_sparc_dec = [&] { m.sparc_dec(); };

  // ---- PBIO with DCG ----
  const auto id_ab = ctx.register_format(ab.src_fmt);
  const auto id_ba = ctx.register_format(ba.src_fmt);
  (void)writer.announce(id_ab);
  (void)writer.announce(id_ba);
  const vcode::CompiledConvert conv_b(
      convert::compile_plan(ab.src_fmt, ba.src_fmt));  // sparc wire -> x86
  const vcode::CompiledConvert conv_a(
      convert::compile_plan(ba.src_fmt, ab.src_fmt));  // x86 wire -> sparc
  convert::ExecInput in_b;
  in_b.src = ab.src_image.data();
  in_b.src_size = ab.src_image.size();
  in_b.dst = m.x86_native.data();
  in_b.dst_size = m.x86_native.size();
  convert::ExecInput in_a;
  in_a.src = ba.src_image.data();
  in_a.src_size = ba.src_image.size();
  in_a.dst = m.sparc_native.data();
  in_a.dst_size = m.sparc_native.size();
  auto p_sparc_enc = [&] { (void)writer.write_image(id_ab, ab.src_image); };
  auto p_i86_dec = [&] { (void)conv_b.run(in_b); };
  auto p_i86_enc = [&] { (void)writer.write_image(id_ba, ba.src_image); };
  auto p_sparc_dec = [&] { (void)conv_a.run(in_a); };

  auto [mse, mid, mie, msd, pse, pid, pie, psd] = alternating_rounds_ns(
      m_sparc_enc, m_i86_dec, m_i86_enc, m_sparc_dec, p_sparc_enc, p_i86_dec,
      p_i86_enc, p_sparc_dec);
  Row row{.mpich_ab = m.packed_ab.size() + 8,
          .mpich_ba = m.packed_ba.size() + 8,
          .pbio_ab = ab.src_image.size() + kDataHeaderSize,
          .pbio_ba = ba.src_image.size() + kDataHeaderSize};
  row.mpich = {std::move(mse), std::move(mid), std::move(mie), std::move(msd),
               net.transfer_ms(row.mpich_ab) * 1e6,
               net.transfer_ms(row.mpich_ba) * 1e6};
  row.pbio = {std::move(pse), std::move(pid), std::move(pie), std::move(psd),
              net.transfer_ms(row.pbio_ab) * 1e6,
              net.transfer_ms(row.pbio_ba) * 1e6};
  return row;
}

void add_total_row(Table& t, Size s, const Roundtrip& mpich,
                   const Roundtrip& pbio, const char* paper = nullptr) {
  std::vector<std::string> row = {label(s), fmt_us(median(mpich.total())),
                                  fmt_us(median(pbio.total())),
                                  fmt_ratio(median_ratio(pbio.total(),
                                                         mpich.total()))};
  if (paper != nullptr) row.push_back(paper);
  t.add_row(std::move(row));
}

int run() {
  print_header("Figure 5",
               "Round-trip comparison PBIO-DCG vs MPICH, sparc <-> x86; "
               "median us over alternating rounds");
  const auto net = netmodel::paper_network();
  const auto modern = netmodel::modern_network();
  Table table("Roundtrip totals (us), measured CPU + 1999 network",
              {"size", "MPICH", "PBIO", "PBIO/MPICH", "paper"});
  Table era("Roundtrip totals (us), era-scaled CPU + 1999 network",
            {"size", "MPICH", "PBIO", "PBIO/MPICH", "paper"});
  Table today("Roundtrip totals (us), measured CPU + modern 25GbE network",
              {"size", "MPICH", "PBIO", "PBIO/MPICH"});

  // Paper's Figure 5 ratios (PBIO roundtrip / MPICH roundtrip).
  const char* paper_ratio[] = {"0.94x", "0.78x", "0.51x", "0.44x"};

  Context ctx;
  NullChannel null_channel;
  Writer writer(ctx, null_channel);
  std::vector<Row> rows;
  for (Size s : all_sizes()) rows.push_back(measure(s, ctx, writer, net));

  // Era-scaled view: map CPU costs onto the 1999 testbed. The 100 Kb MPICH
  // sparc encode is the calibration cell (paper: 13.31 ms).
  const double era_scale = 13.31e6 / median(rows.back().mpich.sparc_enc);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Size s = all_sizes()[i];
    const Row& r = rows[i];
    add_total_row(table, s, r.mpich, r.pbio, paper_ratio[i]);
    add_total_row(era, s, r.mpich.era_scaled(era_scale),
                  r.pbio.era_scaled(era_scale), paper_ratio[i]);
    // Modern-network view: measured CPU, 25 GbE.
    Roundtrip m_mpich = r.mpich, m_pbio = r.pbio;
    m_mpich.net_ab_ns = modern.transfer_ms(r.mpich_ab) * 1e6;
    m_mpich.net_ba_ns = modern.transfer_ms(r.mpich_ba) * 1e6;
    m_pbio.net_ab_ns = modern.transfer_ms(r.pbio_ab) * 1e6;
    m_pbio.net_ba_ns = modern.transfer_ms(r.pbio_ba) * 1e6;
    add_total_row(today, s, m_mpich, m_pbio);
  }
  table.print();
  era.print();
  today.print();
  std::cout << "\n'paper' column: the ratios implied by the paper's Figure 5 "
               "roundtrip times\n(0.62/0.66, 0.87/1.11, 4.3/8.43, "
               "35.27/80.0 ms). Era scaling: CPU mapped onto the 1999\n"
               "testbed via the paper's 13.31 ms 100Kb MPICH sparc encode.\n";
  return 0;
}

}  // namespace
}  // namespace pbio::bench

int main() { return pbio::bench::run(); }
