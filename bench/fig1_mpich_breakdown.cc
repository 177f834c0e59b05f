// Figure 1 reproduction: cost breakdown of an MPICH message round trip
// between a (simulated) big-endian Sparc and a little-endian x86 PC.
//
// Measured components: sparc encode (MPI pack), i86 decode (MPI unpack),
// i86 encode, sparc decode. Network components come from the calibrated
// 100 Mbps model (transport/simnet.h).
//
// Two views are printed:
//  * measured CPU — this host's actual marshalling costs, where the 1999
//    network dwarfs a 2020s CPU;
//  * era-scaled CPU — one scalar (the ratio between the paper's 13.31 ms
//    100 Kb sparc encode and ours, with the testbed's ~2x faster PC on the
//    x86 side) maps our costs onto the 1999 testbed. Every other cell is
//    then a prediction checked against the paper, which reports
//    encode/decode at ~66% of the total exchange.
//
// The four marshalling steps of each row are timed against each other in
// alternating rounds (bench/roundtrip.h); each cell is a median in µs.
#include <cstdio>
#include <vector>

#include "bench_support/harness.h"
#include "bench_support/workload.h"
#include "roundtrip.h"
#include "transport/simnet.h"

namespace pbio::bench {
namespace {

Roundtrip measure(Size s, const transport::NetworkModel& net) {
  MpichSteps m(s);
  auto sparc_enc = [&] { m.sparc_enc(); };
  auto i86_dec = [&] { m.i86_dec(); };
  auto i86_enc = [&] { m.i86_enc(); };
  auto sparc_dec = [&] { m.sparc_dec(); };
  auto [t_se, t_id, t_ie, t_sd] =
      alternating_rounds_ns(sparc_enc, i86_dec, i86_enc, sparc_dec);
  return {std::move(t_se), std::move(t_id), std::move(t_ie), std::move(t_sd),
          net.transfer_ms(m.packed_ab.size() + 8) * 1e6,
          net.transfer_ms(m.packed_ba.size() + 8) * 1e6};
}

void add_row(Table& t, Size s, const Roundtrip& c,
             const char* extra = nullptr) {
  char share[32];
  std::snprintf(share, sizeof share, "%.1f%%",
                median_ratio(c.cpu(), c.total()) * 100.0);
  std::vector<std::string> row = {
      label(s),
      fmt_us(median(c.sparc_enc)),
      fmt_us(c.net_ab_ns),
      fmt_us(median(c.i86_dec)),
      fmt_us(median(c.i86_enc)),
      fmt_us(c.net_ba_ns),
      fmt_us(median(c.sparc_dec)),
      fmt_us(median(c.total())),
      share};
  if (extra != nullptr) row.push_back(extra);
  t.add_row(std::move(row));
}

int run() {
  print_header("Figure 1",
               "MPICH round-trip cost breakdown, sparc <-> x86, 100 Mbps "
               "model; median us over alternating rounds");
  const auto net = transport::paper_network();
  const std::vector<std::string> cols = {"size",    "sparc_enc", "net",
                                         "i86_dec", "i86_enc",   "net ",
                                         "sparc_dec", "total",   "enc+dec%"};
  auto era_cols = cols;
  era_cols.push_back("paper_total");
  Table measured("MPICH roundtrip breakdown (us), measured CPU", cols);
  Table era("MPICH roundtrip breakdown (us), era-scaled CPU", era_cols);
  // The paper's Figure 1 totals: 0.66, 1.11, 8.43 and 80.0 ms.
  const char* paper_total[] = {"660", "1110", "8430", "80000"};

  std::vector<Roundtrip> cells;
  for (Size s : all_sizes()) {
    cells.push_back(measure(s, net));
    add_row(measured, s, cells.back());
  }
  measured.print();

  // Era calibration on the 100 Kb sparc-encode cell (paper: 13.31 ms).
  const double era_scale = 13.31e6 / median(cells.back().sparc_enc);
  for (std::size_t row = 0; row < cells.size(); ++row) {
    add_row(era, all_sizes()[row], cells[row].era_scaled(era_scale),
            paper_total[row]);
  }
  era.print();
  std::cout << "\nEra scaling: CPU x" << static_cast<int>(era_scale)
            << ", calibrated on the paper's 13.31 ms 100Kb sparc encode. "
               "The paper reports encode/decode at ~66% of the total.\n";
  return 0;
}

}  // namespace
}  // namespace pbio::bench

int main() { return pbio::bench::run(); }
