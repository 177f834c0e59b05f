// One round trip between a Sparc and an x86 PC, broken down as Figures 1
// and 5 draw it: four marshalling steps, timed in alternating rounds
// (bench_support/harness.h) so each holds one sample per round, plus the
// modelled network time each way. Totals and shares are taken per round;
// print their medians.
#pragma once

#include <vector>

#include "baselines/mpilite/pack.h"
#include "bench_support/workload.h"

namespace pbio::bench {

struct Roundtrip {
  std::vector<double> sparc_enc, i86_dec, i86_enc, sparc_dec;  // ns
  double net_ab_ns = 0;  // sparc -> x86
  double net_ba_ns = 0;  // x86 -> sparc

  /// Encode plus decode, per round.
  std::vector<double> cpu() const {
    std::vector<double> v(sparc_enc.size());
    for (std::size_t r = 0; r < v.size(); ++r) {
      v[r] = sparc_enc[r] + i86_dec[r] + i86_enc[r] + sparc_dec[r];
    }
    return v;
  }
  /// The whole round trip, per round.
  std::vector<double> total() const {
    std::vector<double> v = cpu();
    for (double& t : v) t += net_ab_ns + net_ba_ns;
    return v;
  }
  /// CPU mapped onto the 1999 testbed: the Sparc's steps x `scale`, the
  /// ~2x faster PC's steps x scale/2.
  Roundtrip era_scaled(double scale) const {
    Roundtrip e = *this;
    for (double& t : e.sparc_enc) t *= scale;
    for (double& t : e.sparc_dec) t *= scale;
    for (double& t : e.i86_dec) t *= scale / 2.0;
    for (double& t : e.i86_enc) t *= scale / 2.0;
    return e;
  }
};

/// MPICH's four steps for one record size: the Sparc packs its record,
/// the PC unpacks it into its native layout, and the same back. Each
/// decoder reads its encoder's last output.
struct MpichSteps {
  explicit MpichSteps(Size s)
      : ab(make_workload(s, arch::abi_sparc_v8(), arch::abi_x86())),
        ba(make_workload(s, arch::abi_x86(), arch::abi_sparc_v8())),
        dt_sparc(datatype_for(ab.src_fmt)),
        dt_x86(datatype_for(ba.src_fmt)),
        x86_native(ba.src_fmt.fixed_size),
        sparc_native(ab.src_fmt.fixed_size) {
    sparc_enc();
    i86_enc();
  }
  void sparc_enc() {
    packed_ab.clear();
    (void)mpilite::pack(dt_sparc, ab.src_image.data(), 1, packed_ab);
  }
  void i86_dec() {
    (void)mpilite::unpack(dt_x86, packed_ab.view(), x86_native.data(),
                          x86_native.size(), 1);
  }
  void i86_enc() {
    packed_ba.clear();
    (void)mpilite::pack(dt_x86, ba.src_image.data(), 1, packed_ba);
  }
  void sparc_dec() {
    (void)mpilite::unpack(dt_sparc, packed_ba.view(), sparc_native.data(),
                          sparc_native.size(), 1);
  }

  Workload ab;  // sparc sender, x86 receiver
  Workload ba;  // x86 sender, sparc receiver
  mpilite::Datatype dt_sparc, dt_x86;
  ByteBuffer packed_ab, packed_ba;
  std::vector<std::uint8_t> x86_native, sparc_native;
};

}  // namespace pbio::bench
