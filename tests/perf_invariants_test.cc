// Gross performance invariants — the orderings the paper's figures rest on,
// asserted with 10x+ slack so they catch regressions (an accidentally
// quadratic loop, a lost zero-copy path) without flaking on noisy machines.
// Every timing is taken as the figures take theirs: the functions compared
// run in alternating rounds (bench_support/harness.h), a ratio is the
// median of same-round ratios and an absolute time a median over rounds.
// Each timing test records its measured value as a gtest property.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "baselines/mpilite/pack.h"
#include "convert/interp.h"
#include "baselines/xmlwire/encode.h"
#include "bench_support/harness.h"
#include "bench_support/workload.h"
#include "obs/obs.h"
#include "obs/span.h"
#include "pbio/pbio.h"
#include "transport/loopback.h"
#include "vcode/execmem.h"
#include "vcode/jit_convert.h"

namespace pbio::bench {
namespace {

TEST(PerfInvariants, PbioSendIsFlatAcrossSizes) {
  // NDR send cost must not scale with payload (allow 20x headroom for
  // cache effects between 100B and 100KB).
  Context ctx;
  NullChannel ch;
  Writer w(ctx, ch);
  const Workload small = make_workload(Size::k100B, arch::abi_x86_64(),
                                      arch::abi_x86_64());
  const Workload large = make_workload(Size::k100KB, arch::abi_x86_64(),
                                      arch::abi_x86_64());
  const auto small_id = ctx.register_format(small.src_fmt);
  const auto large_id = ctx.register_format(large.src_fmt);
  (void)w.announce(small_id);
  (void)w.announce(large_id);
  auto send_small = [&] { (void)w.write_image(small_id, small.src_image); };
  auto send_large = [&] { (void)w.write_image(large_id, large.src_image); };
  const auto [t_small, t_large] = alternating_rounds_ns(send_small, send_large);
  const double ratio = median_ratio(t_large, t_small);
  RecordProperty("large_over_small", std::to_string(ratio));
  EXPECT_LT(ratio, 20.0)
      << "send cost scales with payload: NDR fast path lost";
}

TEST(PerfInvariants, MpichEncodeScalesWithSize) {
  // The baseline *should* pay per-element costs (that is what it models).
  Workload small = make_workload(Size::k100B, arch::abi_sparc_v8(),
                                 arch::abi_x86());
  Workload large = make_workload(Size::k100KB, arch::abi_sparc_v8(),
                                 arch::abi_x86());
  ByteBuffer out;
  const auto dt_small = mpilite::datatype_for(small.src_fmt);
  const auto dt_large = mpilite::datatype_for(large.src_fmt);
  auto pack_small = [&] {
    out.clear();
    (void)mpilite::pack(dt_small, small.src_image.data(), 1, out);
  };
  auto pack_large = [&] {
    out.clear();
    (void)mpilite::pack(dt_large, large.src_image.data(), 1, out);
  };
  const auto [t_small, t_large] = alternating_rounds_ns(pack_small, pack_large);
  const double ratio = median_ratio(t_large, t_small);
  RecordProperty("large_over_small", std::to_string(ratio));
  EXPECT_GT(ratio, 20.0)
      << "mpilite pack no longer models per-element marshalling";
}

TEST(PerfInvariants, XmlEncodeCostlierThanMpich) {
  Workload w = make_workload(Size::k10KB, arch::abi_sparc_v8(),
                             arch::abi_x86());
  ByteBuffer packed;
  const auto dt = mpilite::datatype_for(w.src_fmt);
  auto mpich = [&] {
    packed.clear();
    (void)mpilite::pack(dt, w.src_image.data(), 1, packed);
  };
  std::string xml;
  auto xml_enc = [&] {
    xml.clear();
    (void)xmlwire::encode_xml(w.src_fmt, w.src_image, xml);
  };
  const auto [t_mpich, t_xml] = alternating_rounds_ns(mpich, xml_enc);
  const double ratio = median_ratio(t_xml, t_mpich);
  RecordProperty("xml_over_mpich", std::to_string(ratio));
  EXPECT_GT(ratio, 3.0) << "XML should cost well above binary";
}

TEST(PerfInvariants, DcgBeatsPerElementInterpretation) {
  Workload w = make_workload(Size::k100KB, arch::abi_x86(),
                             arch::abi_sparc_v8());
  ByteBuffer packed;
  (void)mpilite::pack(mpilite::datatype_for(w.src_fmt),
                      w.src_image.data(), 1, packed);
  const auto dt_dst = mpilite::datatype_for(w.dst_fmt);
  std::vector<std::uint8_t> out(w.dst_fmt.fixed_size);
  auto mpich = [&] {
    (void)mpilite::unpack(dt_dst, packed.view(), out.data(), out.size(), 1);
  };
  const vcode::CompiledConvert dcg(
      convert::compile_plan(w.src_fmt, w.dst_fmt));
  convert::ExecInput in;
  in.src = w.src_image.data();
  in.src_size = w.src_image.size();
  in.dst = out.data();
  in.dst_size = out.size();
  auto gen = [&] { (void)dcg.run(in); };
  const auto [t_mpich, t_dcg] = alternating_rounds_ns(mpich, gen);
  const double ratio = median_ratio(t_mpich, t_dcg);
  RecordProperty("mpich_over_dcg", std::to_string(ratio));
  EXPECT_GT(ratio, 2.0)
      << "generated conversion no faster than per-element interpretation";
}

TEST(PerfInvariants, LargeArraySwapWithinConstantFactorOfMemcpy) {
  // The interpreter's swap path for large arrays dispatches to the batch
  // kernels (convert/kernels); a byte swap is at worst a shuffling copy,
  // so it must stay within a small constant factor of memcpy on the same
  // buffer — this guards against regressing to per-element dispatch
  // (which is ~an order of magnitude off memcpy at this size).
  constexpr std::uint32_t kCount = 256 * 1024;  // 1 MiB of uint32
  convert::Plan plan;
  plan.src_order = host_byte_order() == ByteOrder::kLittle
                       ? ByteOrder::kBig
                       : ByteOrder::kLittle;
  plan.dst_order = host_byte_order();
  plan.src_fixed_size = kCount * 4;
  plan.dst_fixed_size = kCount * 4;
  convert::Op op;
  op.code = convert::OpCode::kSwap;
  op.width_src = 4;
  op.width_dst = 4;
  op.count = kCount;
  plan.ops.push_back(op);

  std::vector<std::uint8_t> src(plan.src_fixed_size, 0x5C);
  std::vector<std::uint8_t> dst(plan.dst_fixed_size);
  convert::ExecInput in;
  in.src = src.data();
  in.src_size = src.size();
  in.dst = dst.data();
  in.dst_size = dst.size();
  auto swap = [&] { (void)convert::run_plan(plan, in); };
  auto copy = [&] { std::memcpy(dst.data(), src.data(), src.size()); };
  const auto [t_swap, t_memcpy] = alternating_rounds_ns(swap, copy);
  const double ratio = median_ratio(t_swap, t_memcpy);
  RecordProperty("swap_over_memcpy", std::to_string(ratio));
  EXPECT_LT(ratio, 8.0)
      << "large-array swap fell back to per-element conversion";
}

TEST(PerfInvariants, EnabledIdleSpanOverheadUnder2PercentOfDecode) {
  // The observability contract: an OBS_SPAN whose trace sink is idle costs
  // a predicted branch + two rdtsc + one per-thread histogram bump. Pin
  // that against the work it instruments — the fig3 large-message
  // interpreted decode — so instrumentation creep shows up as a test
  // failure, not a silent bench regression.
  obs::calibrate();
  Workload w = make_workload(Size::k100KB, arch::abi_x86(),
                             arch::abi_sparc_v8());
  const convert::Plan plan = convert::compile_plan(w.src_fmt, w.dst_fmt);
  std::vector<std::uint8_t> out(w.dst_fmt.fixed_size);
  convert::ExecInput in;
  in.src = w.src_image.data();
  in.src_size = w.src_image.size();
  in.dst = out.data();
  in.dst_size = out.size();
  auto decode = [&] { (void)convert::run_plan(plan, in); };

  constexpr int kSpans = 1000;
  auto spans = [&] {
    for (int i = 0; i < kSpans; ++i) {
      OBS_SPAN("test.perf.idle_span");
    }
  };
  const auto [t_decode, t_spans] = alternating_rounds_ns(decode, spans);
  const double ratio = median_ratio(t_spans, t_decode) / kSpans;
  RecordProperty("span_over_decode", std::to_string(ratio));
  RecordProperty("idle_span_ns", std::to_string(median(t_spans) / kSpans));
  RecordProperty("decode_ns", std::to_string(median(t_decode)));
  EXPECT_LT(ratio, 0.02) << "idle span costs " << median(t_spans) / kSpans
                         << " ns vs decode " << median(t_decode) << " ns";
}

TEST(PerfInvariants, IdentityPlanCostsNothing) {
  Workload w = make_workload(Size::k100KB, arch::abi_x86_64(),
                             arch::abi_x86_64());
  const auto plan = convert::compile_plan(w.src_fmt, w.dst_fmt);
  ASSERT_TRUE(plan.identity);
  // Checking the flag is the whole homogeneous receive path; it must be
  // well under a microsecond.
  volatile bool flag = false;
  auto check = [&] { flag = plan.identity; };
  const auto [t] = alternating_rounds_ns(check);
  (void)flag;
  RecordProperty("ns_per_check", std::to_string(median(t)));
  EXPECT_LT(median(t), 1000.0);
}

TEST(PerfInvariants, RecompilingReusesCodePagesWithoutMapping) {
  // A compiled conversion's code page goes back to the pool when the
  // conversion is dropped, so steady compile-and-drop churn (a context
  // torn down and rebuilt) maps no new memory. A count, not a timing.
  if (!vcode::jit_supported()) GTEST_SKIP() << "no JIT on this host";
  Workload w = make_workload(Size::k1KB, arch::abi_sparc_v8(),
                             arch::abi_x86_64());
  const auto plan = convert::compile_plan(w.src_fmt, w.dst_fmt);
  const auto counter = [](const char* name) -> std::uint64_t {
    const obs::Snapshot snap = obs::snapshot();
    const obs::CounterSample* c = snap.find_counter(name);
    EXPECT_NE(c, nullptr) << name << " not registered";
    return c == nullptr ? 0 : c->value;
  };
  ASSERT_TRUE(vcode::CompiledConvert(plan).jitted());  // warm-up
  const std::uint64_t maps = counter("vcode.exec.maps");
  const std::uint64_t reuses = counter("vcode.exec.reuses");
  constexpr int kCompiles = 100;
  for (int i = 0; i < kCompiles; ++i) {
    ASSERT_TRUE(vcode::CompiledConvert(plan).jitted());
  }
  EXPECT_EQ(counter("vcode.exec.maps"), maps)
      << "dropping a conversion did not recycle its code page";
  EXPECT_EQ(counter("vcode.exec.reuses"), reuses + kCompiles);
}

/// hetero_bulk's host-native variable-length record.
struct NativeEvent {
  int seq;
  unsigned n;
  char* name;
  double* samples;
};

TEST(PerfInvariants, FirstRecordOfEachPairGeneratesNoCode) {
  // A stream generates code only for pairs that recur. A Reader receiving
  // one record of each of hetero_bulk's 10 pairs (three record sizes from
  // three foreign ABIs, plus a host var-length record) builds and verifies
  // 10 plans and compiles nothing. A count, not a timing.
  Context wctx;
  Context rctx;
  auto [tx, rx] = transport::make_loopback_pair();
  Writer writer(wctx, *tx);
  Reader reader(rctx, *rx);
  for (Size s : {Size::k1KB, Size::k10KB, Size::k100KB}) {
    reader.expect(rctx.register_format(
        make_workload(s, arch::abi_x86_64(), arch::abi_x86_64()).dst_fmt));
    for (const arch::Abi* abi :
         {&arch::abi_sparc_v8(), &arch::abi_x86(), &arch::abi_ppc64()}) {
      const Workload w = make_workload(s, *abi, arch::abi_x86_64());
      ASSERT_TRUE(
          writer.write_image(wctx.register_format(w.src_fmt), w.src_image)
              .is_ok());
    }
  }
  const NativeField fields[] = {
      PBIO_FIELD(NativeEvent, seq, arch::CType::kInt),
      PBIO_FIELD(NativeEvent, n, arch::CType::kUInt),
      PBIO_STRING(NativeEvent, name),
      PBIO_VARARRAY(NativeEvent, samples, arch::CType::kDouble, "n"),
  };
  const fmt::FormatDesc event =
      native_format("event", fields, sizeof(NativeEvent));
  reader.expect(rctx.register_format(event));
  char name[] = "probe";
  double samples[3] = {1.5, -2.5, 3.5};
  const NativeEvent ev{7, 3, name, samples};
  ASSERT_TRUE(writer.write(wctx.register_format(event), &ev).is_ok());

  const std::uint64_t jit0 = [] {
    const obs::Snapshot snap = obs::snapshot();
    const obs::HistogramSample* h = snap.find_histogram("vcode.jit.compile");
    return h == nullptr ? std::uint64_t{0} : h->count;
  }();
  for (int i = 0; i < 10; ++i) {
    auto m = reader.next();
    ASSERT_TRUE(m.is_ok()) << m.status().to_string();
    EXPECT_TRUE(m.value().has_native());
  }
  const cache::ArtifactCache::Stats st = rctx.artifact_cache().stats();
  EXPECT_EQ(st.compiles, 10u) << "one verified plan per pair";
  EXPECT_EQ(st.tier_ups, 0u);
  EXPECT_EQ(st.jit_code_bytes, 0u);
  EXPECT_EQ(rctx.stats().conversions_compiled, 10u);
  const obs::Snapshot snap = obs::snapshot();
  const obs::HistogramSample* jit = snap.find_histogram("vcode.jit.compile");
  EXPECT_EQ(jit == nullptr ? 0 : jit->count, jit0) << "code was generated";
}

}  // namespace
}  // namespace pbio::bench
