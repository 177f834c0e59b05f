// Benchmark substrate: the workload generator must hit the paper's sizes
// and the generic format->datatype mapping must agree with PBIO conversions.
#include "bench_support/workload.h"

#include <gtest/gtest.h>

#include "baselines/mpilite/pack.h"
#include "bench_support/harness.h"
#include "convert/interp.h"
#include "value/materialize.h"
#include "value/random.h"
#include "value/read.h"

namespace pbio::bench {
namespace {

TEST(Workload, SizesLandNearNominal) {
  const double nominal[] = {100, 1024, 10 * 1024, 100 * 1024};
  int i = 0;
  for (Size s : all_sizes()) {
    const auto f =
        arch::layout_format(mech_spec(s), arch::abi_x86_64());
    EXPECT_GT(f.fixed_size, nominal[i] * 0.9) << label(s);
    EXPECT_LT(f.fixed_size, nominal[i] * 1.1) << label(s);
    ++i;
  }
}

TEST(Workload, RecordsAreMixedType) {
  for (Size s : all_sizes()) {
    const auto spec = mech_spec(s);
    bool has_int = false, has_double = false, has_float = false,
         has_char = false;
    for (const auto& f : spec.fields) {
      has_int |= f.type == arch::CType::kInt;
      has_double |= f.type == arch::CType::kDouble;
      has_float |= f.type == arch::CType::kFloat;
      has_char |= f.type == arch::CType::kChar;
    }
    EXPECT_TRUE(has_int && has_double && has_float && has_char) << label(s);
  }
}

TEST(Workload, RecordsAreDeterministic) {
  const auto a = mech_record(Size::k1KB);
  const auto b = mech_record(Size::k1KB);
  EXPECT_TRUE(value::equivalent(a, b));
}

TEST(Workload, ImageMatchesRecord) {
  for (Size s : {Size::k100B, Size::k1KB}) {
    Workload w = make_workload(s, arch::abi_sparc_v8(), arch::abi_x86_64());
    auto back = value::read_record(w.src_fmt, w.src_image);
    ASSERT_TRUE(back.is_ok()) << label(s);
    EXPECT_TRUE(value::equivalent(back.value(), w.record)) << label(s);
  }
}

TEST(Workload, DatatypeForMatchesFormatGeometry) {
  for (Size s : all_sizes()) {
    for (const auto* abi : {&arch::abi_sparc_v8(), &arch::abi_x86_64()}) {
      const auto f = arch::layout_format(mech_spec(s), *abi);
      const auto dt = mpilite::datatype_for(f);
      EXPECT_EQ(dt.extent(), f.fixed_size) << label(s) << " " << abi->name;
      // Every field contributes its elements to the flattened map.
      std::size_t elems = 0;
      for (const auto& fd : f.fields) elems += fd.static_elems;
      EXPECT_EQ(dt.element_count(), elems);
    }
  }
}

TEST(Workload, MpilitePackAgreesWithPbioConversion) {
  // Cross-system check: pack on sparc + unpack on x86-64 must produce the
  // same native record as the PBIO conversion of the same wire image.
  Workload w =
      make_workload(Size::k1KB, arch::abi_sparc_v8(), arch::abi_x86_64());
  // mpilite route
  ByteBuffer packed;
  ASSERT_TRUE(mpilite::pack(mpilite::datatype_for(w.src_fmt),
                            w.src_image.data(), 1, packed)
                  .is_ok());
  std::vector<std::uint8_t> via_mpi(w.dst_fmt.fixed_size, 0);
  ASSERT_TRUE(mpilite::unpack(mpilite::datatype_for(w.dst_fmt), packed.view(),
                              via_mpi.data(), via_mpi.size(), 1)
                  .is_ok());
  // pbio route
  const auto plan = convert::compile_plan(w.src_fmt, w.dst_fmt);
  std::vector<std::uint8_t> via_pbio(w.dst_fmt.fixed_size, 0);
  convert::ExecInput in;
  in.src = w.src_image.data();
  in.src_size = w.src_image.size();
  in.dst = via_pbio.data();
  in.dst_size = via_pbio.size();
  ASSERT_TRUE(convert::run_plan(plan, in).is_ok());
  // Compare field regions (padding unspecified).
  for (const auto& fd : w.dst_fmt.fields) {
    EXPECT_EQ(std::memcmp(via_mpi.data() + fd.offset,
                          via_pbio.data() + fd.offset, fd.slot_size),
              0)
        << fd.name;
  }
}

TEST(Harness, TablePrintsAlignedColumns) {
  Table t("demo", {"col_a", "b"});
  t.add_row({"1", "22"});
  t.add_row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("col_a"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
}

TEST(Harness, Formatters) {
  // fmt_us: µs in fixed notation, at least three significant digits, and
  // never zero for a positive time, from sub-ns to seconds.
  for (double ns = 0.5; ns <= 1e10; ns *= 1.7) {
    const std::string s = fmt_us(ns);
    EXPECT_EQ(s.find_first_of("eE"), std::string::npos) << s;
    EXPECT_GT(std::stod(s), 0.0) << ns << " ns printed as " << s;
    const std::size_t lead = s.find_first_not_of("0.");
    ASSERT_NE(lead, std::string::npos) << s;
    std::size_t digits = 0;
    for (std::size_t i = lead; i < s.size(); ++i) digits += s[i] != '.';
    EXPECT_GE(digits, 3u) << ns << " ns printed as " << s;
    EXPECT_NEAR(std::stod(s), ns / 1e3, ns / 1e3 * 0.01) << s;
  }
  EXPECT_EQ(fmt_us(27.4), "0.0274");
  EXPECT_EQ(fmt_us(3210), "3.21");
  EXPECT_EQ(fmt_us(1.2346e6), "1235");
  EXPECT_EQ(fmt_ratio(2.04), "2.0x");
  EXPECT_EQ(fmt_bytes(1024), "1024");
}

TEST(Harness, NullChannelCountsBytes) {
  NullChannel ch;
  const std::uint8_t a[10] = {};
  ASSERT_TRUE(ch.send(a).is_ok());
  const std::span<const std::uint8_t> segs[] = {a, a};
  ASSERT_TRUE(ch.send_gather(segs).is_ok());
  EXPECT_EQ(ch.bytes_sent(), 30u);
  EXPECT_EQ(ch.messages(), 2u);
  EXPECT_FALSE(ch.recv().is_ok());
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch sw;
  volatile double x = 1.0;
  for (int i = 0; i < 100000; ++i) x = x * 1.0000001;
  EXPECT_GT(sw.elapsed_ns(), 0u);
  const auto before = sw.elapsed_ns();
  sw.reset();
  EXPECT_LE(sw.elapsed_ns(), before + 1000000);
}

TEST(Harness, AlternatingRoundsSampleEveryFunctionEachRound) {
  volatile int x = 0;
  auto a = [&] { x = x + 1; };
  auto b = [&] {
    for (int i = 0; i < 100; ++i) x = x + i;
  };
  const auto [ta, tb] = alternating_rounds_ns(a, b);
  for (const auto* t : {&ta, &tb}) {
    ASSERT_EQ(t->size(), static_cast<std::size_t>(kRounds));
    for (double ns : *t) EXPECT_GT(ns, 0.0);
  }
}

TEST(Harness, AlternatingRoundsRatioTracksWork) {
  // A function doing 10x the work of another reads 3x-30x by median
  // ratio.
  volatile std::uint64_t x = 0;
  struct Spin {
    volatile std::uint64_t* x;
    int n;
    void operator()() const {
      for (int i = 0; i < n; ++i) *x = *x * 31 + static_cast<unsigned>(i);
    }
  };
  Spin small{&x, 200};
  Spin large{&x, 2000};
  const auto [ts, tl] = alternating_rounds_ns(small, large);
  EXPECT_GT(median_ratio(tl, ts), 3.0);
  EXPECT_LT(median_ratio(tl, ts), 30.0);
}

}  // namespace
}  // namespace pbio::bench
