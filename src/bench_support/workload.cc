#include "bench_support/workload.h"

#include <random>

#include "util/error.h"
#include "value/materialize.h"

namespace pbio::bench {

const char* label(Size s) {
  switch (s) {
    case Size::k100B:
      return "100b";
    case Size::k1KB:
      return "1Kb";
    case Size::k10KB:
      return "10Kb";
    case Size::k100KB:
      return "100Kb";
  }
  return "?";
}

std::vector<Size> all_sizes() {
  return {Size::k100B, Size::k1KB, Size::k10KB, Size::k100KB};
}

namespace {

/// Array scale factors chosen so the x86-64 record sizes land near the
/// paper's nominal 100 B / 1 KB / 10 KB / 100 KB points.
struct Scale {
  std::uint32_t conn;    // int connectivity entries
  std::uint32_t disp;    // double nodal displacements
  std::uint32_t stress;  // float stress values
  std::uint32_t energy;  // double energies
};

Scale scale_for(Size s) {
  switch (s) {
    case Size::k100B:
      return {4, 6, 4, 0};
    case Size::k1KB:
      return {32, 64, 64, 12};
    case Size::k10KB:
      return {320, 640, 640, 120};
    case Size::k100KB:
      return {3200, 6400, 6400, 1200};
  }
  throw PbioError("bad workload size");
}

}  // namespace

arch::StructSpec mech_spec(Size s) {
  using arch::CType;
  const Scale sc = scale_for(s);
  arch::StructSpec spec;
  spec.name = std::string("mech_") + label(s);
  spec.fields.push_back({.name = "elem_id", .type = CType::kInt});
  spec.fields.push_back(
      {.name = "conn", .type = CType::kInt, .array_elems = sc.conn});
  spec.fields.push_back(
      {.name = "disp", .type = CType::kDouble, .array_elems = sc.disp});
  spec.fields.push_back(
      {.name = "stress", .type = CType::kFloat, .array_elems = sc.stress});
  if (sc.energy != 0) {
    spec.fields.push_back(
        {.name = "energy", .type = CType::kDouble, .array_elems = sc.energy});
  }
  spec.fields.push_back(
      {.name = "name", .type = CType::kChar, .array_elems = 16});
  return spec;
}

value::Record mech_record(Size s) {
  const Scale sc = scale_for(s);
  std::mt19937_64 rng(0xBEEF + static_cast<std::uint64_t>(s));
  value::Record r;
  r.set("elem_id", value::Value(static_cast<std::int64_t>(rng() % 100000)));
  value::Value::List conn;
  for (std::uint32_t i = 0; i < sc.conn; ++i) {
    conn.push_back(
        value::Value(static_cast<std::int64_t>(static_cast<std::int32_t>(rng()))));
  }
  r.set("conn", value::Value(std::move(conn)));
  value::Value::List disp;
  for (std::uint32_t i = 0; i < sc.disp; ++i) {
    disp.push_back(value::Value(
        static_cast<double>(static_cast<std::int64_t>(rng())) / 1e6));
  }
  r.set("disp", value::Value(std::move(disp)));
  value::Value::List stress;
  for (std::uint32_t i = 0; i < sc.stress; ++i) {
    stress.push_back(value::Value(static_cast<double>(
        static_cast<float>(static_cast<std::int32_t>(rng())) / 128.f)));
  }
  r.set("stress", value::Value(std::move(stress)));
  if (sc.energy != 0) {
    value::Value::List energy;
    for (std::uint32_t i = 0; i < sc.energy; ++i) {
      energy.push_back(value::Value(
          static_cast<double>(static_cast<std::int64_t>(rng())) / 1e3));
    }
    r.set("energy", value::Value(std::move(energy)));
  }
  r.set("name", value::Value("elem_block_A"));
  return r;
}

Workload make_workload(Size s, const arch::Abi& src, const arch::Abi& dst) {
  Workload w;
  w.size = s;
  w.spec = mech_spec(s);
  w.src_fmt = arch::layout_format(w.spec, src);
  w.dst_fmt = arch::layout_format(w.spec, dst);
  w.record = mech_record(s);
  w.src_image = value::materialize(w.src_fmt, w.record);
  return w;
}

}  // namespace pbio::bench
