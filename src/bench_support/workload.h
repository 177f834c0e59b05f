// Benchmark workloads.
//
// The paper's message set comes "from a real mechanical engineering
// application": mixed-field structures of roughly 100 B, 1 KB, 10 KB and
// 100 KB. We synthesize an FEM-flavoured record family with the same four
// payload sizes and the same mixed-type character (ids, connectivity,
// nodal displacements, stress values, labels) so every conversion kind —
// 4/8-byte swaps, size changes, char copies — appears in realistic
// proportion.
#pragma once

#include <cstdint>
#include <vector>

#include "arch/layout.h"
#include "convert/plan.h"
#include "value/value.h"

namespace pbio::bench {

enum class Size : std::uint8_t { k100B, k1KB, k10KB, k100KB };

const char* label(Size s);
std::vector<Size> all_sizes();

/// Portable spec of the record family member for `s`.
arch::StructSpec mech_spec(Size s);

/// Deterministic, fully-populated record value for the spec.
value::Record mech_record(Size s);

/// Everything a figure bench needs for one (size, sender, receiver) cell.
struct Workload {
  Size size;
  arch::StructSpec spec;
  fmt::FormatDesc src_fmt;               // sender-native format
  fmt::FormatDesc dst_fmt;               // receiver-native format
  std::vector<std::uint8_t> src_image;   // sender-native byte image (= wire)
  value::Record record;
};

Workload make_workload(Size s, const arch::Abi& src, const arch::Abi& dst);

}  // namespace pbio::bench
