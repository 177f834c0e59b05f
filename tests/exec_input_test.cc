// The entry check both conversion engines run (convert::check_exec_input):
// one table of inputs, each refused or accepted, run through the
// interpreter (convert::run_plan) and generated code
// (vcode::CompiledConvert::run). Both must return the row's Errc, so a
// cheaper check in either engine cannot drop a refusal unnoticed.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "arch/layout.h"
#include "convert/interp.h"
#include "value/materialize.h"
#include "vcode/jit_convert.h"

namespace pbio::convert {
namespace {

using arch::CType;
using arch::StructSpec;

StructSpec fixed_spec() {
  StructSpec s;
  s.name = "fixed";
  s.fields = {{.name = "a", .type = CType::kInt},
              {.name = "l", .type = CType::kLong},
              {.name = "d", .type = CType::kDouble, .array_elems = 20}};
  return s;
}

StructSpec var_spec() {
  StructSpec s;
  s.name = "var";
  s.fields = {{.name = "id", .type = CType::kInt},
              {.name = "text", .type = CType::kString}};
  return s;
}

/// Where dst sits relative to src.
enum class Place : std::uint8_t {
  kDisjoint,
  kSame,      // dst == src
  kDstAbove,  // dst = src + 8
  kDstBelow,  // dst = src - 8
};

struct Row {
  const char* what;
  int plan;  // index into the plans below
  Place place = Place::kDisjoint;
  std::size_t src_short = 0;  // bytes taken off src_size
  std::size_t dst_short = 0;  // bytes taken off dst_size
  VarMode mode = VarMode::kPointers;
  bool arena = true;
  bool dst_var = true;
  Errc expect = Errc::kOk;
};

TEST(ExecInput, BothEnginesRefuseTheSameInputs) {
  const StructSpec fixed = fixed_spec();
  const StructSpec var = var_spec();
  const auto x64 = [](const StructSpec& s) {
    return arch::layout_format(s, arch::abi_x86_64());
  };
  // 0: a byte swap, inplace_safe. 1: 4-byte longs widen to 8, not
  // inplace_safe. 2: variable fields into host pointers. 3: variable
  // fields into a 4-byte-pointer destination.
  const Plan plans[] = {
      compile_plan(arch::layout_format(fixed, arch::abi_sparc_v9()),
                   x64(fixed)),
      compile_plan(arch::layout_format(fixed, arch::abi_sparc_v8()),
                   x64(fixed)),
      compile_plan(x64(var), x64(var)),
      compile_plan(x64(var), arch::layout_format(var, arch::abi_x86())),
  };
  ASSERT_TRUE(plans[0].inplace_safe);
  ASSERT_FALSE(plans[1].inplace_safe);
  ASSERT_TRUE(plans[2].has_variable);
  ASSERT_EQ(plans[2].dst_pointer_size, sizeof(void*));
  ASSERT_NE(plans[3].dst_pointer_size, sizeof(void*));

  const Row rows[] = {
      {"safe plan, disjoint", 0},
      {"unsafe plan, disjoint", 1},
      {"short source", 0, Place::kDisjoint, 1, 0, VarMode::kPointers, true,
       true, Errc::kTruncated},
      {"short destination", 0, Place::kDisjoint, 0, 1, VarMode::kPointers,
       true, true, Errc::kTruncated},
      {"short source, unsafe plan", 1, Place::kDisjoint, 4, 0,
       VarMode::kPointers, true, true, Errc::kTruncated},
      {"safe plan, in place", 0, Place::kSame},
      {"unsafe plan, in place", 1, Place::kSame, 0, 0, VarMode::kPointers,
       true, true, Errc::kUnsupported},
      {"safe plan, dst above src", 0, Place::kDstAbove, 0, 0,
       VarMode::kPointers, true, true, Errc::kUnsupported},
      {"safe plan, dst below src", 0, Place::kDstBelow, 0, 0,
       VarMode::kPointers, true, true, Errc::kUnsupported},
      {"pointers, host pointer size", 2},
      {"pointers, null arena", 2, Place::kDisjoint, 0, 0, VarMode::kPointers,
       false, true, Errc::kUnsupported},
      {"pointers, 4-byte pointer destination", 3, Place::kDisjoint, 0, 0,
       VarMode::kPointers, true, true, Errc::kUnsupported},
      {"offsets, null dst_var", 3, Place::kDisjoint, 0, 0, VarMode::kOffsets,
       true, false, Errc::kUnsupported},
      {"offsets", 3, Place::kDisjoint, 0, 0, VarMode::kOffsets},
  };

  std::mt19937 rng(5150);
  value::Record rec;
  rec.set("id", value::Value(7));
  rec.set("text", value::Value("refusal table"));
  for (const Row& row : rows) {
    const Plan& plan = plans[row.plan];
    std::vector<std::uint8_t> wire;
    if (plan.has_variable) {
      wire = value::materialize(x64(var), rec);
    } else {
      wire.resize(plan.src_fixed_size);
      for (auto& b : wire) b = static_cast<std::uint8_t>(rng());
    }
    const vcode::CompiledConvert dcg(plan);
    ASSERT_TRUE(dcg.jitted()) << row.what;

    const auto run = [&](auto&& engine) {
      // One buffer holds both sides, src 16 bytes in, so each placement
      // stays inside it.
      std::vector<std::uint8_t> mem(16 + wire.size() + plan.dst_fixed_size +
                                    16);
      std::uint8_t* src = mem.data() + 16;
      std::copy(wire.begin(), wire.end(), src);
      std::vector<std::uint8_t> out(plan.dst_fixed_size);
      std::uint8_t* dst = row.place == Place::kSame       ? src
                          : row.place == Place::kDstAbove ? src + 8
                          : row.place == Place::kDstBelow ? src - 8
                                                          : out.data();
      Arena arena;
      ByteBuffer dst_var;
      ExecInput in;
      in.src = src;
      in.src_size = wire.size() - row.src_short;
      in.dst = dst;
      in.dst_size = plan.dst_fixed_size - row.dst_short;
      in.mode = row.mode;
      in.arena = row.arena ? &arena : nullptr;
      in.dst_var = row.dst_var ? &dst_var : nullptr;
      return engine(in).code();
    };
    const Errc interp =
        run([&plan](const ExecInput& in) { return run_plan(plan, in); });
    const Errc jit = run([&dcg](const ExecInput& in) { return dcg.run(in); });
    EXPECT_STREQ(to_string(interp), to_string(row.expect))
        << "interp: " << row.what;
    EXPECT_STREQ(to_string(jit), to_string(row.expect)) << "dcg: " << row.what;
  }
}

}  // namespace
}  // namespace pbio::convert
