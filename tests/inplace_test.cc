// In-place conversion (receive-buffer reuse, paper §4.3): safety analysis,
// engine behaviour, and the Message-level API.
#include <gtest/gtest.h>

#include <random>

#include "arch/layout.h"
#include "convert/interp.h"
#include "convert/kernels/kernels.h"
#include "pbio/pbio.h"
#include "value/materialize.h"
#include "value/random.h"
#include "value/read.h"
#include "vcode/jit_convert.h"

namespace pbio::convert {
namespace {

using arch::CType;
using arch::StructSpec;
using value::Record;
using value::Value;

StructSpec mixed_spec() {
  StructSpec s;
  s.name = "mixed";
  s.fields = {
      {.name = "a", .type = CType::kInt},
      {.name = "x", .type = CType::kDouble},
      {.name = "f", .type = CType::kFloat, .array_elems = 6},
      {.name = "t", .type = CType::kChar, .array_elems = 8},
  };
  return s;
}

TEST(Inplace, IdentityPlanIsTriviallySafe) {
  const auto f = arch::layout_format(mixed_spec(), arch::abi_x86_64());
  EXPECT_TRUE(compile_plan(f, f).inplace_safe);
}

TEST(Inplace, PureByteSwapIsSafe) {
  // sparc_v9 <-> x86_64: identical offsets, swap in place.
  const auto be = arch::layout_format(mixed_spec(), arch::abi_sparc_v9());
  const auto le = arch::layout_format(mixed_spec(), arch::abi_x86_64());
  EXPECT_TRUE(compile_plan(be, le).inplace_safe);
}

TEST(Inplace, NarrowingLayoutIsSafeWideningIsNot) {
  StructSpec s;
  s.name = "l";
  s.fields = {{.name = "v", .type = CType::kLong},
              {.name = "w", .type = CType::kLong}};
  const auto wide = arch::layout_format(s, arch::abi_x86_64());   // 8B longs
  const auto narrow = arch::layout_format(s, arch::abi_sparc_v8());  // 4B
  // 8 -> 4 bytes, fields move down: safe.
  EXPECT_TRUE(compile_plan(wide, narrow).inplace_safe);
  // 4 -> 8 bytes, writes run ahead of reads: unsafe.
  EXPECT_FALSE(compile_plan(narrow, wide).inplace_safe);
}

TEST(Inplace, ExtensionAtFrontIsSafeToCompact) {
  // Dropping a leading unexpected field moves everything down: safe.
  auto ext = mixed_spec();
  ext.fields.insert(ext.fields.begin(),
                    {.name = "extra", .type = CType::kDouble});
  const auto src = arch::layout_format(ext, arch::abi_x86_64());
  const auto dst = arch::layout_format(mixed_spec(), arch::abi_x86_64());
  EXPECT_TRUE(compile_plan(src, dst).inplace_safe);
}

TEST(Inplace, MissingFieldZeroFillStillAnalyzed) {
  // A zero-fill writes without reading; safety then depends on whether any
  // later op reads bytes it clobbered. Dropping field "a" (first) means the
  // zero lands at dst start while sources sit at/after their dst slots.
  auto sender = mixed_spec();
  sender.fields.erase(sender.fields.begin());  // no "a" on the wire
  const auto src = arch::layout_format(sender, arch::abi_x86_64());
  const auto dst = arch::layout_format(mixed_spec(), arch::abi_x86_64());
  const Plan p = compile_plan(src, dst);
  // "a" zero-fills at offset 0..4, but "x" must be read from wire offset 0
  // (sender layout) after that write: unsafe.
  EXPECT_FALSE(p.inplace_safe);
}

TEST(Inplace, VariableFieldsAreUnsafe) {
  StructSpec s;
  s.name = "v";
  s.fields = {{.name = "n", .type = CType::kUInt},
              {.name = "text", .type = CType::kString}};
  const auto f = arch::layout_format(s, arch::abi_x86_64());
  StructSpec s2 = s;
  s2.fields[0].name = "n";  // same spec, different instance
  const auto g = arch::layout_format(s2, arch::abi_sparc_v9());
  EXPECT_FALSE(compile_plan(g, f).inplace_safe);
}

TEST(Inplace, OverlappingBuffersRejectedWithoutSafety) {
  StructSpec s;
  s.name = "l";
  s.fields = {{.name = "v", .type = CType::kLong}};
  const auto narrow = arch::layout_format(s, arch::abi_sparc_v8());
  const auto wide = arch::layout_format(s, arch::abi_x86_64());
  const Plan p = compile_plan(narrow, wide);  // unsafe direction
  ASSERT_FALSE(p.inplace_safe);
  std::vector<std::uint8_t> buf(16, 0);
  ExecInput in;
  in.src = buf.data();
  in.src_size = narrow.fixed_size;
  in.dst = buf.data();
  in.dst_size = buf.size();
  EXPECT_EQ(run_plan(p, in).code(), Errc::kUnsupported);
  vcode::CompiledConvert cc(p);
  EXPECT_EQ(cc.run(in).code(), Errc::kUnsupported);
}

/// Run a conversion both out-of-place and in-place (when safe) with both
/// engines; all safe paths must agree with the out-of-place reference.
/// `rec` holds the sender's values (`send` may carry fields `recv` lacks).
void check_inplace_matches(const StructSpec& send, const StructSpec& recv,
                           const arch::Abi& src_abi, const arch::Abi& dst_abi,
                           const Record& rec, const std::string& context,
                           int* safe_count) {
  const auto src = arch::layout_format(send, src_abi);
  const auto dst = arch::layout_format(recv, dst_abi);
  const auto wire = value::materialize(src, rec);
  const Plan plan = compile_plan(src, dst);
  if (!plan.inplace_safe) return;
  ++*safe_count;

  std::vector<std::uint8_t> reference(dst.fixed_size, 0);
  ExecInput ref_in;
  ref_in.src = wire.data();
  ref_in.src_size = wire.size();
  ref_in.dst = reference.data();
  ref_in.dst_size = reference.size();
  ASSERT_TRUE(run_plan(plan, ref_in).is_ok()) << context;

  vcode::CompiledConvert cc(plan);
  for (const bool use_jit : {false, true}) {
    std::vector<std::uint8_t> buf = wire;
    buf.resize(std::max<std::size_t>(buf.size(), dst.fixed_size), 0);
    ExecInput in;
    in.src = buf.data();
    in.src_size = wire.size();
    in.dst = buf.data();
    in.dst_size = buf.size();
    const Status st = use_jit ? cc.run(in) : run_plan(plan, in);
    ASSERT_TRUE(st.is_ok()) << context << " jit=" << use_jit;
    // Compare leaf field regions only — padding (including padding inside
    // struct elements) is unspecified and differs between a zeroed
    // reference buffer and an in-place-converted wire buffer.
    for (const auto& fd : dst.fields) {
      if (fd.base != fmt::BaseType::kStruct) {
        EXPECT_EQ(std::memcmp(buf.data() + fd.offset,
                              reference.data() + fd.offset, fd.slot_size),
                  0)
            << context << " jit=" << use_jit << " field " << fd.name;
        continue;
      }
      const auto* sub = dst.find_subformat(fd.subformat);
      ASSERT_NE(sub, nullptr);
      for (std::uint32_t e = 0; e < fd.static_elems; ++e) {
        const std::uint32_t base = fd.offset + e * fd.elem_size;
        for (const auto& sf : sub->fields) {
          EXPECT_EQ(std::memcmp(buf.data() + base + sf.offset,
                                reference.data() + base + sf.offset,
                                sf.slot_size),
                    0)
              << context << " jit=" << use_jit << " field " << fd.name << "["
              << e << "]." << sf.name;
        }
      }
    }
  }
}

TEST(Inplace, PropertyInplaceMatchesOutOfPlace) {
  std::mt19937_64 rng(2718);
  int safe_count = 0;
  for (int i = 0; i < 25; ++i) {
    value::RandomSpecOptions opts;
    opts.allow_strings = false;
    opts.allow_var_arrays = false;
    const StructSpec spec = value::random_spec(rng, opts);
    const Record rec = value::random_record(spec, rng);
    for (const auto* s : arch::all_abis()) {
      for (const auto* d : arch::all_abis()) {
        check_inplace_matches(spec, spec, *s, *d, rec,
                              std::to_string(i) + " " + s->name + "->" +
                                  d->name,
                              &safe_count);
      }
    }
  }
  // The sweep must actually exercise in-place paths, not vacuously pass.
  EXPECT_GT(safe_count, 50);
}

TEST(Inplace, KernelRunsBehindLeadingFieldMatchOutOfPlace) {
  // Runs long enough for the batch kernels behind an unexpected leading
  // field of 1..64 bytes: dropping it moves every run down, so each kernel
  // call of an in-place run overlaps forward (dst below src). Both engines
  // run it under each tier the host has; a sample of leading sizes keeps
  // the sweep short.
  StructSpec recv;
  recv.name = "runs";
  recv.fields = {
      {.name = "s", .type = CType::kShort, .array_elems = 17},
      {.name = "i", .type = CType::kInt, .array_elems = kernels::kMinCount},
      {.name = "l", .type = CType::kLong, .array_elems = 19},
      {.name = "f", .type = CType::kFloat, .array_elems = 21},
      {.name = "d", .type = CType::kDouble, .array_elems = 23},
      {.name = "u", .type = CType::kULong, .array_elems = 18},
  };
  std::vector<kernels::Isa> tiers = {kernels::Isa::kScalar};
  if (kernels::detected_isa() >= kernels::Isa::kAvx2) {
    tiers.push_back(kernels::Isa::kAvx2);
  }
  std::mt19937_64 rng(6464);
  int safe_count = 0;
  for (int k = 0; k < 8; ++k) {
    const std::uint32_t lead = 1 + static_cast<std::uint32_t>(rng() % 64);
    StructSpec send = recv;
    send.fields.insert(send.fields.begin(), {.name = "lead",
                                             .type = CType::kChar,
                                             .array_elems = lead});
    const Record rec = value::random_record(send, rng);
    for (const kernels::Isa isa : tiers) {
      kernels::force_isa(isa);
      for (const auto* s : arch::all_abis()) {
        for (const auto* d : arch::all_abis()) {
          check_inplace_matches(send, recv, *s, *d, rec,
                                "lead=" + std::to_string(lead) + " " +
                                    kernels::to_string(isa) + " " + s->name +
                                    "->" + d->name,
                                &safe_count);
        }
      }
    }
  }
  kernels::reset_isa();
  EXPECT_GT(safe_count, 0);
}

TEST(Inplace, MessageInPlaceView) {
  Context ctx;
  auto [wch, rch] = transport::make_loopback_pair();
  struct Mixed {
    int a;
    double x;
    float f[6];
    char t[8];
  };
  const NativeField fields[] = {
      PBIO_FIELD(Mixed, a, arch::CType::kInt),
      PBIO_FIELD(Mixed, x, arch::CType::kDouble),
      PBIO_ARRAY(Mixed, f, arch::CType::kFloat, 6),
      PBIO_ARRAY(Mixed, t, arch::CType::kChar, 8),
  };
  const auto native_id = ctx.register_format(
      native_format("mixed", fields, sizeof(Mixed)));
  // Big-endian sender with identical geometry: swap-in-place conversion.
  const auto be_fmt =
      arch::layout_format(mixed_spec(), arch::abi_sparc_v9());
  const auto be_id = ctx.register_format(be_fmt);

  Record rec;
  rec.set("a", Value(-5));
  rec.set("x", Value(6.5));
  rec.set("f", Value(Value::List{Value(1.0), Value(2.0), Value(3.0),
                                 Value(4.0), Value(5.0), Value(6.0)}));
  rec.set("t", Value("inplace"));
  const auto image = value::materialize(be_fmt, rec);

  Writer w(ctx, *wch);
  ASSERT_TRUE(w.write_image(be_id, image).is_ok());
  Reader r(ctx, *rch);
  r.expect(native_id);
  auto msg = r.next();
  ASSERT_TRUE(msg.is_ok());
  ASSERT_TRUE(msg.value().in_place_eligible());
  ASSERT_FALSE(msg.value().zero_copy());

  auto view = msg.value().in_place_view<Mixed>();
  ASSERT_TRUE(view.is_ok()) << view.status().to_string();
  EXPECT_EQ(view.value()->a, -5);
  EXPECT_EQ(view.value()->x, 6.5);
  EXPECT_EQ(view.value()->f[5], 6.f);
  EXPECT_STREQ(view.value()->t, "inplace");
  // The pointer aims into the message's own receive buffer.
  EXPECT_EQ(reinterpret_cast<const std::uint8_t*>(view.value()),
            msg.value().payload().data());
  // Idempotent: a second call must not re-swap.
  auto again = msg.value().in_place_view<Mixed>();
  ASSERT_TRUE(again.is_ok());
  EXPECT_EQ(again.value()->a, -5);
  // Reflection after in-place conversion reads the *native* image.
  auto refl = msg.value().reflect();
  ASSERT_TRUE(refl.is_ok());
  EXPECT_EQ(refl.value().find("a")->as_int(), -5);
}

TEST(Inplace, MessageRejectsUnsafePair) {
  Context ctx;
  auto [wch, rch] = transport::make_loopback_pair();
  struct Wide {
    long v;  // 8 bytes natively
  };
  const NativeField fields[] = {PBIO_FIELD(Wide, v, arch::CType::kLong)};
  const auto native_id =
      ctx.register_format(native_format("l", fields, sizeof(Wide)));
  arch::StructSpec s;
  s.name = "l";
  s.fields = {{.name = "v", .type = arch::CType::kLong}};
  const auto narrow_fmt = arch::layout_format(s, arch::abi_sparc_v8());
  const auto narrow_id = ctx.register_format(narrow_fmt);
  Record rec;
  rec.set("v", Value(42));
  Writer w(ctx, *wch);
  ASSERT_TRUE(
      w.write_image(narrow_id, value::materialize(narrow_fmt, rec)).is_ok());
  Reader r(ctx, *rch);
  r.expect(native_id);
  auto msg = r.next();
  ASSERT_TRUE(msg.is_ok());
  EXPECT_FALSE(msg.value().in_place_eligible());
  EXPECT_EQ(msg.value().in_place_view<Wide>().status().code(),
            Errc::kUnsupported);
  // The regular view still works.
  EXPECT_EQ(msg.value().view<Wide>().value()->v, 42);
}

}  // namespace
}  // namespace pbio::convert
