// Static plan verification: every class of forged or miscompiled plan the
// abstract interpreter must reject, every legitimate plan it must accept,
// and the end-to-end behaviour — a hostile format announcement can never
// reach plan execution.
#include "verify/verify.h"

#include <gtest/gtest.h>

#include <random>

#include "arch/layout.h"
#include "convert/plan.h"
#include "fmt/meta.h"
#include "pbio/pbio.h"
#include "value/materialize.h"
#include "value/random.h"
#include "vcode/jit_convert.h"

namespace pbio::verify {
namespace {

using convert::NumKind;
using convert::Op;
using convert::OpCode;
using convert::Plan;

bool has(const Report& r, Check c) {
  for (const Issue& i : r.issues) {
    if (i.check == c) return true;
  }
  return false;
}

/// Minimal healthy plan: one shift-free copy over a 16-byte record.
Plan base_plan() {
  Plan p;
  p.src_fixed_size = 16;
  p.dst_fixed_size = 16;
  Op op;
  op.code = OpCode::kCopy;
  op.byte_len = 16;
  p.ops.push_back(op);
  return p;
}

Op copy_op(std::uint32_t src_off, std::uint32_t dst_off, std::uint32_t len) {
  Op op;
  op.code = OpCode::kCopy;
  op.src_off = src_off;
  op.dst_off = dst_off;
  op.byte_len = len;
  return op;
}

/// The exact text of a few issues: where (an op's path, with a part
/// qualifier for a var-array's dim) and message, as verify_status reports
/// them.
TEST(VerifyDiagnostics, IssueText) {
  struct Case {
    const char* label;
    Plan plan;
    VerifyOptions opts;
    const char* text;
  };
  std::vector<Case> cases;

  Plan p = base_plan();
  p.ops[0].src_off = 8;
  cases.push_back({"source bounds", p, {},
                   "ops[0]: reads [8, 24) past source limit 16 [src-bounds]"});

  p = base_plan();
  p.src_fixed_size = p.dst_fixed_size = 64;
  p.ops[0] = copy_op(48, 48, 16);
  Op loop;
  loop.code = OpCode::kSubLoop;
  loop.count = 2;
  loop.src_stride = loop.dst_stride = 16;
  loop.sub = {copy_op(0, 0, 8), copy_op(4, 4, 8)};
  p.ops.push_back(loop);
  cases.push_back({"overlap inside a loop body", p, {},
                   "ops[1].sub[1]: destination bytes [4, 8) already written "
                   "by ops[1].sub[0] [overlap]"});

  Op inner = loop;
  inner.count = 1;
  inner.sub = {copy_op(0, 0, 8)};
  p.ops[1].sub = {inner};
  cases.push_back({"nested loop", p, {},
                   "ops[1].sub[0]: nested kSubLoop (subformats are flat) "
                   "[nesting]"});

  p = base_plan();
  p.has_variable = true;
  Op var;
  var.code = OpCode::kVarArray;
  var.dim_src_off = 14;
  var.dim_width = 4;
  var.src_stride = var.dst_stride = 8;
  var.sub = {copy_op(0, 0, 8)};
  p.ops[0] = var;
  cases.push_back({"var-array dim bounds", p, {},
                   "ops[0] (dim): reads [14, 18) past source limit 16 "
                   "[src-bounds]"});

  p = base_plan();
  p.ops = {copy_op(0, 0, 4), copy_op(4, 4, 4), copy_op(8, 8, 4)};
  cases.push_back({"op budget", p, {.max_ops = 2},
                   "ops[2]: plan exceeds 2 ops [geometry]"});

  p = base_plan();
  p.ops[0].dst_off = 0;
  p.ops[0].src_off = 0;
  p.ops.push_back(copy_op(0, 0, 4));
  p.ops[0].byte_len = 8;
  p.ops[1] = copy_op(8, 4, 4);
  p.identity = true;
  p.inplace_safe = true;
  cases.push_back({"identity flag", p, {},
                   "ops[1]: destination bytes [4, 8) already written by "
                   "ops[0] [overlap]; plan: identity claimed but ops are not "
                   "shift-free copies [flag]"});

  for (const Case& c : cases) {
    EXPECT_EQ(verify_plan(c.plan, c.opts).to_string(), c.text) << c.label;
    const Status st = verify_status(c.plan, c.opts);
    EXPECT_EQ(st.message(),
              std::string("conversion plan failed verification: ") + c.text)
        << c.label;
  }
}

TEST(VerifyReject, SourceReadOutOfBounds) {
  Plan p = base_plan();
  p.ops[0].src_off = 8;  // [8, 24) past the 16-byte wire record
  const Report r = verify_plan(p);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has(r, Check::kSrcBounds)) << r.to_string();
}

TEST(VerifyReject, DestinationWriteOutOfBounds) {
  Plan p = base_plan();
  p.ops[0].src_off = 0;
  p.ops[0].dst_off = 1;
  const Report r = verify_plan(p);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(has(r, Check::kDstBounds)) << r.to_string();
}

TEST(VerifyReject, EmptyCopy) {
  Plan p = base_plan();
  p.ops[0].byte_len = 0;
  EXPECT_TRUE(has(verify_plan(p), Check::kGeometry));
}

TEST(VerifyReject, SwapWidthZero) {
  Plan p = base_plan();
  p.ops[0].code = OpCode::kSwap;
  p.ops[0].byte_len = 0;
  p.ops[0].count = 4;
  p.ops[0].width_src = 0;
  p.ops[0].width_dst = 0;
  EXPECT_TRUE(has(verify_plan(p), Check::kWidth));
}

TEST(VerifyReject, SwapWidthThree) {
  Plan p = base_plan();
  p.ops[0].code = OpCode::kSwap;
  p.ops[0].count = 4;
  p.ops[0].width_src = 3;
  p.ops[0].width_dst = 3;
  EXPECT_TRUE(has(verify_plan(p), Check::kWidth));
}

TEST(VerifyReject, SwapWidthMismatch) {
  Plan p = base_plan();
  p.ops[0].code = OpCode::kSwap;
  p.ops[0].count = 2;
  p.ops[0].width_src = 4;
  p.ops[0].width_dst = 8;
  EXPECT_TRUE(has(verify_plan(p), Check::kWidth));
}

TEST(VerifyReject, SwapElementCountOverflowsRecord) {
  // count * width evaluated in 64-bit: 0x2000'0000 * 8 = 16 GiB, way past
  // the 16-byte record — and must not wrap into "fits".
  Plan p = base_plan();
  p.ops[0].code = OpCode::kSwap;
  p.ops[0].count = 0x20000000u;
  p.ops[0].width_src = 8;
  p.ops[0].width_dst = 8;
  const Report r = verify_plan(p);
  EXPECT_TRUE(has(r, Check::kSrcBounds)) << r.to_string();
}

TEST(VerifyReject, CvtNumKindOutOfRange) {
  Plan p = base_plan();
  p.ops[0].code = OpCode::kCvtNum;
  p.ops[0].count = 1;
  p.ops[0].width_src = 4;
  p.ops[0].width_dst = 4;
  p.ops[0].src_kind = static_cast<NumKind>(7);
  EXPECT_TRUE(has(verify_plan(p), Check::kKind));
}

TEST(VerifyReject, CvtNumWidthNotPowerOfTwo) {
  Plan p = base_plan();
  p.ops[0].code = OpCode::kCvtNum;
  p.ops[0].count = 1;
  p.ops[0].width_src = 3;
  p.ops[0].width_dst = 4;
  EXPECT_TRUE(has(verify_plan(p), Check::kWidth));
}

TEST(VerifyReject, TwoByteFloat) {
  Plan p = base_plan();
  p.ops[0].code = OpCode::kCvtNum;
  p.ops[0].count = 1;
  p.ops[0].width_src = 2;
  p.ops[0].width_dst = 2;
  p.ops[0].src_kind = NumKind::kFloat;
  p.ops[0].dst_kind = NumKind::kFloat;
  EXPECT_TRUE(has(verify_plan(p), Check::kWidth));
}

TEST(VerifyReject, OpcodeOutOfRange) {
  Plan p = base_plan();
  p.ops[0].code = static_cast<OpCode>(200);
  EXPECT_TRUE(has(verify_plan(p), Check::kKind));
}

TEST(VerifyReject, SubLoopZeroStride) {
  Plan p = base_plan();
  Op& op = p.ops[0];
  op.code = OpCode::kSubLoop;
  op.byte_len = 0;
  op.count = 4;
  op.src_stride = 0;
  op.dst_stride = 4;
  Op body;
  body.code = OpCode::kCopy;
  body.byte_len = 4;
  op.sub.push_back(body);
  EXPECT_TRUE(has(verify_plan(p), Check::kGeometry));
}

TEST(VerifyReject, SubLoopEmptyBody) {
  Plan p = base_plan();
  Op& op = p.ops[0];
  op.code = OpCode::kSubLoop;
  op.byte_len = 0;
  op.count = 4;
  op.src_stride = 4;
  op.dst_stride = 4;
  EXPECT_TRUE(has(verify_plan(p), Check::kGeometry));
}

TEST(VerifyReject, RecursiveSubLoop) {
  // Subformats are flat by construction; a loop inside a loop is forged.
  Plan p = base_plan();
  Op& outer = p.ops[0];
  outer.code = OpCode::kSubLoop;
  outer.byte_len = 0;
  outer.count = 2;
  outer.src_stride = 8;
  outer.dst_stride = 8;
  Op inner;
  inner.code = OpCode::kSubLoop;
  inner.count = 2;
  inner.src_stride = 4;
  inner.dst_stride = 4;
  Op leaf;
  leaf.code = OpCode::kCopy;
  leaf.byte_len = 4;
  inner.sub.push_back(leaf);
  outer.sub.push_back(inner);
  EXPECT_TRUE(has(verify_plan(p), Check::kNesting));
}

TEST(VerifyReject, LoopBodyExceedsElementStride) {
  // Each iteration owns src_stride bytes; a body reading 8 from a 4-byte
  // element reads the next element (or past the array) every iteration.
  Plan p = base_plan();
  Op& op = p.ops[0];
  op.code = OpCode::kSubLoop;
  op.byte_len = 0;
  op.count = 4;
  op.src_stride = 4;
  op.dst_stride = 4;
  Op body;
  body.code = OpCode::kCopy;
  body.byte_len = 8;
  op.sub.push_back(body);
  const Report r = verify_plan(p);
  EXPECT_TRUE(has(r, Check::kSrcBounds)) << r.to_string();
}

TEST(VerifyReject, VariableOpInsideLoop) {
  Plan p = base_plan();
  p.has_variable = true;
  Op& op = p.ops[0];
  op.code = OpCode::kSubLoop;
  op.byte_len = 0;
  op.count = 2;
  op.src_stride = 8;
  op.dst_stride = 8;
  Op str;
  str.code = OpCode::kString;
  op.sub.push_back(str);
  EXPECT_TRUE(has(verify_plan(p), Check::kNesting));
}

TEST(VerifyReject, VarArrayDimOffsetPastRecord) {
  Plan p = base_plan();
  p.has_variable = true;
  Op& op = p.ops[0];
  op.code = OpCode::kVarArray;
  op.byte_len = 0;
  op.dim_src_off = 14;  // 4-byte dim read at [14, 18) in a 16-byte record
  op.dim_width = 4;
  op.src_stride = 4;
  op.dst_stride = 4;
  Op body;
  body.code = OpCode::kCopy;
  body.byte_len = 4;
  op.sub.push_back(body);
  const Report r = verify_plan(p);
  EXPECT_TRUE(has(r, Check::kSrcBounds)) << r.to_string();
}

TEST(VerifyReject, VarArrayBadDimWidth) {
  Plan p = base_plan();
  p.has_variable = true;
  Op& op = p.ops[0];
  op.code = OpCode::kVarArray;
  op.byte_len = 0;
  op.dim_width = 3;
  op.src_stride = 4;
  op.dst_stride = 4;
  Op body;
  body.code = OpCode::kCopy;
  body.byte_len = 4;
  op.sub.push_back(body);
  EXPECT_TRUE(has(verify_plan(p), Check::kWidth));
}

TEST(VerifyReject, VarArrayZeroStride) {
  // The interpreter divides by src_stride when bounding the element count;
  // zero must be stopped before execution, not at the division.
  Plan p = base_plan();
  p.has_variable = true;
  Op& op = p.ops[0];
  op.code = OpCode::kVarArray;
  op.byte_len = 0;
  op.dim_width = 4;
  op.src_stride = 0;
  op.dst_stride = 4;
  Op body;
  body.code = OpCode::kCopy;
  body.byte_len = 4;
  op.sub.push_back(body);
  EXPECT_TRUE(has(verify_plan(p), Check::kGeometry));
}

TEST(VerifyReject, PointerSizeOutOfRange) {
  Plan p = base_plan();
  p.has_variable = true;
  p.src_pointer_size = 16;
  Op& op = p.ops[0];
  op.code = OpCode::kString;
  op.byte_len = 0;
  EXPECT_TRUE(has(verify_plan(p), Check::kWidth));
}

TEST(VerifyReject, OverlappingDestinationWrites) {
  Plan p = base_plan();
  p.ops[0].byte_len = 12;
  Op second;
  second.code = OpCode::kZero;
  second.dst_off = 8;  // [8, 16) over the copy's [0, 12)
  second.byte_len = 8;
  p.ops.push_back(second);
  const Report r = verify_plan(p);
  EXPECT_TRUE(has(r, Check::kOverlap)) << r.to_string();
}

TEST(VerifyAccept, LaterVarOpMayRewriteItsSlot) {
  // The optimizer's merged fixed copy spans the string's pointer slot; the
  // string op later overwrites it. Legal — but only in that order.
  Plan p = base_plan();
  p.has_variable = true;
  Op str;
  str.code = OpCode::kString;
  str.src_off = 0;
  str.dst_off = 0;
  str.byte_len = 0;
  p.ops.push_back(str);
  EXPECT_TRUE(verify_plan(p).ok()) << verify_plan(p).to_string();
}

TEST(VerifyReject, FixedOpClobbersWrittenVarSlot) {
  Plan p = base_plan();
  p.has_variable = true;
  Op str;
  str.code = OpCode::kString;
  str.byte_len = 0;
  p.ops.insert(p.ops.begin(), str);  // string first, copy clobbers after
  const Report r = verify_plan(p);
  EXPECT_TRUE(has(r, Check::kOverlap)) << r.to_string();
}

TEST(VerifyReject, IdentityFlagLie) {
  Plan p = base_plan();
  p.identity = true;
  p.ops[0].src_off = 8;
  p.ops[0].dst_off = 0;
  p.ops[0].byte_len = 8;
  EXPECT_TRUE(has(verify_plan(p), Check::kFlag));
}

TEST(VerifyReject, IdentityWithZeroFill) {
  Plan p = base_plan();
  p.identity = true;
  p.missing_wire_fields.push_back("ghost");
  EXPECT_TRUE(has(verify_plan(p), Check::kFlag));
}

TEST(VerifyReject, InplaceSafeFlagLie) {
  // A widening conversion (4 -> 8 bytes) can never run with dst == src:
  // element i's write tramples element i+1 before it is read.
  Plan p = base_plan();
  p.inplace_safe = true;
  Op& op = p.ops[0];
  op.code = OpCode::kCvtNum;
  op.byte_len = 0;
  op.count = 2;
  op.width_src = 4;
  op.width_dst = 8;
  EXPECT_TRUE(has(verify_plan(p), Check::kFlag));
}

TEST(VerifyReject, InplaceSafeShiftedWrite) {
  Plan p;
  p.src_fixed_size = 16;
  p.dst_fixed_size = 16;
  p.inplace_safe = true;
  Op op;
  op.code = OpCode::kCopy;
  op.src_off = 0;
  op.dst_off = 8;  // writes above where it reads
  op.byte_len = 8;
  p.ops.push_back(op);
  EXPECT_TRUE(has(verify_plan(p), Check::kFlag));
}

TEST(VerifyReject, HasVariableFlagLiesBothWays) {
  Plan claims_but_hasnt = base_plan();
  claims_but_hasnt.has_variable = true;
  EXPECT_TRUE(has(verify_plan(claims_but_hasnt), Check::kFlag));

  Plan has_but_denies = base_plan();
  Op str;
  str.code = OpCode::kString;
  str.byte_len = 0;
  str.dst_off = 8;
  has_but_denies.ops[0].byte_len = 8;
  has_but_denies.ops.push_back(str);
  has_but_denies.has_variable = false;
  EXPECT_TRUE(has(verify_plan(has_but_denies), Check::kFlag));
}

TEST(VerifyReject, OpCountBomb) {
  Plan p;
  p.src_fixed_size = 4;
  p.dst_fixed_size = 4;
  Op op;
  op.code = OpCode::kCopy;
  op.byte_len = 1;
  for (int i = 0; i < 10; ++i) {
    op.src_off = op.dst_off = static_cast<std::uint32_t>(i % 4);
    p.ops.push_back(op);
  }
  VerifyOptions opts;
  opts.max_ops = 8;
  EXPECT_TRUE(has(verify_plan(p, opts), Check::kGeometry));
}

TEST(VerifyReject, ReportListsEveryIssueCategory) {
  // A thoroughly hostile plan produces a readable multi-issue report.
  Plan p = base_plan();
  p.ops[0].src_off = 100;
  Op swap;
  swap.code = OpCode::kSwap;
  swap.count = 1;
  swap.width_src = 5;
  swap.width_dst = 5;
  p.ops.push_back(swap);
  const Report r = verify_plan(p);
  EXPECT_GE(r.issues.size(), 2u);
  EXPECT_FALSE(r.to_string().empty());
  EXPECT_NE(r.to_string().find("src-bounds"), std::string::npos);
}

// --- acceptance: everything the real compiler emits must verify ---------

arch::StructSpec rich_spec() {
  arch::StructSpec pt;
  pt.name = "pt";
  pt.fields = {{.name = "x", .type = arch::CType::kDouble},
               {.name = "y", .type = arch::CType::kFloat},
               {.name = "tag", .type = arch::CType::kShort}};
  arch::StructSpec s;
  s.name = "rich";
  s.fields = {{.name = "id", .type = arch::CType::kInt},
              {.name = "flags", .type = arch::CType::kUChar, .array_elems = 5},
              {.name = "samples", .type = arch::CType::kDouble,
               .array_elems = 12},
              {.name = "n", .type = arch::CType::kUInt},
              {.name = "name", .type = arch::CType::kString},
              {.name = "vals", .type = arch::CType::kFloat,
               .var_dim_field = "n"},
              {.name = "pts", .array_elems = 9, .subformat = "pt"}};
  s.subs.push_back(pt);
  return s;
}

TEST(VerifyAccept, CompiledPlansAcrossAllAbiPairs) {
  const arch::StructSpec spec = rich_spec();
  for (const auto* src : arch::all_abis()) {
    for (const auto* dst : arch::all_abis()) {
      const auto sf = arch::layout_format(spec, *src);
      const auto df = arch::layout_format(spec, *dst);
      for (const bool optimize : {true, false}) {
        convert::CompileOptions opts;
        opts.optimize = optimize;
        const Plan plan = convert::compile_plan(sf, df, opts);
        const Report r = verify_plan(plan);
        EXPECT_TRUE(r.ok())
            << src->name << "->" << dst->name
            << (optimize ? " opt" : " noopt") << ": " << r.to_string();
      }
    }
  }
}

TEST(VerifyAccept, RandomSpecsAcrossAllAbiPairs) {
  for (int seed = 0; seed < 25; ++seed) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(seed) * 9173 + 11);
    const arch::StructSpec spec = value::random_spec(rng);
    for (const auto* src : arch::all_abis()) {
      for (const auto* dst : arch::all_abis()) {
        const Plan plan =
            convert::compile_plan(arch::layout_format(spec, *src),
                                  arch::layout_format(spec, *dst));
        const Report r = verify_plan(plan);
        EXPECT_TRUE(r.ok()) << "seed " << seed << " " << src->name << "->"
                            << dst->name << ": " << r.to_string();
      }
    }
  }
}

// --- integration: the engines refuse what the verifier refuses ----------

TEST(VerifyIntegration, JitRefusesForgedPlan) {
  Plan bad = base_plan();
  bad.ops[0].src_off = 1000;
  vcode::CompiledConvert cc(bad);
  EXPECT_FALSE(cc.jitted());

  std::vector<std::uint8_t> buf(4096, 0);
  convert::ExecInput in;
  in.src = buf.data();
  in.src_size = buf.size();
  in.dst = buf.data() + 2048;
  in.dst_size = 2048;
  const Status st = cc.run(in);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::kMalformed);
}

TEST(VerifyIntegration, VerifiedPlansStillExecute) {
  const arch::StructSpec spec = rich_spec();
  const auto sf = arch::layout_format(spec, arch::abi_sparc_v9());
  const auto df = arch::layout_format(spec, arch::abi_x86_64());
  Plan plan = convert::compile_plan(sf, df);
  ASSERT_TRUE(verify_plan(plan).ok());
  plan.verified = true;

  std::mt19937_64 rng(99);
  const value::Record rec = value::random_record(spec, rng);
  const auto wire = value::materialize(sf, rec);

  vcode::CompiledConvert cc(std::move(plan));
  std::vector<std::uint8_t> out(df.fixed_size, 0);
  ByteBuffer var;
  convert::ExecInput in;
  in.src = wire.data();
  in.src_size = wire.size();
  in.dst = out.data();
  in.dst_size = out.size();
  in.mode = convert::VarMode::kOffsets;
  in.dst_var = &var;
  EXPECT_TRUE(cc.run(in).is_ok());
}

TEST(VerifyIntegration, ContextRejectsUnconvertibleWidths) {
  // A validated format can still demand an op outside the engines'
  // vocabulary: a 3-byte big-endian integer needs a 3-byte swap no engine
  // implements. Context must reject the pair, not execute it.
  fmt::FormatDesc src;
  src.name = "odd";
  src.fixed_size = 4;
  src.byte_order = ByteOrder::kBig;
  src.fields.push_back({.name = "v",
                        .base = fmt::BaseType::kInt,
                        .elem_size = 3,
                        .static_elems = 1,
                        .offset = 0,
                        .slot_size = 3});
  fmt::FormatDesc dst = src;
  dst.byte_order = ByteOrder::kLittle;
  ASSERT_NO_THROW(src.validate());

  Context ctx;
  const auto src_id = ctx.register_format(src);
  const auto dst_id = ctx.register_format(dst);
  auto conv = ctx.try_conversion(src_id, dst_id);
  ASSERT_FALSE(conv.is_ok());
  EXPECT_EQ(conv.status().code(), Errc::kMalformed);
}

// --- end to end: hostile announcements through the full reader ----------

struct WireRec {
  std::int32_t id;
  double vals[4];
  std::uint32_t n;
};

std::uint64_t announce_and_data(std::vector<std::uint8_t>* announce,
                                std::vector<std::uint8_t>* data) {
  const NativeField fields[] = {
      PBIO_FIELD(WireRec, id, arch::CType::kInt),
      PBIO_ARRAY(WireRec, vals, arch::CType::kDouble, 4),
      PBIO_FIELD(WireRec, n, arch::CType::kUInt),
  };
  Context ctx;
  const auto id =
      ctx.register_format(native_format("wr", fields, sizeof(WireRec)));
  auto [a, b] = transport::make_loopback_pair();
  Writer w(ctx, *a);
  WireRec rec{7, {1.5, 2.5, 3.5, 4.5}, 2};
  EXPECT_TRUE(w.write(id, &rec).is_ok());
  *announce = b->recv().take();
  *data = b->recv().take();
  return id;
}

TEST(VerifyEndToEnd, MutatedAnnouncementsNeverReachExecution) {
  std::vector<std::uint8_t> announce, data;
  announce_and_data(&announce, &data);

  const NativeField fields[] = {
      PBIO_FIELD(WireRec, id, arch::CType::kInt),
      PBIO_ARRAY(WireRec, vals, arch::CType::kDouble, 4),
      PBIO_FIELD(WireRec, n, arch::CType::kUInt),
  };

  std::mt19937_64 rng(31);
  int converted = 0;
  for (int i = 0; i < 2000; ++i) {
    auto mutated = announce;
    // Mutate payload bytes, not the frame-kind byte: we want hostile
    // *format descriptions*, not unknown frames.
    const std::size_t at = 1 + rng() % (mutated.size() - 1);
    mutated[at] ^= static_cast<std::uint8_t>(1 + rng() % 255);

    Context ctx;
    const auto native_id =
        ctx.register_format(native_format("wr", fields, sizeof(WireRec)));
    auto [c, d] = transport::make_loopback_pair();
    (void)c->send(mutated);
    (void)c->send(data);
    c->close();
    Reader r(ctx, *d);
    r.expect(native_id);
    auto msg = r.next();  // must not crash, any Status acceptable
    if (msg.is_ok() && msg.value().has_native()) {
      WireRec out{};
      if (msg.value().decode_into(&out, sizeof(out)).is_ok()) ++converted;
    }
  }
  // Most single-byte mutations miss wire-relevant content entirely (names,
  // padding) — plenty must still convert; the point is none may crash.
  EXPECT_GT(converted, 0);
}

TEST(VerifyEndToEnd, TruncatedAnnouncementsFailCleanly) {
  std::vector<std::uint8_t> announce, data;
  announce_and_data(&announce, &data);
  const NativeField fields[] = {
      PBIO_FIELD(WireRec, id, arch::CType::kInt),
      PBIO_ARRAY(WireRec, vals, arch::CType::kDouble, 4),
      PBIO_FIELD(WireRec, n, arch::CType::kUInt),
  };
  for (std::size_t n = 1; n < announce.size(); n += 3) {
    Context ctx;
    const auto native_id =
        ctx.register_format(native_format("wr", fields, sizeof(WireRec)));
    auto [c, d] = transport::make_loopback_pair();
    (void)c->send(std::span(announce.data(), n));
    (void)c->send(data);
    c->close();
    Reader r(ctx, *d);
    r.expect(native_id);
    auto msg = r.next();
    if (msg.is_ok()) {
      WireRec out{};
      (void)msg.value().decode_into(&out, sizeof(out));
    }
  }
}

}  // namespace
}  // namespace pbio::verify
