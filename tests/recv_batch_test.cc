// Reader::next_batch and Message::decode_all: the batched receive path
// must be bit-identical to the per-message path across the corpus the
// conversion machinery cares about — homogeneous (identity), heterogeneous
// (swaps + size changes), and type-extension (ignored / zero-filled
// fields) — including mixed wire ids and mid-stream format announcements.
#include <gtest/gtest.h>

#include <cstring>
#include <span>
#include <vector>

#include "arch/layout.h"
#include "pbio/pbio.h"
#include "value/materialize.h"

namespace pbio {
namespace {

struct Mech {
  std::int32_t count;
  double vals[6];
  std::int16_t tag;
};

arch::StructSpec mech_like_spec() {
  arch::StructSpec spec;
  spec.name = "mech";
  spec.fields.push_back({"count", arch::CType::kInt, 1, "", ""});
  spec.fields.push_back({"vals", arch::CType::kDouble, 6, "", ""});
  spec.fields.push_back({"tag", arch::CType::kShort, 1, "", ""});
  return spec;
}

value::Record mech_value(int i) {
  value::Record rec;
  rec.set("count", i);
  value::Value::List vals;
  for (int j = 0; j < 6; ++j) vals.push_back(0.25 * i + j);
  rec.set("vals", std::move(vals));
  rec.set("tag", 7 - i);
  return rec;
}

Context::FormatId register_mech_native(Context& ctx) {
  const NativeField fields[] = {
      PBIO_FIELD(Mech, count, arch::CType::kInt),
      PBIO_ARRAY(Mech, vals, arch::CType::kDouble, 6),
      PBIO_FIELD(Mech, tag, arch::CType::kShort),
  };
  return ctx.register_format(native_format("mech", fields, sizeof(Mech)));
}

TEST(NextBatch, DrainsEverythingAlreadyQueued) {
  struct P {
    std::int32_t id;
    double x;
  };
  const NativeField fields[] = {
      PBIO_FIELD(P, id, arch::CType::kInt),
      PBIO_FIELD(P, x, arch::CType::kDouble),
  };
  Context ctx;
  const auto id = ctx.register_format(native_format("p", fields, sizeof(P)));
  auto [wch, rch] = transport::make_loopback_pair();
  Writer w(ctx, *wch);
  for (int i = 0; i < 25; ++i) {
    P p{i, i * 0.5};
    ASSERT_TRUE(w.write(id, &p).is_ok());
  }
  Reader r(ctx, *rch);
  r.expect(id);
  std::vector<Message> out(40);
  auto n = r.next_batch(std::span(out));
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  ASSERT_EQ(n.value(), 25u) << "all queued frames should drain in one batch";
  for (int i = 0; i < 25; ++i) {
    auto v = out[i].view<P>();
    ASSERT_TRUE(v.is_ok()) << i;
    EXPECT_EQ(v.value()->id, i);
    EXPECT_EQ(v.value()->x, i * 0.5);
  }
}

TEST(NextBatch, EmptySpanIsANoOp) {
  Context ctx;
  auto [wch, rch] = transport::make_loopback_pair();
  Reader r(ctx, *rch);
  auto n = r.next_batch({});
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), 0u);
}

TEST(NextBatch, BitIdenticalToPerMessage_Heterogeneous) {
  // Same foreign-sender corpus through both receive shapes; every payload
  // byte and every decoded record byte must match exactly.
  const arch::StructSpec spec = mech_like_spec();
  const auto wire_fmt = arch::layout_format(spec, arch::abi_sparc_v8());
  constexpr int kMsgs = 30;

  auto run = [&](bool batched) {
    Context ctx;
    const auto native_id = register_mech_native(ctx);
    const auto wire_id = ctx.register_format(wire_fmt);
    auto [wch, rch] = transport::make_loopback_pair();
    Writer w(ctx, *wch);
    for (int i = 0; i < kMsgs; ++i) {
      const auto image = value::materialize(wire_fmt, mech_value(i));
      EXPECT_TRUE(w.write_image(wire_id, image).is_ok());
    }
    Reader r(ctx, *rch);
    r.expect(native_id);
    std::vector<Message> msgs;
    if (batched) {
      std::vector<Message> out(kMsgs + 8);
      auto n = r.next_batch(std::span(out));
      EXPECT_TRUE(n.is_ok()) << n.status().to_string();
      EXPECT_EQ(n.value(), static_cast<std::size_t>(kMsgs));
      for (std::size_t i = 0; i < n.value(); ++i) {
        msgs.push_back(std::move(out[i]));
      }
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        auto m = r.next();
        EXPECT_TRUE(m.is_ok());
        msgs.push_back(std::move(m).take());
      }
    }
    std::vector<std::vector<std::uint8_t>> images;
    for (auto& m : msgs) {
      images.emplace_back(m.payload().begin(), m.payload().end());
      std::vector<std::uint8_t> decoded(sizeof(Mech), 0);
      EXPECT_TRUE(m.decode_into(decoded.data(), decoded.size()).is_ok());
      images.push_back(std::move(decoded));
    }
    return images;
  };

  const auto per_message = run(false);
  const auto batch = run(true);
  ASSERT_EQ(per_message.size(), batch.size());
  for (std::size_t i = 0; i < per_message.size(); ++i) {
    EXPECT_EQ(per_message[i], batch[i]) << "corpus item " << i;
  }
}

TEST(NextBatch, BitIdenticalToPerMessage_Homogeneous) {
  constexpr int kMsgs = 20;
  auto run = [&](bool batched) {
    Context ctx;
    const auto id = register_mech_native(ctx);
    auto [wch, rch] = transport::make_loopback_pair();
    Writer w(ctx, *wch);
    for (int i = 0; i < kMsgs; ++i) {
      Mech rec{i, {1.0 * i, 2, 3, 4, 5, 6}, static_cast<std::int16_t>(-i)};
      EXPECT_TRUE(w.write(id, &rec).is_ok());
    }
    Reader r(ctx, *rch);
    r.expect(id);
    std::vector<std::vector<std::uint8_t>> images;
    std::vector<Message> out(kMsgs);
    if (batched) {
      auto n = r.next_batch(std::span(out));
      EXPECT_TRUE(n.is_ok());
      EXPECT_EQ(n.value(), static_cast<std::size_t>(kMsgs));
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        auto m = r.next();
        EXPECT_TRUE(m.is_ok());
        out[i] = std::move(m).take();
      }
    }
    for (auto& m : out) {
      EXPECT_TRUE(m.zero_copy()) << "homogeneous pair must stay zero-copy";
      images.emplace_back(m.payload().begin(), m.payload().end());
    }
    return images;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(NextBatch, BitIdenticalToPerMessage_TypeExtension) {
  // Wire carries (a, gone, b); receiver expects (a, b, added): 'gone' must
  // be ignored, 'added' zero-filled — identically on both paths.
  struct V1 {
    std::int32_t a;
    std::int32_t gone;
    double b;
  };
  struct V2 {
    std::int32_t a;
    double b;
    std::int64_t added;
  };
  const NativeField v1_fields[] = {
      PBIO_FIELD(V1, a, arch::CType::kInt),
      PBIO_FIELD(V1, gone, arch::CType::kInt),
      PBIO_FIELD(V1, b, arch::CType::kDouble),
  };
  const NativeField v2_fields[] = {
      PBIO_FIELD(V2, a, arch::CType::kInt),
      PBIO_FIELD(V2, b, arch::CType::kDouble),
      PBIO_FIELD(V2, added, arch::CType::kLong),
  };
  constexpr int kMsgs = 12;
  auto run = [&](bool batched) {
    Context ctx;
    const auto v1_id =
        ctx.register_format(native_format("evt", v1_fields, sizeof(V1)));
    const auto v2_id =
        ctx.register_format(native_format("evt", v2_fields, sizeof(V2)));
    auto [wch, rch] = transport::make_loopback_pair();
    Writer w(ctx, *wch);
    for (int i = 0; i < kMsgs; ++i) {
      V1 rec{i, 999, i + 0.125};
      EXPECT_TRUE(w.write(v1_id, &rec).is_ok());
    }
    Reader r(ctx, *rch);
    r.expect(v2_id);
    std::vector<Message> out(kMsgs);
    if (batched) {
      auto n = r.next_batch(std::span(out));
      EXPECT_TRUE(n.is_ok());
      EXPECT_EQ(n.value(), static_cast<std::size_t>(kMsgs));
    } else {
      for (int i = 0; i < kMsgs; ++i) {
        auto m = r.next();
        EXPECT_TRUE(m.is_ok());
        out[i] = std::move(m).take();
      }
    }
    std::vector<std::vector<std::uint8_t>> images;
    for (int i = 0; i < kMsgs; ++i) {
      auto v = out[i].view<V2>();
      EXPECT_TRUE(v.is_ok());
      EXPECT_EQ(v.value()->a, i);
      EXPECT_EQ(v.value()->b, i + 0.125);
      EXPECT_EQ(v.value()->added, 0);
      std::vector<std::uint8_t> bytes(sizeof(V2));
      std::memcpy(bytes.data(), v.value(), sizeof(V2));
      images.push_back(std::move(bytes));
      EXPECT_EQ(out[i].ignored_wire_fields().size(), 1u);
      EXPECT_EQ(out[i].missing_wire_fields().size(), 1u);
    }
    return images;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(NextBatch, MixedWireIdsAndAnnouncementsInOneBatch) {
  // Interleaved formats resolve from the reader's resolver table, each
  // wire id walking the context on its first frame only, and each
  // format's first message carries its in-band announcement (a format
  // frame consumed mid-batch).
  struct A {
    std::int32_t x;
  };
  struct B {
    double y;
  };
  const NativeField a_fields[] = {PBIO_FIELD(A, x, arch::CType::kInt)};
  const NativeField b_fields[] = {PBIO_FIELD(B, y, arch::CType::kDouble)};
  Context ctx;
  const auto a_id = ctx.register_format(native_format("A", a_fields,
                                                      sizeof(A)));
  const auto b_id = ctx.register_format(native_format("B", b_fields,
                                                      sizeof(B)));
  auto [wch, rch] = transport::make_loopback_pair();
  Writer w(ctx, *wch);
  constexpr int kMsgs = 30;
  for (int i = 0; i < kMsgs; ++i) {
    if (i % 3 == 0) {
      B b{i + 0.25};
      ASSERT_TRUE(w.write(b_id, &b).is_ok());
    } else {
      A a{i};
      ASSERT_TRUE(w.write(a_id, &a).is_ok());
    }
  }
  Reader r(ctx, *rch);
  r.expect(a_id);
  r.expect(b_id);
  std::vector<Message> out(kMsgs + 8);
  auto n = r.next_batch(std::span(out));
  ASSERT_TRUE(n.is_ok()) << n.status().to_string();
  ASSERT_EQ(n.value(), static_cast<std::size_t>(kMsgs))
      << "format frames must be consumed, not returned";
  for (int i = 0; i < kMsgs; ++i) {
    if (i % 3 == 0) {
      ASSERT_EQ(out[i].format_name(), "B") << i;
      EXPECT_EQ(out[i].view<B>().value()->y, i + 0.25);
    } else {
      ASSERT_EQ(out[i].format_name(), "A") << i;
      EXPECT_EQ(out[i].view<A>().value()->x, i);
    }
  }
  EXPECT_EQ(r.formats_learned(), 2u);
}

TEST(NextBatch, ErrorAfterDeliveredMessagesIsDeferred) {
  struct P {
    std::int32_t id;
  };
  const NativeField fields[] = {PBIO_FIELD(P, id, arch::CType::kInt)};
  Context ctx;
  const auto id = ctx.register_format(native_format("p", fields, sizeof(P)));
  auto [wch, rch] = transport::make_loopback_pair();
  Writer w(ctx, *wch);
  for (int i = 0; i < 5; ++i) {
    P p{i};
    ASSERT_TRUE(w.write(id, &p).is_ok());
  }
  wch->close();
  Reader r(ctx, *rch);
  r.expect(id);
  std::vector<Message> out(10);
  auto n = r.next_batch(std::span(out));
  ASSERT_TRUE(n.is_ok()) << "messages before the close must not be lost";
  EXPECT_EQ(n.value(), 5u);
  auto after = r.next();
  ASSERT_FALSE(after.is_ok());
  EXPECT_EQ(after.status().code(), Errc::kChannelClosed);
}

TEST(DecodeAll, HomogeneousArrayMessage) {
  struct R {
    double v[4];
  };
  const NativeField fields[] = {PBIO_ARRAY(R, v, arch::CType::kDouble, 4)};
  Context ctx;
  const auto id = ctx.register_format(native_format("vec", fields,
                                                    sizeof(R)));
  auto [wch, rch] = transport::make_loopback_pair();
  Writer w(ctx, *wch);
  constexpr std::uint32_t kRecords = 100;
  std::vector<R> sent(kRecords);
  for (std::uint32_t i = 0; i < kRecords; ++i) {
    sent[i] = {{i + 0.0, i + 0.5, -1.0 * i, 1e6 + i}};
  }
  ASSERT_TRUE(w.write_array(id, sent.data(), kRecords).is_ok());
  Reader r(ctx, *rch);
  r.expect(id);
  auto m = r.next();
  ASSERT_TRUE(m.is_ok());
  ASSERT_EQ(m.value().count(), kRecords);
  std::vector<R> got(kRecords);
  ASSERT_TRUE(m.value()
                  .decode_all(got.data(), sizeof(R), sizeof(R) * kRecords)
                  .is_ok());
  EXPECT_EQ(std::memcmp(got.data(), sent.data(), sizeof(R) * kRecords), 0);
}

TEST(DecodeAll, BatchedSwapKernelMatchesPerRecordDecode) {
  // Foreign (big-endian) all-double records: the plan is a single
  // whole-record swap op, so decode_all collapses the message into one
  // batched kernel dispatch. Results must equal per-record decode_at.
  struct R {
    double v[4];
  };
  arch::StructSpec spec;
  spec.name = "vec";
  spec.fields.push_back({"v", arch::CType::kDouble, 4, "", ""});
  const auto wire_fmt = arch::layout_format(spec, arch::abi_sparc_v8());
  ASSERT_EQ(wire_fmt.fixed_size, sizeof(R));

  const NativeField fields[] = {PBIO_ARRAY(R, v, arch::CType::kDouble, 4)};
  Context ctx;
  const auto native_id = ctx.register_format(native_format("vec", fields,
                                                           sizeof(R)));
  const auto wire_id = ctx.register_format(wire_fmt);

  constexpr std::size_t kRecords = 64;
  std::vector<std::uint8_t> image;
  for (std::size_t i = 0; i < kRecords; ++i) {
    value::Record rec;
    value::Value::List vals;
    for (int j = 0; j < 4; ++j) vals.push_back(1e-3 * i + j * 0.125);
    rec.set("v", std::move(vals));
    const auto one = value::materialize(wire_fmt, rec);
    image.insert(image.end(), one.begin(), one.end());
  }

  auto [wch, rch] = transport::make_loopback_pair();
  Writer w(ctx, *wch);
  ASSERT_TRUE(w.write_image(wire_id, image).is_ok());
  Reader r(ctx, *rch);
  r.expect(native_id);
  auto m = r.next();
  ASSERT_TRUE(m.is_ok());
  ASSERT_EQ(m.value().count(), kRecords);
  ASSERT_FALSE(m.value().zero_copy());

  std::vector<R> batched(kRecords);
  ASSERT_TRUE(m.value()
                  .decode_all(batched.data(), sizeof(R), sizeof(R) * kRecords)
                  .is_ok());
  std::vector<R> single(kRecords);
  for (std::size_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(m.value().decode_at(i, &single[i], sizeof(R)).is_ok());
  }
  EXPECT_EQ(std::memcmp(batched.data(), single.data(),
                        sizeof(R) * kRecords),
            0);
}

TEST(DecodeAll, MultiOpPlanFallsBackPerRecord) {
  // Mixed int/double records need a multi-op plan; decode_all must take
  // the per-record fallback and still match decode_at.
  struct R {
    std::int32_t a;
    double b;
  };
  arch::StructSpec spec;
  spec.name = "mix";
  spec.fields.push_back({"a", arch::CType::kInt, 1, "", ""});
  spec.fields.push_back({"b", arch::CType::kDouble, 1, "", ""});
  const auto wire_fmt = arch::layout_format(spec, arch::abi_sparc_v8());

  const NativeField fields[] = {
      PBIO_FIELD(R, a, arch::CType::kInt),
      PBIO_FIELD(R, b, arch::CType::kDouble),
  };
  Context ctx;
  const auto native_id = ctx.register_format(native_format("mix", fields,
                                                           sizeof(R)));
  const auto wire_id = ctx.register_format(wire_fmt);

  constexpr std::size_t kRecords = 20;
  std::vector<std::uint8_t> image;
  for (std::size_t i = 0; i < kRecords; ++i) {
    value::Record rec;
    rec.set("a", static_cast<int>(i * 3));
    rec.set("b", i - 0.5);
    const auto one = value::materialize(wire_fmt, rec);
    image.insert(image.end(), one.begin(), one.end());
  }

  auto [wch, rch] = transport::make_loopback_pair();
  Writer w(ctx, *wch);
  ASSERT_TRUE(w.write_image(wire_id, image).is_ok());
  Reader r(ctx, *rch);
  r.expect(native_id);
  auto m = r.next();
  ASSERT_TRUE(m.is_ok());
  ASSERT_EQ(m.value().count(), kRecords);

  // R has padding after `a` that decode leaves untouched, so the byte
  // comparison below is only meaningful if both buffers start identical —
  // vector value-init does not reliably zero padding bytes.
  std::vector<R> all(kRecords);
  std::memset(all.data(), 0, sizeof(R) * kRecords);
  ASSERT_TRUE(m.value()
                  .decode_all(all.data(), sizeof(R), sizeof(R) * kRecords)
                  .is_ok());
  for (std::size_t i = 0; i < kRecords; ++i) {
    R one;
    std::memset(&one, 0, sizeof(R));
    ASSERT_TRUE(m.value().decode_at(i, &one, sizeof(R)).is_ok());
    EXPECT_EQ(std::memcmp(&all[i], &one, sizeof(R)), 0) << i;
    EXPECT_EQ(one.a, static_cast<std::int32_t>(i * 3));
    EXPECT_EQ(one.b, i - 0.5);
  }
}

TEST(DecodeAll, RejectsUndersizedOutput) {
  struct R {
    double v[4];
  };
  const NativeField fields[] = {PBIO_ARRAY(R, v, arch::CType::kDouble, 4)};
  Context ctx;
  const auto id = ctx.register_format(native_format("vec", fields,
                                                    sizeof(R)));
  auto [wch, rch] = transport::make_loopback_pair();
  Writer w(ctx, *wch);
  std::vector<R> sent(10);
  ASSERT_TRUE(w.write_array(id, sent.data(), 10).is_ok());
  Reader r(ctx, *rch);
  r.expect(id);
  auto m = r.next();
  ASSERT_TRUE(m.is_ok());
  std::vector<R> out(9);
  Status st = m.value().decode_all(out.data(), sizeof(R), sizeof(R) * 9);
  EXPECT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::kTruncated);
}

}  // namespace
}  // namespace pbio
