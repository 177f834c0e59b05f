// End-to-end tests of the public PBIO API over the loopback transport.
#include "pbio/pbio.h"

#include <gtest/gtest.h>

#include <thread>

#include "transport/socket.h"
#include "value/materialize.h"
#include "value/random.h"

namespace pbio {
namespace {

struct Particle {
  int id;
  double mass;
  float vel[3];
  char tag[8];
};

const NativeField kParticleFields[] = {
    PBIO_FIELD(Particle, id, arch::CType::kInt),
    PBIO_FIELD(Particle, mass, arch::CType::kDouble),
    PBIO_ARRAY(Particle, vel, arch::CType::kFloat, 3),
    PBIO_ARRAY(Particle, tag, arch::CType::kChar, 8),
};

Context::FormatId register_particle(Context& ctx) {
  return ctx.register_format(
      native_format("particle", kParticleFields, sizeof(Particle)));
}

TEST(PbioApi, HomogeneousRoundTripIsZeroCopy) {
  Context ctx;
  auto [wch, rch] = transport::make_loopback_pair();
  const auto id = register_particle(ctx);
  Writer w(ctx, *wch);
  Reader r(ctx, *rch);
  r.expect(id);

  Particle p{42, 6.25, {1.f, 2.f, 3.f}, "ion"};
  ASSERT_TRUE(w.write(id, &p).is_ok());

  auto msg = r.next();
  ASSERT_TRUE(msg.is_ok()) << msg.status().to_string();
  EXPECT_EQ(msg.value().format_name(), "particle");
  EXPECT_TRUE(msg.value().zero_copy());
  auto view = msg.value().view<Particle>();
  ASSERT_TRUE(view.is_ok());
  const Particle* got = view.value();
  EXPECT_EQ(got->id, 42);
  EXPECT_EQ(got->mass, 6.25);
  EXPECT_EQ(got->vel[2], 3.f);
  EXPECT_STREQ(got->tag, "ion");
  // Zero-copy means the view aims inside the message payload.
  EXPECT_EQ(reinterpret_cast<const std::uint8_t*>(got),
            msg.value().payload().data());
}

TEST(PbioApi, FormatAnnouncedExactlyOnce) {
  Context ctx;
  auto [wch, rch] = transport::make_loopback_pair();
  const auto id = register_particle(ctx);
  Writer w(ctx, *wch);
  Particle p{};
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(w.write(id, &p).is_ok());
  // 1 announce + 5 data frames.
  EXPECT_EQ(rch->pending(), 6u);
  Reader r(ctx, *rch);
  r.expect(id);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(r.next().is_ok());
  }
  EXPECT_EQ(r.formats_learned(), 1u);
}

TEST(PbioApi, InterleavedFormatsAnnouncedOncePerWriter) {
  // Each id's announcement leaves with its first write only, whatever ids
  // come between; an explicit announce() of a sent id sends nothing, and a
  // second Writer announces on its own channel.
  Context ctx;
  auto [wch, rch] = transport::make_loopback_pair();
  const auto a = register_particle(ctx);
  const auto b = ctx.register_format(
      native_format("mote", kParticleFields, sizeof(Particle)));
  Writer w(ctx, *wch);
  Particle p{};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(w.write(a, &p).is_ok());
    ASSERT_TRUE(w.write(b, &p).is_ok());
  }
  ASSERT_TRUE(w.announce(a).is_ok());
  EXPECT_EQ(rch->pending(), 2u + 6u);
  Reader r(ctx, *rch);
  r.expect(a);
  r.expect(b);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(r.next().is_ok());
  EXPECT_EQ(r.formats_learned(), 2u);

  auto [wch2, rch2] = transport::make_loopback_pair();
  Writer w2(ctx, *wch2);
  ASSERT_TRUE(w2.write(a, &p).is_ok());
  EXPECT_EQ(rch2->pending(), 2u);
}

TEST(PbioApi, WriteToUnregisteredIdFailsUntilRegistered) {
  // A failed lookup is not kept: once the format is registered, the next
  // write of its id succeeds and carries its announcement.
  Context ctx;
  auto [wch, rch] = transport::make_loopback_pair();
  const fmt::FormatDesc f =
      native_format("particle", kParticleFields, sizeof(Particle));
  const Context::FormatId id = f.fingerprint();
  Writer w(ctx, *wch);
  Particle p{7, 1.5, {}, "late"};
  const std::span<const std::uint8_t> image(
      reinterpret_cast<const std::uint8_t*>(&p), sizeof(p));
  EXPECT_EQ(w.write(id, &p).code(), Errc::kUnknownFormat);
  EXPECT_EQ(w.write_image(id, image).code(), Errc::kUnknownFormat);
  EXPECT_EQ(w.write_array(id, &p, 1).code(), Errc::kUnknownFormat);
  EXPECT_EQ(w.announce(id).code(), Errc::kUnknownFormat);
  EXPECT_EQ(rch->pending(), 0u);

  ASSERT_EQ(ctx.register_format(f), id);
  ASSERT_TRUE(w.write(id, &p).is_ok());
  EXPECT_EQ(rch->pending(), 2u);
  Reader r(ctx, *rch);
  r.expect(id);
  auto msg = r.next();
  ASSERT_TRUE(msg.is_ok()) << msg.status().to_string();
  auto view = msg.value().view<Particle>();
  ASSERT_TRUE(view.is_ok());
  EXPECT_EQ(view.value()->id, 7);
}

TEST(PbioApi, HeterogeneousSenderConvertsOnReceive) {
  // A simulated sparc-v8 sender: big-endian, 4-byte longs. The receiver
  // decodes into the host struct via the DCG conversion.
  Context ctx;
  auto [wch, rch] = transport::make_loopback_pair();

  arch::StructSpec spec;
  spec.name = "particle";
  spec.fields = {
      {.name = "id", .type = arch::CType::kInt},
      {.name = "mass", .type = arch::CType::kDouble},
      {.name = "vel", .type = arch::CType::kFloat, .array_elems = 3},
      {.name = "tag", .type = arch::CType::kChar, .array_elems = 8},
  };
  const auto sparc_fmt = arch::layout_format(spec, arch::abi_sparc_v8());
  const auto sparc_id = ctx.register_format(sparc_fmt);
  const auto native_id = register_particle(ctx);

  value::Record rec;
  rec.set("id", value::Value(-7));
  rec.set("mass", value::Value(0.5));
  rec.set("vel", value::Value(value::Value::List{value::Value(9.0),
                                                 value::Value(8.0),
                                                 value::Value(7.0)}));
  rec.set("tag", value::Value("BE"));
  const auto image = value::materialize(sparc_fmt, rec);

  Writer w(ctx, *wch);
  ASSERT_TRUE(w.write_image(sparc_id, image).is_ok());

  Reader r(ctx, *rch);
  r.expect(native_id);
  auto msg = r.next();
  ASSERT_TRUE(msg.is_ok()) << msg.status().to_string();
  EXPECT_FALSE(msg.value().zero_copy());
  EXPECT_EQ(msg.value().wire_format().byte_order, ByteOrder::kBig);
  Particle out{};
  ASSERT_TRUE(msg.value().decode_into(&out, sizeof(out)).is_ok());
  EXPECT_EQ(out.id, -7);
  EXPECT_EQ(out.mass, 0.5);
  EXPECT_EQ(out.vel[0], 9.f);
  EXPECT_STREQ(out.tag, "BE");
}

TEST(PbioApi, InterpretedAndDcgEnginesAgree) {
  Context ctx;
  arch::StructSpec spec;
  spec.name = "particle";
  spec.fields = {
      {.name = "id", .type = arch::CType::kInt},
      {.name = "mass", .type = arch::CType::kDouble},
      {.name = "vel", .type = arch::CType::kFloat, .array_elems = 3},
      {.name = "tag", .type = arch::CType::kChar, .array_elems = 8},
  };
  const auto mips_fmt = arch::layout_format(spec, arch::abi_mips_be());
  const auto mips_id = ctx.register_format(mips_fmt);
  const auto native_id = register_particle(ctx);

  value::Record rec;
  rec.set("id", value::Value(123));
  rec.set("mass", value::Value(-2.25));
  rec.set("tag", value::Value("mips"));
  const auto image = value::materialize(mips_fmt, rec);

  // try_conversion compiles eagerly: on x86-64 the conversion carries
  // generated code, which must agree with its plan on the interpreter.
  auto conv = ctx.try_conversion(mips_id, native_id);
  ASSERT_TRUE(conv.is_ok());
#if defined(__x86_64__)
  ASSERT_TRUE(conv.value()->jitted());
#endif
  Particle a{}, b{};
  convert::ExecInput in;
  in.src = image.data();
  in.src_size = image.size();
  in.dst = reinterpret_cast<std::uint8_t*>(&a);
  in.dst_size = sizeof(a);
  ASSERT_TRUE(conv.value()->run(in).is_ok());
  in.dst = reinterpret_cast<std::uint8_t*>(&b);
  ASSERT_TRUE(convert::run_plan(conv.value()->plan(), in).is_ok());
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(a)), 0);
  EXPECT_EQ(a.id, 123);
  EXPECT_EQ(a.mass, -2.25);
  EXPECT_STREQ(a.tag, "mips");
}

TEST(PbioApi, ReflectionOnUnknownFormat) {
  // A generic receiver with no expected formats can still inspect records —
  // the paper's "generic components operate upon data about which they have
  // no a priori knowledge".
  Context ctx;
  auto [wch, rch] = transport::make_loopback_pair();
  const auto id = register_particle(ctx);
  Writer w(ctx, *wch);
  Particle p{1, 2.5, {0.f, 0.f, 1.5f}, "mon"};
  ASSERT_TRUE(w.write(id, &p).is_ok());

  Reader r(ctx, *rch);  // no expect()
  auto msg = r.next();
  ASSERT_TRUE(msg.is_ok());
  EXPECT_FALSE(msg.value().has_native());
  EXPECT_FALSE(msg.value().view<Particle>().is_ok());
  auto rec = msg.value().reflect();
  ASSERT_TRUE(rec.is_ok());
  EXPECT_EQ(rec.value().find("id")->as_int(), 1);
  EXPECT_EQ(rec.value().find("mass")->as_double(), 2.5);
  EXPECT_EQ(rec.value().find("tag")->as_string(), "mon");
}

TEST(PbioApi, TypeExtensionNewFieldIgnored) {
  // v2 sender adds a field; v1 receiver keeps working untouched.
  Context ctx;
  auto [wch, rch] = transport::make_loopback_pair();
  struct ParticleV2 {
    int id;
    double mass;
    float vel[3];
    char tag[8];
    double charge;  // new
  };
  const NativeField v2_fields[] = {
      PBIO_FIELD(ParticleV2, id, arch::CType::kInt),
      PBIO_FIELD(ParticleV2, mass, arch::CType::kDouble),
      PBIO_ARRAY(ParticleV2, vel, arch::CType::kFloat, 3),
      PBIO_ARRAY(ParticleV2, tag, arch::CType::kChar, 8),
      PBIO_FIELD(ParticleV2, charge, arch::CType::kDouble),
  };
  const auto v2_id = ctx.register_format(
      native_format("particle", v2_fields, sizeof(ParticleV2)));
  const auto v1_id = register_particle(ctx);

  Writer w(ctx, *wch);
  ParticleV2 p{9, 1.5, {1.f, 1.f, 1.f}, "new", -1.0};
  ASSERT_TRUE(w.write(v2_id, &p).is_ok());

  Reader r(ctx, *rch);
  r.expect(v1_id);
  auto msg = r.next();
  ASSERT_TRUE(msg.is_ok());
  auto view = msg.value().view<Particle>();
  ASSERT_TRUE(view.is_ok()) << view.status().to_string();
  EXPECT_EQ(view.value()->id, 9);
  EXPECT_EQ(view.value()->mass, 1.5);
  // Appended extension keeps the v1 prefix layout intact -> zero copy.
  EXPECT_TRUE(msg.value().zero_copy());
  // The reflection view still exposes the new field.
  auto rec = msg.value().reflect();
  ASSERT_TRUE(rec.is_ok());
  EXPECT_EQ(rec.value().find("charge")->as_double(), -1.0);
}

TEST(PbioApi, EvolutionDiagnosticsOnMessage) {
  // v2 sender with an extra field, v1 receiver missing a different field:
  // the message reports both sides of the mismatch.
  Context ctx;
  auto [wch, rch] = transport::make_loopback_pair();
  struct SenderV2 {
    int id;
    double mass;
    double charge;  // unknown to the receiver
  };
  struct ReceiverV1 {
    int id;
    double mass;
    float spin;  // not on the wire
  };
  const NativeField send_fields[] = {
      PBIO_FIELD(SenderV2, id, arch::CType::kInt),
      PBIO_FIELD(SenderV2, mass, arch::CType::kDouble),
      PBIO_FIELD(SenderV2, charge, arch::CType::kDouble),
  };
  const NativeField recv_fields[] = {
      PBIO_FIELD(ReceiverV1, id, arch::CType::kInt),
      PBIO_FIELD(ReceiverV1, mass, arch::CType::kDouble),
      PBIO_FIELD(ReceiverV1, spin, arch::CType::kFloat),
  };
  const auto send_id = ctx.register_format(
      native_format("particle", send_fields, sizeof(SenderV2)));
  const auto recv_id = ctx.register_format(
      native_format("particle", recv_fields, sizeof(ReceiverV1)));

  Writer w(ctx, *wch);
  SenderV2 p{1, 2.0, -1.0};
  ASSERT_TRUE(w.write(send_id, &p).is_ok());
  Reader r(ctx, *rch);
  r.expect(recv_id);
  auto msg = r.next();
  ASSERT_TRUE(msg.is_ok());
  ASSERT_EQ(msg.value().ignored_wire_fields().size(), 1u);
  EXPECT_EQ(msg.value().ignored_wire_fields()[0], "charge");
  ASSERT_EQ(msg.value().missing_wire_fields().size(), 1u);
  EXPECT_EQ(msg.value().missing_wire_fields()[0], "spin");
  ReceiverV1 out{};
  ASSERT_TRUE(msg.value().decode_into(&out, sizeof(out)).is_ok());
  EXPECT_EQ(out.id, 1);
  EXPECT_EQ(out.mass, 2.0);
  EXPECT_EQ(out.spin, 0.f);
}

TEST(PbioApi, StringsAndVarArraysOverChannel) {
  struct Event {
    unsigned n;
    char* name;
    double* samples;
  };
  const NativeField event_fields[] = {
      PBIO_FIELD(Event, n, arch::CType::kUInt),
      PBIO_STRING(Event, name),
      PBIO_VARARRAY(Event, samples, arch::CType::kDouble, "n"),
  };
  Context ctx;
  auto [wch, rch] = transport::make_loopback_pair();
  const auto id = ctx.register_format(
      native_format("event", event_fields, sizeof(Event)));
  Writer w(ctx, *wch);
  double samples[] = {1.5, 2.5, 3.5};
  char name[] = "temperature";
  Event e{3, name, samples};
  ASSERT_TRUE(w.write(id, &e).is_ok());

  Reader r(ctx, *rch);
  r.expect(id);
  auto msg = r.next();
  ASSERT_TRUE(msg.is_ok());
  auto view = msg.value().view<Event>();
  ASSERT_TRUE(view.is_ok()) << view.status().to_string();
  const Event* got = view.value();
  EXPECT_EQ(got->n, 3u);
  EXPECT_STREQ(got->name, "temperature");
  EXPECT_EQ(got->samples[0], 1.5);
  EXPECT_EQ(got->samples[2], 3.5);
}

TEST(PbioApi, UnannouncedFormatIdFails) {
  Context ctx;
  auto [wch, rch] = transport::make_loopback_pair();
  std::uint8_t frame[kDataHeaderSize] = {};
  frame[0] = kFrameData;
  store_uint(frame + kDataHeaderIdOffset, 0xDEADBEEF, 8, ByteOrder::kLittle);
  ASSERT_TRUE(
      wch->send(std::span<const std::uint8_t>(frame, kDataHeaderSize))
          .is_ok());
  Reader r(ctx, *rch);
  auto msg = r.next();
  EXPECT_FALSE(msg.is_ok());
  EXPECT_EQ(msg.status().code(), Errc::kUnknownFormat);
}

TEST(PbioApi, WorksOverRealSockets) {
  Context ctx;
  transport::SocketListener listener;
  const auto id = register_particle(ctx);

  std::thread sender([&ctx, id, port = listener.port()] {
    auto ch = transport::socket_connect(port);
    ASSERT_TRUE(ch.is_ok());
    Writer w(ctx, *ch.value());
    for (int i = 0; i < 100; ++i) {
      Particle p{i, i * 0.5, {0, 0, 0}, "sock"};
      ASSERT_TRUE(w.write(id, &p).is_ok());
    }
  });

  auto ch = listener.accept();
  ASSERT_TRUE(ch.is_ok());
  Reader r(ctx, *ch.value());
  r.expect(id);
  for (int i = 0; i < 100; ++i) {
    auto msg = r.next();
    ASSERT_TRUE(msg.is_ok()) << msg.status().to_string();
    auto view = msg.value().view<Particle>();
    ASSERT_TRUE(view.is_ok());
    EXPECT_EQ(view.value()->id, i);
  }
  sender.join();
}

TEST(PbioApi, ConversionCacheHitsAcrossMessages) {
  Context ctx;
  auto [wch, rch] = transport::make_loopback_pair();
  const auto id = register_particle(ctx);
  Writer w(ctx, *wch);
  Reader r(ctx, *rch);
  r.expect(id);
  Particle p{};
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(w.write(id, &p).is_ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(r.next().is_ok());
  // Ten messages, one compile: the reader's resolver table absorbs the
  // repeats without even re-querying the context.
  const auto stats = ctx.stats();
  EXPECT_EQ(stats.conversions_compiled, 1u);
  // A fresh resolution of the same pair hits the artifact cache
  // instead of recompiling.
  ASSERT_TRUE(ctx.try_conversion(id, id).is_ok());
  const auto stats2 = ctx.stats();
  EXPECT_EQ(stats2.conversions_compiled, 1u);
  EXPECT_GE(stats2.conversion_cache_hits, 1u);
}

TEST(PbioApi, FirstWriteCoalescesAnnouncementIntoOneSyscall) {
  // A format's first message carries its announcement: format frame and
  // data frame must leave in a single gathered writev, and later messages
  // in one each.
  transport::SocketListener listener;
  Context ctx;
  const auto id = register_particle(ctx);
  std::thread server_thread([&listener, &ctx, id] {
    auto server = listener.accept();
    ASSERT_TRUE(server.is_ok());
    Reader r(ctx, *server.value());
    r.expect(id);
    for (int i = 0; i < 3; ++i) {
      auto msg = r.next();
      ASSERT_TRUE(msg.is_ok()) << msg.status().to_string();
      EXPECT_EQ(msg.value().view<Particle>().value()->id, i);
    }
  });
  auto client = transport::socket_connect(listener.port());
  ASSERT_TRUE(client.is_ok());
  // The server only receives, so every send call is the client's.
  const transport::SocketCounters calls = transport::socket_counters();
  const std::uint64_t sends0 = calls.block->get(calls.send);
  Writer w(ctx, *client.value());
  Particle p{};
  p.id = 0;
  ASSERT_TRUE(w.write(id, &p).is_ok());
  EXPECT_EQ(calls.block->get(calls.send) - sends0, 1u)
      << "announcement + first data frame should share one writev";
  p.id = 1;
  ASSERT_TRUE(w.write(id, &p).is_ok());
  p.id = 2;
  ASSERT_TRUE(w.write(id, &p).is_ok());
  EXPECT_EQ(calls.block->get(calls.send) - sends0, 3u);
  server_thread.join();
}

}  // namespace
}  // namespace pbio
