#include "pbio/format_service.h"

#include <gtest/gtest.h>

#include <thread>

#include "collision_pair.h"
#include "fmt/meta.h"
#include "obs/obs.h"
#include "pbio/pbio.h"
#include "util/endian.h"
#include "value/materialize.h"

namespace pbio {
namespace {

struct Sample {
  int a;
  double b;
};

fmt::FormatDesc sample_format() {
  const NativeField fields[] = {
      PBIO_FIELD(Sample, a, arch::CType::kInt),
      PBIO_FIELD(Sample, b, arch::CType::kDouble),
  };
  return native_format("sample", fields, sizeof(Sample));
}

TEST(FormatService, PublishThenLookup) {
  Context service_ctx;
  FormatServiceServer server(service_ctx);
  auto [server_ch, client_ch] = transport::make_loopback_pair();
  std::thread service([&] { server.serve_until_closed(*server_ch); });

  FormatServiceClient client(*client_ch);
  const auto f = sample_format();
  auto id = client.publish(f);
  ASSERT_TRUE(id.is_ok()) << id.status().to_string();
  EXPECT_EQ(id.value(), f.fingerprint());

  auto fetched = client.lookup(id.value());
  ASSERT_TRUE(fetched.is_ok());
  EXPECT_EQ(fetched.value(), f);

  client_ch->close();
  service.join();
  EXPECT_EQ(server.requests_served(), 2u);
}

TEST(FormatService, LookupMissReportsUnknownFormat) {
  Context service_ctx;
  FormatServiceServer server(service_ctx);
  auto [server_ch, client_ch] = transport::make_loopback_pair();
  std::thread service([&] { server.serve_until_closed(*server_ch); });
  FormatServiceClient client(*client_ch);
  auto fetched = client.lookup(0xDEADBEEF);
  EXPECT_EQ(fetched.status().code(), Errc::kUnknownFormat);
  client_ch->close();
  service.join();
}

TEST(FormatService, LateJoinerResolvesUnannouncedFormats) {
  // The paper's "join ongoing communications" scenario: a writer that
  // publishes its format only to the service; a reader that connects after
  // the announcement would have passed, and resolves the id on demand.
  Context service_ctx;
  FormatServiceServer server(service_ctx);
  auto [svc_server_ch, svc_client_ch] = transport::make_loopback_pair();
  std::thread service([&] { server.serve_until_closed(*svc_server_ch); });

  // Writer side: a *foreign* (sparc) sender whose wire format therefore
  // differs from the reader's native one. It publishes to the service and
  // suppresses in-band announcements.
  Context writer_ctx;
  arch::StructSpec spec;
  spec.name = "sample";
  spec.fields = {{.name = "a", .type = arch::CType::kInt},
                 {.name = "b", .type = arch::CType::kDouble}};
  const auto f = arch::layout_format(spec, arch::abi_sparc_v8());
  const auto id = writer_ctx.register_format(f);
  FormatServiceClient client(*svc_client_ch);
  ASSERT_TRUE(client.publish(f).is_ok());

  auto [data_w, data_r] = transport::make_loopback_pair();
  Writer w(writer_ctx, *data_w);
  w.set_announce_in_band(false);
  value::Record rec;
  rec.set("a", value::Value(5));
  rec.set("b", value::Value(2.5));
  const auto image = value::materialize(f, rec);
  ASSERT_TRUE(w.write_image(id, image).is_ok());
  // Only the data frame went out — no announcement.
  ASSERT_EQ(data_r->pending(), 1u);

  // Reader side: fresh context, resolver against the service.
  Context reader_ctx;
  const auto native_id = reader_ctx.register_format(sample_format());
  Reader r(reader_ctx, *data_r);
  r.expect(native_id);
  r.set_format_resolver(client.resolver());

  auto msg = r.next();
  ASSERT_TRUE(msg.is_ok()) << msg.status().to_string();
  Sample out{};
  ASSERT_TRUE(msg.value().decode_into(&out, sizeof(out)).is_ok());
  EXPECT_EQ(out.a, 5);
  EXPECT_EQ(out.b, 2.5);
  EXPECT_EQ(r.formats_learned(), 1u);

  svc_client_ch->close();
  service.join();
}

TEST(FormatService, WithoutResolverUnannouncedStillFails) {
  Context writer_ctx;
  const auto id = writer_ctx.register_format(sample_format());
  auto [data_w, data_r] = transport::make_loopback_pair();
  Writer w(writer_ctx, *data_w);
  w.set_announce_in_band(false);
  Sample s{1, 1.0};
  ASSERT_TRUE(w.write(id, &s).is_ok());

  Context reader_ctx;
  Reader r(reader_ctx, *data_r);
  EXPECT_EQ(r.next().status().code(), Errc::kUnknownFormat);
}

TEST(FormatService, ResolverReturningWrongFormatIsRejected) {
  Context writer_ctx;
  const auto id = writer_ctx.register_format(sample_format());
  auto [data_w, data_r] = transport::make_loopback_pair();
  Writer w(writer_ctx, *data_w);
  w.set_announce_in_band(false);
  Sample s{1, 1.0};
  ASSERT_TRUE(w.write(id, &s).is_ok());

  Context reader_ctx;
  Reader r(reader_ctx, *data_r);
  r.set_format_resolver([](Context::FormatId) -> Result<fmt::FormatDesc> {
    // A lying resolver: returns a format whose content hash can't match
    // the requested id.
    fmt::FormatDesc wrong;
    wrong.name = "wrong";
    wrong.fixed_size = 4;
    wrong.fields = {{.name = "x", .base = fmt::BaseType::kInt,
                     .elem_size = 4, .offset = 0, .slot_size = 4}};
    return wrong;
  });
  EXPECT_EQ(r.next().status().code(), Errc::kUnknownFormat);
}

TEST(FormatServiceHandle, RegisterThenLookupRoundTrip) {
  // The event-driven entry point the broker uses: frame in, reply out, no
  // channel involved.
  Context ctx;
  FormatServiceServer server(ctx);
  const auto f = sample_format();
  ByteBuffer req(256);
  req.append_uint(kSvcRegister, 1, ByteOrder::kLittle);
  const auto meta = fmt::encode_meta(f);
  req.append(meta.data(), meta.size());
  ByteBuffer reply(256);
  ASSERT_TRUE(server.handle(req.view(), reply).is_ok());
  ASSERT_GE(reply.size(), 9u);
  EXPECT_EQ(reply.view()[0], kSvcRegistered);
  EXPECT_EQ(load_uint(reply.data() + 1, 8, ByteOrder::kLittle),
            f.fingerprint());

  req.clear();
  req.append_uint(kSvcLookup, 1, ByteOrder::kLittle);
  req.append_uint(f.fingerprint(), 8, ByteOrder::kLittle);
  ASSERT_TRUE(server.handle(req.view(), reply).is_ok());
  ASSERT_GE(reply.size(), 2u);
  EXPECT_EQ(reply.view()[0], kSvcFound);
  auto fetched = fmt::decode_meta(reply.view().subspan(1));
  ASSERT_TRUE(fetched.is_ok());
  EXPECT_EQ(fetched.value(), f);
  EXPECT_EQ(server.requests_served(), 2u);
}

TEST(FormatServiceHandle, MissAndMalformedRequests) {
  Context ctx;
  FormatServiceServer server(ctx);
  ByteBuffer req(64);
  ByteBuffer reply(64);
  // Unknown id: a miss is a successful reply, not an error.
  req.append_uint(kSvcLookup, 1, ByteOrder::kLittle);
  req.append_uint(0xDEADBEEF, 8, ByteOrder::kLittle);
  ASSERT_TRUE(server.handle(req.view(), reply).is_ok());
  ASSERT_EQ(reply.size(), 1u);
  EXPECT_EQ(reply.view()[0], kSvcMiss);
  // Malformed requests fail without producing a reply frame.
  EXPECT_EQ(server.handle({}, reply).code(), Errc::kMalformed);
  const std::uint8_t junk[] = {0x77, 1, 2};
  EXPECT_EQ(server.handle(junk, reply).code(), Errc::kMalformed);
  const std::uint8_t truncated[] = {kSvcLookup, 1, 2};
  EXPECT_EQ(server.handle(truncated, reply).code(), Errc::kTruncated);
  // The server is still healthy afterwards.
  req.clear();
  req.append_uint(kSvcRegister, 1, ByteOrder::kLittle);
  const auto meta = fmt::encode_meta(sample_format());
  req.append(meta.data(), meta.size());
  EXPECT_TRUE(server.handle(req.view(), reply).is_ok());
}

TEST(FormatServiceHandle, RequestCountIsTheObsSeries) {
  // requests_served() and pbio.svc.requests read one counter: two servers'
  // requests (malformed ones included, the empty one not) move the
  // series by the sum of their views.
  const auto series = [] {
    const obs::Snapshot snap = obs::snapshot();
    const obs::CounterSample* c = snap.find_counter("pbio.svc.requests");
    return c == nullptr ? std::uint64_t{0} : c->value;
  };
  const std::uint64_t before = series();
  Context ctx;
  FormatServiceServer one(ctx);
  FormatServiceServer two(ctx);
  ByteBuffer req(16);
  ByteBuffer reply(64);
  req.append_uint(kSvcLookup, 1, ByteOrder::kLittle);
  req.append_uint(0xDEADBEEF, 8, ByteOrder::kLittle);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(one.handle(req.view(), reply).is_ok());
  }
  const std::uint8_t junk[] = {0x77};
  EXPECT_FALSE(two.handle(junk, reply).is_ok());
  EXPECT_FALSE(two.handle({}, reply).is_ok());
  EXPECT_EQ(one.requests_served(), 3u);
  EXPECT_EQ(two.requests_served(), 1u);
  ASSERT_NE(obs::snapshot().find_counter("pbio.svc.requests"), nullptr);
  EXPECT_EQ(series() - before, 4u);
}

TEST(FormatServiceHandle, CollidingRegistrationIsRejected) {
  Context ctx;
  FormatServiceServer server(ctx);
  const fmt::FormatDesc a = colliding_format(0);
  const fmt::FormatDesc b = colliding_format(1);
  const auto register_request = [](const fmt::FormatDesc& f) {
    ByteBuffer req(64);
    req.append_uint(kSvcRegister, 1, ByteOrder::kLittle);
    fmt::encode_meta(f, req);
    return req;
  };
  ByteBuffer reply(64);
  ASSERT_TRUE(server.handle(register_request(a).view(), reply).is_ok());
  ASSERT_EQ(reply.size(), 9u);
  const std::uint64_t id =
      load_uint(reply.data() + 1, 8, ByteOrder::kLittle);
  EXPECT_EQ(id, a.fingerprint());

  Status st;
  ASSERT_NO_THROW(st = server.handle(register_request(b).view(), reply));
  EXPECT_EQ(st.code(), Errc::kMalformed);
  EXPECT_EQ(reply.size(), 0u);

  // The id still names the first registration.
  ByteBuffer lookup(16);
  lookup.append_uint(kSvcLookup, 1, ByteOrder::kLittle);
  lookup.append_uint(id, 8, ByteOrder::kLittle);
  ASSERT_TRUE(server.handle(lookup.view(), reply).is_ok());
  ASSERT_EQ(reply.view()[0], kSvcFound);
  auto found = fmt::decode_meta(reply.view().subspan(1));
  ASSERT_TRUE(found.is_ok());
  EXPECT_EQ(found.value(), a);
}

TEST(FormatService, ServerSurvivesMalformedRequests) {
  Context service_ctx;
  FormatServiceServer server(service_ctx);
  auto [server_ch, client_ch] = transport::make_loopback_pair();
  std::thread service([&] { server.serve_until_closed(*server_ch); });
  // Garbage request kinds and truncated lookups must not kill the server.
  const std::uint8_t junk1[] = {0x77, 1, 2};
  const std::uint8_t junk2[] = {kSvcLookup, 1};  // truncated id
  ASSERT_TRUE(client_ch->send(junk1).is_ok());
  ASSERT_TRUE(client_ch->send(junk2).is_ok());
  // A legitimate request still works afterwards.
  FormatServiceClient client(*client_ch);
  auto id = client.publish(sample_format());
  EXPECT_TRUE(id.is_ok());
  client_ch->close();
  service.join();
}

}  // namespace
}  // namespace pbio
