// Failure injection and adversarial-input robustness: random and mutated
// bytes into every decoder in the system. Nothing may crash; everything
// must fail cleanly or produce a validated result.
#include <gtest/gtest.h>

#include <random>

#include "baselines/cdr/giop.h"
#include "baselines/xmlwire/decode.h"
#include "baselines/xmlwire/sax.h"
#include "collision_pair.h"
#include "fmt/meta.h"
#include "pbio/pbio.h"
#include "util/endian.h"
#include "obs/obs.h"
#include "value/read.h"

namespace pbio {
namespace {

std::vector<std::uint8_t> random_bytes(std::mt19937_64& rng, std::size_t n) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng());
  return v;
}

TEST(Robustness, RandomBytesIntoMetaDecoder) {
  std::mt19937_64 rng(1);
  for (int i = 0; i < 500; ++i) {
    const auto bytes = random_bytes(rng, rng() % 300);
    auto r = fmt::decode_meta(bytes);
    if (r.is_ok()) {
      EXPECT_NO_THROW(r.value().validate());
    }
  }
}

TEST(Robustness, MutatedMetaDecodesOrFailsCleanly) {
  struct S {
    int a;
    double b;
  };
  const NativeField fields[] = {
      PBIO_FIELD(S, a, arch::CType::kInt),
      PBIO_FIELD(S, b, arch::CType::kDouble),
  };
  const auto f = native_format("s", fields, sizeof(S));
  const auto good = fmt::encode_meta(f);
  std::mt19937_64 rng(2);
  for (int i = 0; i < 2000; ++i) {
    auto mutated = good;
    const std::size_t at = rng() % mutated.size();
    mutated[at] ^= static_cast<std::uint8_t>(1 + rng() % 255);
    auto r = fmt::decode_meta(mutated);
    if (r.is_ok()) {
      EXPECT_NO_THROW(r.value().validate());
    }
  }
}

TEST(Robustness, RandomBytesIntoSaxParser) {
  std::mt19937_64 rng(3);
  xmlwire::SaxHandlers handlers;  // null handlers
  for (int i = 0; i < 500; ++i) {
    const auto bytes = random_bytes(rng, rng() % 500);
    const std::string_view text(reinterpret_cast<const char*>(bytes.data()),
                                bytes.size());
    (void)xmlwire::sax_parse(text, handlers);  // must not crash
  }
}

TEST(Robustness, MutatedXmlIntoDecoder) {
  arch::StructSpec spec;
  spec.name = "r";
  spec.fields = {{.name = "a", .type = arch::CType::kInt},
                 {.name = "b", .type = arch::CType::kDouble,
                  .array_elems = 4}};
  const auto f = arch::layout_format(spec, arch::abi_x86_64());
  const std::string good =
      "<rec fmt=\"r\"><a>5</a><b>1 2 3 4</b></rec>";
  std::mt19937_64 rng(4);
  std::vector<std::uint8_t> out(f.fixed_size);
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = good;
    mutated[rng() % mutated.size()] =
        static_cast<char>(rng() % 128);
    (void)xmlwire::decode_xml(f, mutated, out);  // must not crash
  }
}

TEST(Robustness, RandomFramesIntoReader) {
  std::mt19937_64 rng(5);
  for (int i = 0; i < 300; ++i) {
    Context ctx;
    auto [a, b] = transport::make_loopback_pair();
    (void)a->send(random_bytes(rng, rng() % 200));
    a->close();
    Reader r(ctx, *b);
    auto msg = r.next();  // must not crash; any Status is acceptable
    if (msg.is_ok()) {
      (void)msg.value().reflect();
    }
  }
}

std::vector<std::uint8_t> announcement(const fmt::FormatDesc& f) {
  std::vector<std::uint8_t> frame{kFrameFormat};
  const auto meta = fmt::encode_meta(f);
  frame.insert(frame.end(), meta.begin(), meta.end());
  return frame;
}

std::uint64_t id_collisions() {
  const auto snap = obs::snapshot();
  const auto* c = snap.find_counter("pbio.fmt.id_collisions");
  return c == nullptr ? 0 : c->value;
}

TEST(Robustness, CollidingAnnouncementsFailCleanly) {
  const fmt::FormatDesc a = colliding_format(0);
  const fmt::FormatDesc b = colliding_format(1);
  ASSERT_EQ(a.fingerprint(), b.fingerprint());
  const std::uint64_t collisions0 = id_collisions();

  Context ctx;
  auto [tx, rx] = transport::make_loopback_pair();
  ASSERT_TRUE(tx->send(announcement(a)).is_ok());
  ASSERT_TRUE(tx->send(announcement(b)).is_ok());
  tx->close();
  Reader r(ctx, *rx);
  Result<Message> got = Status::ok();
  ASSERT_NO_THROW(got = r.next());
  EXPECT_EQ(got.status().code(), Errc::kMalformed);
  EXPECT_EQ(got.status().message(), "format id collision for '" + b.name + "'");
  EXPECT_EQ(r.next().status().code(), Errc::kChannelClosed);
  // The first announcement keeps the id.
  ASSERT_NE(ctx.find(a.fingerprint()), nullptr);
  EXPECT_EQ(*ctx.find(a.fingerprint()), a);
  EXPECT_EQ(id_collisions(), collisions0 + 1);
}

TEST(Robustness, ResolverAnsweringWithACollidingFormatFailsCleanly) {
  const fmt::FormatDesc a = colliding_format(0);
  Context ctx;
  ctx.register_format(a);
  auto [tx, rx] = transport::make_loopback_pair();
  std::vector<std::uint8_t> data(kDataHeaderSize + 4, 0);
  data[0] = kFrameData;
  store_uint(data.data() + kDataHeaderIdOffset, 0x1234, 8,
             ByteOrder::kLittle);
  ASSERT_TRUE(tx->send(data).is_ok());
  tx->close();
  Reader r(ctx, *rx);
  r.set_format_resolver([](Context::FormatId) -> Result<fmt::FormatDesc> {
    return colliding_format(1);
  });
  Result<Message> got = Status::ok();
  ASSERT_NO_THROW(got = r.next());
  EXPECT_EQ(got.status().code(), Errc::kMalformed);
  EXPECT_EQ(*ctx.find(a.fingerprint()), a);
}

TEST(Robustness, TruncatedDataFrames) {
  struct S {
    int a;
    double b[16];
  };
  const NativeField fields[] = {
      PBIO_FIELD(S, a, arch::CType::kInt),
      PBIO_ARRAY(S, b, arch::CType::kDouble, 16),
  };
  Context ctx;
  const auto id = ctx.register_format(native_format("s", fields, sizeof(S)));

  // Build a legitimate frame pair, then truncate the data frame at every
  // length.
  auto [a, b] = transport::make_loopback_pair();
  Writer w(ctx, *a);
  S rec{1, {}};
  ASSERT_TRUE(w.write(id, &rec).is_ok());
  auto announce = b->recv().take();
  auto data = b->recv().take();

  for (std::size_t n = 0; n < data.size(); n += 7) {
    Context fresh_ctx;
    auto [c, d] = transport::make_loopback_pair();
    (void)c->send(announce);
    (void)c->send(std::span(data.data(), n));
    c->close();
    Reader r(fresh_ctx, *d);
    auto msg = r.next();
    if (msg.is_ok()) {
      // Short payloads must be rejected before decode.
      S out{};
      (void)msg.value().decode_into(&out, sizeof(out));
    }
  }
}

TEST(Robustness, CorruptedGiopHeaders) {
  std::mt19937_64 rng(6);
  ByteBuffer buf;
  cdr::write_giop_header(cdr::GiopHeader{}, buf);
  for (int i = 0; i < 500; ++i) {
    auto copy = std::vector<std::uint8_t>(buf.data(), buf.data() + buf.size());
    copy[rng() % copy.size()] ^= static_cast<std::uint8_t>(rng());
    (void)cdr::read_giop_header(copy);
  }
}

TEST(Robustness, ReadRecordOnRandomImages) {
  arch::StructSpec spec;
  spec.name = "v";
  spec.fields = {{.name = "n", .type = arch::CType::kUInt},
                 {.name = "s", .type = arch::CType::kString},
                 {.name = "vals", .type = arch::CType::kDouble,
                  .var_dim_field = "n"}};
  const auto f = arch::layout_format(spec, arch::abi_x86_64());
  std::mt19937_64 rng(7);
  for (int i = 0; i < 500; ++i) {
    const auto bytes = random_bytes(rng, f.fixed_size + rng() % 64);
    (void)value::read_record(f, bytes);  // must not crash
  }
}

/// Variable-array format with an 8-byte dim field — wide enough that a
/// hostile image can pick a count whose byte size wraps std::uint64_t.
struct VarArrayImage {
  fmt::FormatDesc f;
  const fmt::FieldDesc* count_field = nullptr;
  const fmt::FieldDesc* array_field = nullptr;
  std::vector<std::uint8_t> bytes;

  VarArrayImage() {
    arch::StructSpec spec;
    spec.name = "v";
    spec.fields = {{.name = "n", .type = arch::CType::kULongLong},
                   {.name = "vals", .type = arch::CType::kDouble,
                    .var_dim_field = "n"}};
    f = arch::layout_format(spec, arch::abi_x86_64());
    for (const fmt::FieldDesc& fd : f.fields) {
      if (fd.name == "n") count_field = &fd;
      if (fd.name == "vals") array_field = &fd;
    }
    bytes.assign(f.fixed_size + 64, 0);
  }

  void set_count(std::uint64_t count) {
    store_uint(bytes.data() + count_field->offset, count, 8, f.byte_order);
  }
  void set_array_offset(std::uint64_t off) {
    store_uint(bytes.data() + array_field->offset, off, f.pointer_size,
               f.byte_order);
  }
};

TEST(Robustness, VarArrayCountWrapRejected) {
  // count * elem_size == 2^61 * 8 wraps std::uint64_t to exactly 0, so the
  // naive `off + count * elem_size > size` bound would pass and the reader
  // would then reserve() and walk 2^61 elements. The division-idiom guard
  // in value/read.cc must reject it instead.
  VarArrayImage img;
  img.set_count(std::uint64_t{1} << 61);
  img.set_array_offset(img.f.fixed_size);  // in bounds: only count is evil
  const auto r = value::read_record(img.f, img.bytes);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Errc::kMalformed);
}

TEST(Robustness, VarArrayOffsetPastImageRejected) {
  // A plausible count but a var-data offset beyond the image: every element
  // read would start out of bounds.
  VarArrayImage img;
  img.set_count(1);
  img.set_array_offset(img.bytes.size() + 1);
  const auto r = value::read_record(img.f, img.bytes);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Errc::kMalformed);
}

TEST(Robustness, VarArrayZeroOffsetWithNonZeroCountRejected) {
  // Offset 0 is the null encoding; pairing it with a non-zero count must
  // not read the fixed part as array data.
  VarArrayImage img;
  img.set_count(4);
  img.set_array_offset(0);
  EXPECT_FALSE(value::read_record(img.f, img.bytes).is_ok());
}

}  // namespace
}  // namespace pbio
