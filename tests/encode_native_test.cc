// Sender-side gather encoding of native records with pointers.
#include "pbio/encode.h"

#include <gtest/gtest.h>

#include "pbio/native.h"
#include "value/read.h"

namespace pbio {
namespace {

struct Flat {
  int a;
  double b;
};

TEST(EncodeNative, FixedLayoutIsVerbatimCopy) {
  const NativeField fields[] = {
      PBIO_FIELD(Flat, a, arch::CType::kInt),
      PBIO_FIELD(Flat, b, arch::CType::kDouble),
  };
  const auto f = native_format("flat", fields, sizeof(Flat));
  Flat rec{7, 2.5};
  ByteBuffer out;
  ASSERT_TRUE(encode_native(f, &rec, out).is_ok());
  ASSERT_EQ(out.size(), sizeof(Flat));
  EXPECT_EQ(std::memcmp(out.data(), &rec, sizeof(Flat)), 0);
}

struct Event {
  unsigned n;
  char* name;
  double* vals;
};

fmt::FormatDesc event_format() {
  const NativeField fields[] = {
      PBIO_FIELD(Event, n, arch::CType::kUInt),
      PBIO_STRING(Event, name),
      PBIO_VARARRAY(Event, vals, arch::CType::kDouble, "n"),
  };
  return native_format("event", fields, sizeof(Event));
}

TEST(EncodeNative, GathersStringsAndArrays) {
  const auto f = event_format();
  char name[] = "pressure";
  double vals[] = {1.5, -2.5};
  Event rec{2, name, vals};
  ByteBuffer out;
  ASSERT_TRUE(encode_native(f, &rec, out).is_ok());
  EXPECT_GT(out.size(), sizeof(Event));

  // The wire image reads back as the full record (offsets convention).
  auto back = value::read_record(f, out.view());
  ASSERT_TRUE(back.is_ok()) << back.status().to_string();
  EXPECT_EQ(back.value().find("n")->as_uint(), 2u);
  EXPECT_EQ(back.value().find("name")->as_string(), "pressure");
  EXPECT_EQ(back.value().find("vals")->as_list()[1].as_double(), -2.5);
}

TEST(EncodeNative, NullPointersBecomeNullSlots) {
  const auto f = event_format();
  Event rec{0, nullptr, nullptr};
  ByteBuffer out;
  ASSERT_TRUE(encode_native(f, &rec, out).is_ok());
  EXPECT_EQ(out.size(), sizeof(Event));  // nothing appended
  auto back = value::read_record(f, out.view());
  ASSERT_TRUE(back.is_ok());
  EXPECT_TRUE(back.value().find("name")->is_null());
  EXPECT_EQ(back.value().find("vals")->as_list().size(), 0u);
}

TEST(EncodeNative, EmptyStringStillTerminated) {
  const auto f = event_format();
  char name[] = "";
  Event rec{0, name, nullptr};
  ByteBuffer out;
  ASSERT_TRUE(encode_native(f, &rec, out).is_ok());
  EXPECT_EQ(out.size(), sizeof(Event) + 1);  // the NUL
  auto back = value::read_record(f, out.view());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().find("name")->as_string(), "");
}

TEST(EncodeNative, ZeroCountArrayIgnoresDanglingPointer) {
  const auto f = event_format();
  double dummy = 9.9;
  Event rec{0, nullptr, &dummy};  // count 0: pointer must not be followed
  ByteBuffer out;
  ASSERT_TRUE(encode_native(f, &rec, out).is_ok());
  auto back = value::read_record(f, out.view());
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().find("vals")->as_list().size(), 0u);
}

TEST(EncodeNative, ForeignFormatRejected) {
  auto f = event_format();
  f.pointer_size = 4;  // not this host
  Event rec{};
  ByteBuffer out;
  EXPECT_EQ(encode_native(f, &rec, out).code(), Errc::kUnsupported);
}

TEST(EncodeNative, AppendsToExistingBuffer) {
  const auto f = event_format();
  char name[] = "x";
  Event rec{0, name, nullptr};
  // Start with capacity, as encoders do: a constant-size append into a
  // capacity-0 vector sends GCC 12 down vector::insert's reallocation path,
  // where it misreads the empty tail move as a write past the new block
  // (-Wstringop-overflow).
  ByteBuffer out(64);
  out.append("prefix", 6);
  ASSERT_TRUE(encode_native(f, &rec, out).is_ok());
  EXPECT_EQ(std::memcmp(out.data(), "prefix", 6), 0);
  // Record-relative offsets are measured from the record base, not the
  // buffer base.
  auto back = value::read_record(f, std::span(out.data() + 6, out.size() - 6));
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value().find("name")->as_string(), "x");
}

TEST(EncodeNative, HugeVarArrayCountIsRejectedNotOverflowed) {
  // The dim field is record data: a garbage count whose byte length
  // overflows 64 bits must fail with kMalformed, not wrap the multiply
  // into a tiny append (which would leave wire offsets pointing past the
  // image — regression test for the unchecked `count * elem_size`).
  struct Big {
    std::uint64_t n;
    double* vals;
  };
  const NativeField fields[] = {
      PBIO_FIELD(Big, n, arch::CType::kULongLong),
      PBIO_VARARRAY(Big, vals, arch::CType::kDouble, "n"),
  };
  const auto f = native_format("big", fields, sizeof(Big));
  double one = 1.0;
  // 2^61 doubles = 2^64 bytes: count * elem_size wraps to exactly 0.
  Big rec{std::uint64_t{1} << 61, &one};
  ByteBuffer out;
  const Status st = encode_native(f, &rec, out);
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), Errc::kMalformed);

  // One notch below the wrap point still overflows a 64-bit byte length.
  rec.n = (std::uint64_t{1} << 61) + 1;
  out.clear();
  EXPECT_EQ(encode_native(f, &rec, out).code(), Errc::kMalformed);

  // Sane counts still encode.
  double vals[] = {1.0, 2.0, 3.0};
  Big ok{3, vals};
  out.clear();
  ASSERT_TRUE(encode_native(f, &ok, out).is_ok());
}

}  // namespace
}  // namespace pbio
