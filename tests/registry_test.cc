#include "fmt/registry.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "collision_pair.h"

namespace pbio::fmt {
namespace {

FormatDesc make_format(const std::string& name, std::uint32_t int_size) {
  FormatDesc f;
  f.name = name;
  f.fixed_size = 8;
  f.fields = {{.name = "x", .base = BaseType::kInt, .elem_size = int_size,
               .offset = 0, .slot_size = int_size}};
  return f;
}

TEST(Registry, RegisterAndFind) {
  FormatRegistry reg;
  const FormatId id = reg.register_format(make_format("a", 4));
  const FormatDesc* f = reg.find(id);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->name, "a");
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, ReregisteringIdenticalContentIsIdempotent) {
  FormatRegistry reg;
  const FormatId id1 = reg.register_format(make_format("a", 4));
  const FormatId id2 = reg.register_format(make_format("a", 4));
  EXPECT_EQ(id1, id2);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, DifferentContentDifferentIds) {
  FormatRegistry reg;
  const FormatId id1 = reg.register_format(make_format("a", 4));
  const FormatId id2 = reg.register_format(make_format("a", 8));
  EXPECT_NE(id1, id2);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(Registry, UnknownIdReturnsNull) {
  FormatRegistry reg;
  EXPECT_EQ(reg.find(0xDEAD), nullptr);
  EXPECT_FALSE(reg.contains(0xDEAD));
}

TEST(Registry, FindByNameReturnsLatest) {
  FormatRegistry reg;
  reg.register_format(make_format("a", 4));
  const FormatId id2 = reg.register_format(make_format("a", 8));
  const FormatDesc* f = reg.find_by_name("a");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->fingerprint(), id2);
  EXPECT_EQ(reg.find_by_name("nope"), nullptr);
}

TEST(Registry, MalformedFormatRejected) {
  FormatRegistry reg;
  FormatDesc bad;
  bad.name = "bad";
  bad.fixed_size = 2;
  bad.fields = {{.name = "x", .base = BaseType::kInt, .elem_size = 4,
                 .offset = 0, .slot_size = 4}};
  EXPECT_THROW(reg.register_format(bad), PbioError);
  EXPECT_EQ(reg.size(), 0u);
}

TEST(Registry, CollidingContentKeepsTheFirstRegistration) {
  const FormatDesc a = colliding_format(0);
  const FormatDesc b = colliding_format(1);
  ASSERT_NE(a, b);
  ASSERT_EQ(a.fingerprint(), b.fingerprint());
  const std::string what = "format id collision for '" + b.name + "'";

  FormatRegistry reg;
  const Result<FormatId> id = reg.learn(a);
  ASSERT_TRUE(id.is_ok());
  const Result<FormatId> clash = reg.learn(b);
  EXPECT_EQ(clash.status().code(), Errc::kMalformed);
  EXPECT_EQ(clash.status().message(), what);
  try {
    reg.register_format(b);
    ADD_FAILURE() << "collision accepted";
  } catch (const PbioError& e) {
    EXPECT_EQ(e.what(), what);
  }
  EXPECT_EQ(reg.size(), 1u);
  ASSERT_NE(reg.find(id.value()), nullptr);
  EXPECT_EQ(*reg.find(id.value()), a);
  EXPECT_EQ(reg.find_by_name(b.name), nullptr);
  // Identical content is still idempotent.
  EXPECT_EQ(reg.learn(a).value(), id.value());
}

TEST(Registry, LearnReportsMalformedDescriptionsWithoutThrowing) {
  FormatRegistry reg;
  FormatDesc bad = make_format("bad", 4);
  bad.fixed_size = 2;
  const Result<FormatId> id = reg.learn(bad);
  EXPECT_EQ(id.status().code(), Errc::kMalformed);
  EXPECT_EQ(id.status().message(),
            "format 'bad' field 'x': slot extends past fixed_size");
  EXPECT_EQ(reg.size(), 0u);
}

TEST(Registry, PointersStableAcrossMoreRegistrations) {
  FormatRegistry reg;
  const FormatId id = reg.register_format(make_format("stable", 4));
  const FormatDesc* before = reg.find(id);
  for (int i = 0; i < 100; ++i) {
    reg.register_format(make_format("other" + std::to_string(i), 4));
  }
  EXPECT_EQ(reg.find(id), before);
}

TEST(Registry, ConcurrentRegistrationIsSafe) {
  FormatRegistry reg;
  std::vector<std::thread> threads;
  threads.reserve(8);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&reg, t] {
      for (int i = 0; i < 50; ++i) {
        reg.register_format(
            make_format("fmt" + std::to_string(t) + "_" + std::to_string(i),
                        4));
        reg.register_format(make_format("shared", 4));  // contended id
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(reg.size(), 8u * 50u + 1u);
  EXPECT_NE(reg.find_by_name("shared"), nullptr);
}

}  // namespace
}  // namespace pbio::fmt
