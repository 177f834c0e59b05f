#include <gtest/gtest.h>

#include <cstdlib>

#include "util/hash.h"
#include "util/logging.h"

namespace pbio {
namespace {

TEST(Hash, Deterministic) {
  EXPECT_EQ(fnv1a("pbio"), fnv1a("pbio"));
  EXPECT_NE(fnv1a("pbio"), fnv1a("pbiq"));
  EXPECT_NE(fnv1a(""), 0u);  // offset basis, not zero
}

TEST(Hash, StringAndBytesAgree) {
  const char data[] = {'a', 'b', 'c'};
  EXPECT_EQ(fnv1a(data, 3), fnv1a(std::string_view("abc")));
}

TEST(Hash, MixChangesValue) {
  const std::uint64_t h = fnv1a("seed");
  EXPECT_NE(fnv1a_mix(h, 1), fnv1a_mix(h, 2));
  EXPECT_EQ(fnv1a_mix(h, 7), fnv1a_mix(h, 7));
}

TEST(Hash, OrderSensitive) {
  EXPECT_NE(fnv1a("ab"), fnv1a("ba"));
}

TEST(Logging, ThresholdReflectsEnvironment) {
  // PBIO_LOG unset in the test environment -> logging disabled.
  if (std::getenv("PBIO_LOG") == nullptr) {
    EXPECT_EQ(log_threshold(), LogLevel::kOff);
  }
  // Emitting below threshold must be harmless (and cheap).
  log_debug() << "invisible " << 42;
  log_info() << "also invisible";
  log_warn() << "still invisible";
}

TEST(Logging, EmitDoesNotCrash) {
  log_emit(LogLevel::kWarn, "direct emission test line");
}

}  // namespace
}  // namespace pbio
