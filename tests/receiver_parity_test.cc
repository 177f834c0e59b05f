// One table of hostile frames, fed to both pbio receivers: a Reader over a
// LoopbackChannel and a decoding broker connection over a socket. Both run
// the frame protocol through the same pbio::Resolver::interpret, so each
// frame must fail alike: the Reader returns the case's error, and the
// broker drops just that connection and counts exactly one protocol error
// while a well-behaved neighbour still gets its echo.
#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "collision_pair.h"
#include "fmt/meta.h"
#include "pbio/pbio.h"
#include "transport/socket.h"
#include "transport/wire.h"
#include "util/endian.h"

namespace pbio {
namespace {

using Frames = std::vector<std::vector<std::uint8_t>>;

std::vector<std::uint8_t> announcement(const fmt::FormatDesc& f) {
  std::vector<std::uint8_t> frame{kFrameFormat};
  const auto meta = fmt::encode_meta(f);
  frame.insert(frame.end(), meta.begin(), meta.end());
  return frame;
}

std::vector<std::uint8_t> data_frame(std::uint64_t id, std::size_t payload) {
  std::vector<std::uint8_t> f(kDataHeaderSize + payload, 0);
  f[0] = kFrameData;
  store_uint(f.data() + kDataHeaderIdOffset, id, 8, ByteOrder::kLittle);
  return f;
}

/// A one-double format nobody else in this file announces.
fmt::FormatDesc eight_byte_format(const std::string& name) {
  fmt::FormatDesc f;
  f.name = name;
  f.fixed_size = 8;
  f.fields = {{.name = "v", .base = fmt::BaseType::kFloat, .elem_size = 8,
               .offset = 0, .slot_size = 8}};
  return f;
}

struct HostileCase {
  const char* name;
  Frames frames;  // a well-formed prelude, then the hostile frame
  Errc code;
  std::string message;
};

std::vector<HostileCase> hostile_cases() {
  const fmt::FormatDesc shorted = eight_byte_format("parity_short");
  const fmt::FormatDesc first = colliding_format(0);
  const fmt::FormatDesc second = colliding_format(1);
  return {
      {"empty frame", {{}}, Errc::kMalformed, "empty frame"},
      {"unknown kind", {{0x7F, 1, 2, 3}}, Errc::kMalformed,
       "unknown frame kind"},
      {"short data frame",
       {std::vector<std::uint8_t>(kDataHeaderSize - 1, kFrameData)},
       Errc::kTruncated, "short data frame"},
      {"unknown wire id", {data_frame(0x5eed'0bad'f00dull, 8)},
       Errc::kUnknownFormat, "data frame for unannounced format"},
      {"payload shorter than fixed_size",
       {announcement(shorted), data_frame(shorted.fingerprint(), 7)},
       Errc::kTruncated, "payload smaller than record"},
      {"runt trace sidecar", {{kFrameTrace, 0, 0, 0}},
       Errc::kMalformed, "bad trace sidecar frame"},
      {"malformed announcement", {{kFrameFormat, 0xFF, 0xFF, 0xFF}},
       Errc::kMalformed, "bad meta version"},
      {"colliding announcement", {announcement(first), announcement(second)},
       Errc::kMalformed, "format id collision for '" + second.name + "'"},
  };
}

template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

TEST(ReceiverParity, ReaderFailsEachHostileFrame) {
  for (const HostileCase& c : hostile_cases()) {
    SCOPED_TRACE(c.name);
    Context ctx;
    auto [tx, rx] = transport::make_loopback_pair();
    for (const auto& f : c.frames) ASSERT_TRUE(tx->send(f).is_ok());
    tx->close();
    Reader r(ctx, *rx);
    Result<Message> got = Status::ok();
    ASSERT_NO_THROW(got = r.next());
    ASSERT_FALSE(got.is_ok());
    EXPECT_EQ(got.status().code(), c.code);
    EXPECT_EQ(got.status().message(), c.message);
  }
}

TEST(ReceiverParity, BrokerDropsOnlyTheHostileConnection) {
  Context ctx;
  broker::Config cfg;
  cfg.decode = true;
  broker::Broker b(ctx, cfg);
  ASSERT_TRUE(b.start().is_ok());

  // The neighbour streams a format the broker learns and resolves.
  const fmt::FormatDesc good_fmt = eight_byte_format("parity_good");
  auto good = transport::socket_connect(b.port());
  ASSERT_TRUE(good.is_ok());
  ASSERT_TRUE(good.value()->send(announcement(good_fmt)).is_ok());
  const auto good_frame = data_frame(good_fmt.fingerprint(), 8);

  for (const HostileCase& c : hostile_cases()) {
    SCOPED_TRACE(c.name);
    const std::uint64_t errors0 = b.stats().protocol_errors;
    auto bad = transport::socket_connect(b.port());
    ASSERT_TRUE(bad.is_ok());
    for (const auto& f : c.frames) ASSERT_TRUE(bad.value()->send(f).is_ok());
    auto dropped = bad.value()->recv();
    ASSERT_FALSE(dropped.is_ok());
    EXPECT_EQ(dropped.status().code(), Errc::kChannelClosed);
    ASSERT_TRUE(
        eventually([&] { return b.stats().protocol_errors > errors0; }));

    ASSERT_TRUE(good.value()->send(good_frame).is_ok());
    auto echo = good.value()->recv();
    ASSERT_TRUE(echo.is_ok()) << echo.status().to_string();
    EXPECT_EQ(echo.value(), good_frame);
    EXPECT_EQ(b.stats().protocol_errors, errors0 + 1);
  }
  b.stop();
}

}  // namespace
}  // namespace pbio
