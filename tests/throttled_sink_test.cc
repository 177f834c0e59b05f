#include "throttled_sink.h"

#include <gtest/gtest.h>

namespace pbio::transport {
namespace {

iovec make_iov(const std::vector<std::uint8_t>& v) {
  return iovec{const_cast<std::uint8_t*>(v.data()), v.size()};
}

TEST(ThrottledSink, AcceptsUpToCapacityThenBlocks) {
  ThrottledWireSink sink(8, 8);
  const std::vector<std::uint8_t> six{1, 2, 3, 4, 5, 6};
  const iovec iov[] = {make_iov(six)};
  auto n = sink.writev_some(iov);
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), 6u);
  // 2 bytes of room left: a 6-byte write is accepted partially.
  auto part = sink.writev_some(iov);
  ASSERT_TRUE(part.is_ok());
  EXPECT_EQ(part.value(), 2u);
  EXPECT_EQ(sink.buffered(), 8u);
  // Full: the next write would-blocks, exactly like a full socket buffer.
  auto blocked = sink.writev_some(iov);
  ASSERT_FALSE(blocked.is_ok());
  EXPECT_EQ(blocked.status().code(), Errc::kWouldBlock);
}

TEST(ThrottledSink, PartialAcceptSplitsMidSegment) {
  ThrottledWireSink sink(5, 5);
  const std::vector<std::uint8_t> a{10, 11, 12};
  const std::vector<std::uint8_t> b{20, 21, 22, 23};
  const iovec iov[] = {make_iov(a), make_iov(b)};
  auto n = sink.writev_some(iov);
  ASSERT_TRUE(n.is_ok());
  EXPECT_EQ(n.value(), 5u);  // all of a, 2 bytes of b
  sink.tick();
  EXPECT_EQ(sink.received(),
            (std::vector<std::uint8_t>{10, 11, 12, 20, 21}));
}

TEST(ThrottledSink, TickDrainsDeterministicallyInOrder) {
  ThrottledWireSink sink(100, 4);
  std::vector<std::uint8_t> msg(10);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    msg[i] = static_cast<std::uint8_t>(i);
  }
  const iovec iov[] = {make_iov(msg)};
  ASSERT_TRUE(sink.writev_some(iov).is_ok());
  EXPECT_EQ(sink.tick(), 4u);
  EXPECT_EQ(sink.tick(), 4u);
  EXPECT_EQ(sink.tick(), 2u);
  EXPECT_EQ(sink.tick(), 0u);  // nothing buffered: peer idles
  EXPECT_EQ(sink.received(), msg);
  EXPECT_EQ(sink.buffered(), 0u);
  EXPECT_EQ(sink.total_accepted(), 10u);
  // Draining freed capacity: writes are accepted again.
  EXPECT_TRUE(sink.writev_some(iov).is_ok());
}

TEST(ThrottledSink, ZeroCapacityModelsStalledPeer) {
  ThrottledWireSink sink(0, 16);
  const std::vector<std::uint8_t> one{42};
  const iovec iov[] = {make_iov(one)};
  for (int i = 0; i < 3; ++i) {
    auto n = sink.writev_some(iov);
    ASSERT_FALSE(n.is_ok());
    EXPECT_EQ(n.status().code(), Errc::kWouldBlock);
    sink.tick();
  }
  EXPECT_EQ(sink.total_accepted(), 0u);
}

}  // namespace
}  // namespace pbio::transport
