#include "transport/loopback.h"

#include <gtest/gtest.h>


#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

namespace pbio::transport {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<std::uint8_t> v) {
  return {v};
}

TEST(Loopback, MessagesArriveInOrder) {
  auto [a, b] = make_loopback_pair();
  ASSERT_TRUE(a->send(bytes({1, 2, 3})).is_ok());
  ASSERT_TRUE(a->send(bytes({4})).is_ok());
  auto m1 = b->recv();
  auto m2 = b->recv();
  ASSERT_TRUE(m1.is_ok());
  ASSERT_TRUE(m2.is_ok());
  EXPECT_EQ(m1.value(), bytes({1, 2, 3}));
  EXPECT_EQ(m2.value(), bytes({4}));
}

TEST(Loopback, BothDirectionsIndependent) {
  auto [a, b] = make_loopback_pair();
  ASSERT_TRUE(a->send(bytes({1})).is_ok());
  ASSERT_TRUE(b->send(bytes({2})).is_ok());
  EXPECT_EQ(b->recv().value(), bytes({1}));
  EXPECT_EQ(a->recv().value(), bytes({2}));
}

TEST(Loopback, GatherSendConcatenates) {
  auto [a, b] = make_loopback_pair();
  const std::uint8_t s1[] = {1, 2};
  const std::uint8_t s2[] = {3};
  const std::span<const std::uint8_t> segs[] = {s1, s2};
  ASSERT_TRUE(a->send_gather(segs).is_ok());
  EXPECT_EQ(b->recv().value(), bytes({1, 2, 3}));
}

TEST(Loopback, BytesSentAccounting) {
  auto [a, b] = make_loopback_pair();
  a->send(bytes({1, 2, 3}));
  a->send(bytes({4, 5}));
  EXPECT_EQ(a->bytes_sent(), 5u);
  EXPECT_EQ(b->bytes_sent(), 0u);
}

TEST(Loopback, CloseUnblocksReceiver) {
  auto [a, b] = make_loopback_pair();
  std::thread closer([&a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    a->close();
  });
  auto r = b->recv();
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), Errc::kChannelClosed);
  closer.join();
}

TEST(Loopback, DrainsPendingBeforeClosedError) {
  auto [a, b] = make_loopback_pair();
  a->send(bytes({9}));
  a->close();
  auto r1 = b->recv();
  ASSERT_TRUE(r1.is_ok());
  EXPECT_EQ(r1.value(), bytes({9}));
  EXPECT_FALSE(b->recv().is_ok());
}

TEST(Loopback, CrossThreadProducerConsumer) {
  auto [a, b] = make_loopback_pair();
  constexpr int kCount = 10000;
  std::thread producer([&a] {
    for (int i = 0; i < kCount; ++i) {
      std::vector<std::uint8_t> m(4);
      std::memcpy(m.data(), &i, 4);
      ASSERT_TRUE(a->send(m).is_ok());
    }
  });
  for (int i = 0; i < kCount; ++i) {
    auto m = b->recv();
    ASSERT_TRUE(m.is_ok());
    int got;
    std::memcpy(&got, m.value().data(), 4);
    EXPECT_EQ(got, i);
  }
  producer.join();
}

TEST(Loopback, BlockedRecvBufIsWokenBySendAndByClose) {
  // A send notifies only when a receiver waits: the waiting one must
  // still wake, for a message and for a close.
  auto [a, b] = make_loopback_pair();
  Result<FrameBuf> got = Status(Errc::kWouldBlock, "not received");
  std::atomic<bool> woken{false};
  std::thread receiver([&b, &got, &woken] {
    got = b->recv_buf();
    woken = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(a->send(bytes({5, 6})).is_ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!woken && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(woken) << "send() left the blocked receiver asleep";
  if (!woken) a->close();  // a close always notifies: end the test
  receiver.join();
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(got.value().view().size(), 2u);
  EXPECT_EQ(got.value().data()[1], 6);

  std::thread closed([&b, &got] { got = b->recv_buf(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  a->close();
  closed.join();
  ASSERT_FALSE(got.is_ok());
  EXPECT_EQ(got.status().code(), Errc::kChannelClosed);
}

TEST(Loopback, PingPongLosesNoWakeup) {
  // Each side blocks in recv_buf() until the other answers, so most
  // receives wait and most sends find a waiter to notify.
  auto [a, b] = make_loopback_pair();
  constexpr int kRounds = 2000;
  std::thread echo([&b] {
    for (int i = 0; i < kRounds; ++i) {
      auto m = b->recv_buf();
      ASSERT_TRUE(m.is_ok());
      ASSERT_TRUE(b->send(m.value().view()).is_ok());
    }
  });
  for (int i = 0; i < kRounds; ++i) {
    const std::uint8_t v = static_cast<std::uint8_t>(i);
    ASSERT_TRUE(a->send(std::span<const std::uint8_t>(&v, 1)).is_ok());
    auto m = a->recv_buf();
    ASSERT_TRUE(m.is_ok());
    ASSERT_EQ(m.value().data()[0], v);
  }
  echo.join();
}

}  // namespace
}  // namespace pbio::transport
