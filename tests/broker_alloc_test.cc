// The broker-side allocation invariant: once a connection is warm, the
// echo path — epoll wakeup, coalesced read, frame dispatch, send-queue
// enqueue, gathered writev — performs ZERO heap allocations per frame.
// Frames live in the worker's recycled pool blocks, the send queue is a
// recycling ring, and every scratch vector has reached its steady size.
//
// Unlike alloc_invariant_test (thread-local counting around a same-thread
// reader), the work here happens on a broker worker thread, so counting is
// process-global and armed only while the client thread drives warm
// round trips using raw syscalls and stack buffers (no allocations of its
// own). Every form of operator new is counted (alloc_hook.h); frees are
// irrelevant.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <vector>

#include "alloc_hook.h"
#include "broker/broker.h"
#include "pbio/encode.h"
#include "transport/socket.h"
#include "util/endian.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

}  // namespace

void note_alloc(std::size_t) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

namespace pbio::broker {
namespace {

constexpr int kWarmup = 64;
constexpr int kMeasured = 128;

TEST(BrokerAllocInvariant, WarmEchoPathAllocatesNothing) {
  Context ctx;
  Config cfg;
  cfg.workers = 1;
  Broker b(ctx, cfg);
  ASSERT_TRUE(b.start().is_ok());
  auto ch = transport::socket_connect(b.port());
  ASSERT_TRUE(ch.is_ok());
  const int fd = ch.value()->fd();

  // Prebuilt wire image of one data frame: [len u32][hdr 16][payload].
  constexpr std::size_t kPayload = 64;
  std::vector<std::uint8_t> wire(kFrameHeaderLen +
                                 kDataHeaderSize + kPayload);
  store_uint(wire.data(), kDataHeaderSize + kPayload,
             kFrameHeaderLen, ByteOrder::kLittle);
  wire[kFrameHeaderLen] = kFrameData;
  store_uint(wire.data() + kFrameHeaderLen + kDataHeaderIdOffset,
             0x5A5A, 8, ByteOrder::kLittle);
  for (std::size_t i = 0; i < kPayload; ++i) {
    wire[kFrameHeaderLen + kDataHeaderSize + i] =
        static_cast<std::uint8_t>(i);
  }

  // One blocking echo round trip over raw syscalls and stack state only —
  // nothing on the client side allocates while the counter is armed.
  std::uint8_t reply[256];
  const auto round_trip = [&]() -> bool {
    std::size_t at = 0;
    while (at < wire.size()) {
      const ssize_t n = ::write(fd, wire.data() + at, wire.size() - at);
      if (n <= 0) return false;
      at += static_cast<std::size_t>(n);
    }
    std::size_t got = 0;
    while (got < wire.size()) {
      const ssize_t n = ::read(fd, reply + got, wire.size() - got);
      if (n <= 0) return false;
      got += static_cast<std::size_t>(n);
    }
    return std::memcmp(reply, wire.data(), wire.size()) == 0;
  };

  int bad = 0;
  for (int i = 0; i < kWarmup; ++i) {
    if (!round_trip()) ++bad;
  }
  ASSERT_EQ(bad, 0) << "warmup round trips failed";

  g_allocs.store(0);
  g_counting.store(true);
  for (int i = 0; i < kMeasured; ++i) {
    if (!round_trip()) ++bad;
  }
  g_counting.store(false);
  const std::uint64_t allocs = g_allocs.load();

  EXPECT_EQ(bad, 0);
  EXPECT_EQ(allocs, 0u)
      << "steady-state broker echo allocated " << allocs << " times over "
      << kMeasured << " round trips";
  b.stop();
}

}  // namespace
}  // namespace pbio::broker
