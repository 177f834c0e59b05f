#include "util/pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "util/error.h"

namespace pbio {
namespace {

TEST(BufferPool, LeaseIsSizedAndAligned) {
  BufferPool pool;
  for (std::size_t size : {0u, 1u, 63u, 64u, 65u, 4096u, 100000u}) {
    FrameBuf b = pool.lease(size);
    ASSERT_TRUE(b.valid());
    EXPECT_EQ(b.size(), size);
    EXPECT_GE(b.capacity(), size);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b.data()) % 16, 0u)
        << "pool payloads must be 16-aligned for zero-copy struct views";
  }
}

TEST(BufferPool, RecyclesBlocksAfterWarmup) {
  BufferPool pool;
  { FrameBuf warm = pool.lease(100); }
  const auto before = pool.stats();
  for (int i = 0; i < 50; ++i) {
    FrameBuf b = pool.lease(100);
    ASSERT_TRUE(b.valid());
  }
  const auto after = pool.stats();
  EXPECT_EQ(after.misses, before.misses) << "warm pool must not allocate";
  EXPECT_GE(after.hits - before.hits, 50u);
}

TEST(BufferPool, DistinctSizeClassesDoNotShareBlocks) {
  BufferPool pool;
  FrameBuf small = pool.lease(64);
  FrameBuf big = pool.lease(1 << 16);
  EXPECT_NE(small.data(), big.data());
  EXPECT_GE(big.capacity(), std::size_t{1} << 16);
}

TEST(BufferPool, OversizeLeaseWorksAndIsCounted) {
  BufferPool pool;
  const std::size_t huge = (1u << 20) + 1;
  FrameBuf b = pool.lease(huge);
  ASSERT_TRUE(b.valid());
  EXPECT_EQ(b.size(), huge);
  b.data()[0] = 1;
  b.data()[huge - 1] = 2;
  EXPECT_GE(pool.stats().oversize, 1u);
}

TEST(BufferPool, CopySharesTheBlock) {
  BufferPool pool;
  FrameBuf a = pool.lease(128);
  std::memset(a.data(), 0xAB, a.size());
  FrameBuf b = a;
  EXPECT_EQ(a.data(), b.data());
  EXPECT_FALSE(a.exclusive());
  a.reset();
  // b still owns the block and the bytes.
  EXPECT_EQ(b.data()[0], 0xAB);
  EXPECT_TRUE(b.exclusive());
}

TEST(BufferPool, SliceAliasesAndPinsTheBlock) {
  BufferPool pool;
  FrameBuf whole = pool.lease(256);
  for (std::size_t i = 0; i < 256; ++i) {
    whole.data()[i] = static_cast<std::uint8_t>(i);
  }
  FrameBuf part = whole.slice(100, 50);
  EXPECT_EQ(part.size(), 50u);
  EXPECT_EQ(part.data(), whole.data() + 100);
  whole.reset();
  // The slice keeps the block alive.
  EXPECT_EQ(part.data()[0], 100);
  EXPECT_EQ(part.data()[49], 149);
}

TEST(BufferPool, SliceRejectsRangesPastTheBlock) {
  BufferPool pool;
  FrameBuf whole = pool.lease(256);
  const std::size_t cap = whole.capacity();
  EXPECT_EQ(whole.slice(cap, 0).size(), 0u);
  EXPECT_THROW((void)whole.slice(cap - 10, 11), PbioError);
  EXPECT_THROW((void)whole.slice(cap + 1, 0), PbioError);
  // off + len wraps to 15 here, which a summed bound check would accept.
  EXPECT_THROW((void)whole.slice(16, SIZE_MAX), PbioError);
  EXPECT_THROW((void)whole.slice(SIZE_MAX, 16), PbioError);
}

TEST(BufferPool, BlockReturnsToPoolOnLastRelease) {
  BufferPool pool;
  const std::uint8_t* data;
  {
    FrameBuf a = pool.lease(200);
    data = a.data();
    FrameBuf b = a.slice(0, 10);
    a.reset();
    EXPECT_EQ(b.size(), 10u);
    EXPECT_EQ(pool.stats().recycled, 0u) << "slice must pin the block";
  }
  EXPECT_EQ(pool.stats().recycled, 1u);
  // The next same-class lease reuses the recycled block.
  FrameBuf again = pool.lease(200);
  EXPECT_EQ(again.data(), data);
}

TEST(BufferPool, FreeListIsBounded) {
  BufferPool pool(/*max_free_per_class=*/2);
  std::vector<FrameBuf> live;
  for (int i = 0; i < 8; ++i) live.push_back(pool.lease(100));
  live.clear();  // 8 releases, only 2 may be cached
  EXPECT_EQ(pool.stats().recycled, 2u);
}

TEST(BufferPool, HeapFrameBufIsUnpooled) {
  const auto before = BufferPool::shared().stats();
  {
    FrameBuf b = FrameBuf::heap(500);
    ASSERT_TRUE(b.valid());
    EXPECT_EQ(b.size(), 500u);
    std::memset(b.data(), 1, b.size());
  }
  const auto after = BufferPool::shared().stats();
  EXPECT_EQ(after.recycled, before.recycled);
}

TEST(BufferPool, SetSizeWithinCapacity) {
  BufferPool pool;
  FrameBuf b = pool.lease(10);
  b.set_size(b.capacity());
  EXPECT_EQ(b.size(), b.capacity());
  b.set_size(0);
  EXPECT_TRUE(b.empty());
}

TEST(BufferPool, CrossThreadReleaseIsSafe) {
  BufferPool pool;
  constexpr int kPerThread = 200;
  std::vector<FrameBuf> handoff(kPerThread);
  for (int i = 0; i < kPerThread; ++i) handoff[i] = pool.lease(64);
  std::thread other([&] { handoff.clear(); });
  other.join();
  const auto stats = pool.stats();
  EXPECT_GE(stats.recycled, 1u);
}

TEST(BufferPool, StatsAndObsSeriesReadTheSameCounters) {
  // Two pools feed one pbio.pool.* series; with no other pool active,
  // the series moves by exactly the sum of their stats() deltas.
  const auto series = [](const char* name) {
    const obs::Snapshot snap = obs::snapshot();
    const obs::CounterSample* c = snap.find_counter(name);
    return c == nullptr ? std::uint64_t{0} : c->value;
  };
  const char* const names[] = {"pbio.pool.hits", "pbio.pool.misses",
                               "pbio.pool.oversize", "pbio.pool.recycled"};
  std::uint64_t before[4];
  for (int i = 0; i < 4; ++i) before[i] = series(names[i]);
  BufferPool a(2);
  BufferPool b;
  {
    std::vector<FrameBuf> held;
    for (int i = 0; i < 4; ++i) held.push_back(a.lease(100));  // 4 misses
  }  // 2 recycled, 2 over the freelist bound and freed
  for (int i = 0; i < 3; ++i) FrameBuf hit = a.lease(100);
  FrameBuf big = b.lease((std::size_t{1} << 20) + 1);
  const BufferPool::Stats sa = a.stats();
  const BufferPool::Stats sb = b.stats();
  const std::uint64_t got[4] = {sa.hits + sb.hits, sa.misses + sb.misses,
                                sa.oversize + sb.oversize,
                                sa.recycled + sb.recycled};
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(obs::snapshot().find_counter(names[i]), nullptr) << names[i];
    EXPECT_EQ(series(names[i]) - before[i], got[i]) << names[i];
  }
  EXPECT_EQ(sa.misses, 4u);
  EXPECT_EQ(sa.hits, 3u);
  EXPECT_EQ(sa.recycled, 2u + 3u);
  EXPECT_EQ(sb.oversize, 1u);
}

}  // namespace
}  // namespace pbio
