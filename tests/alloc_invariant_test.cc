// The allocation invariant behind the pooled receive path: once warm, a
// reader pulling fixed-layout messages off a socket performs ZERO heap
// allocations per message — the frame lives in a recycled pool block, the
// Message holds a lease, and every scratch structure is reused.
//
// Counting is thread-local so the sender thread (and any background gtest
// machinery) cannot pollute the measurement. Every form of operator new is
// counted (alloc_hook.h); frees are irrelevant to the invariant.
#include <gtest/gtest.h>

#include <sys/socket.h>
#ifdef PBIO_ALLOC_TRACE
#include <execinfo.h>

#include <cstdio>
#endif

#include <cstdint>
#include <cstring>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "alloc_hook.h"
#include "bench_support/workload.h"
#include "pbio/pbio.h"
#include "transport/loopback.h"
#include "transport/socket.h"
#include "value/materialize.h"
#include "value/random.h"

namespace {

thread_local bool g_counting = false;
thread_local std::uint64_t g_allocs = 0;

}  // namespace

void note_alloc([[maybe_unused]] std::size_t n) {
  if (!g_counting) return;
  ++g_allocs;
#ifdef PBIO_ALLOC_TRACE
  g_counting = false;
  void* frames[16];
  int depth = backtrace(frames, 16);
  backtrace_symbols_fd(frames, depth, 2);
  fprintf(stderr, "---- alloc of %zu bytes ----\n", n);
  g_counting = true;
#endif
}

namespace pbio {
namespace {

struct Sample {
  std::int32_t seq;
  double a;
  double b;
};

constexpr int kWarmup = 32;
constexpr int kMeasured = 64;

/// Connected AF_UNIX stream pair wrapped in SocketChannels.
std::pair<std::unique_ptr<transport::SocketChannel>,
          std::unique_ptr<transport::SocketChannel>>
channel_pair() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {std::make_unique<transport::SocketChannel>(fds[0]),
          std::make_unique<transport::SocketChannel>(fds[1])};
}

Context::FormatId register_sample(Context& ctx) {
  const NativeField fields[] = {
      PBIO_FIELD(Sample, seq, arch::CType::kInt),
      PBIO_FIELD(Sample, a, arch::CType::kDouble),
      PBIO_FIELD(Sample, b, arch::CType::kDouble),
  };
  return ctx.register_format(native_format("sample", fields,
                                           sizeof(Sample)));
}

TEST(AllocInvariant, SteadyStateNextAllocatesNothing) {
  auto [client, server] = channel_pair();
  Context ctx;
  const auto id = register_sample(ctx);
  std::thread sender([&ctx, id, ch = std::move(client)]() mutable {
    Writer w(ctx, *ch);
    for (int i = 0; i < kWarmup + kMeasured; ++i) {
      Sample s{i, i * 1.5, -2.0 * i};
      ASSERT_TRUE(w.write(id, &s).is_ok());
    }
  });

  Reader r(ctx, *server);
  r.expect(id);
  int bad = 0;
  for (int i = 0; i < kWarmup; ++i) {
    auto m = r.next();
    if (!m.is_ok() || !m.value().view<Sample>().is_ok()) ++bad;
  }
  ASSERT_EQ(bad, 0);

  g_allocs = 0;
  g_counting = true;
  for (int i = 0; i < kMeasured; ++i) {
    auto m = r.next();
    if (!m.is_ok()) {
      ++bad;
      break;
    }
    auto v = m.value().view<Sample>();
    if (!v.is_ok() || v.value()->seq != kWarmup + i) ++bad;
  }
  g_counting = false;
  const std::uint64_t allocs = g_allocs;

  EXPECT_EQ(bad, 0);
  EXPECT_EQ(allocs, 0u)
      << "steady-state Reader::next allocated " << allocs << " times over "
      << kMeasured << " messages";
  sender.join();
}

// The in-process transport keeps the same promise on both ends: a warm
// Writer -> LoopbackChannel -> Reader round trip allocates nothing, however
// many frames have passed through the queue.
TEST(AllocInvariant, SteadyStateLoopbackRoundTripAllocatesNothing) {
  auto [client, server] = transport::make_loopback_pair();
  Context ctx;
  const auto id = register_sample(ctx);
  Writer w(ctx, *client);
  Reader r(ctx, *server);
  r.expect(id);
  constexpr int kDepth = 4;
  int seq = 0;
  int bad = 0;
  const auto round = [&] {
    for (int i = 0; i < kDepth; ++i) {
      Sample s{seq + i, 0.25 * i, 3.0};
      if (!w.write(id, &s).is_ok()) ++bad;
    }
    for (int i = 0; i < kDepth; ++i) {
      auto m = r.next();
      if (!m.is_ok()) {
        ++bad;
        continue;
      }
      auto v = m.value().view<Sample>();
      if (!v.is_ok() || v.value()->seq != seq + i) ++bad;
    }
    seq += kDepth;
  };
  for (int i = 0; i < kWarmup; ++i) round();
  ASSERT_EQ(bad, 0);

  g_allocs = 0;
  g_counting = true;
  for (int i = 0; i < kMeasured; ++i) round();
  g_counting = false;
  const std::uint64_t allocs = g_allocs;

  EXPECT_EQ(bad, 0);
  EXPECT_EQ(allocs, 0u)
      << "steady-state loopback write + next allocated " << allocs
      << " times over " << kMeasured * kDepth << " messages";
}

TEST(AllocInvariant, SteadyStateBatchAllocatesNothing) {
  auto [client, server] = channel_pair();
  Context ctx;
  const auto id = register_sample(ctx);
  constexpr int kBatches = 8;
  constexpr int kPerBatch = 16;
  constexpr int kTotal = (kBatches + 2) * kPerBatch;
  std::thread sender([&ctx, id, ch = std::move(client)]() mutable {
    Writer w(ctx, *ch);
    for (int i = 0; i < kTotal; ++i) {
      Sample s{i, 0.5 * i, 1.0};
      ASSERT_TRUE(w.write(id, &s).is_ok());
    }
  });

  Reader r(ctx, *server);
  r.expect(id);
  std::vector<Message> out(kPerBatch);
  int seen = 0;
  int bad = 0;
  // Warm two batches, then count. The warm loop must exercise every code
  // path the measured loop touches (including view's OBS call site, which
  // registers its metric name on first hit).
  while (seen < 2 * kPerBatch) {
    auto n = r.next_batch(std::span(out));
    if (!n.is_ok()) {
      ++bad;
      break;
    }
    for (std::size_t i = 0; i < n.value(); ++i) {
      if (!out[i].view<Sample>().is_ok()) ++bad;
    }
    seen += static_cast<int>(n.value());
  }
  ASSERT_EQ(bad, 0);

  g_allocs = 0;
  g_counting = true;
  while (seen < kTotal) {
    auto n = r.next_batch(std::span(out));
    if (!n.is_ok()) {
      ++bad;
      break;
    }
    for (std::size_t i = 0; i < n.value(); ++i) {
      auto v = out[i].view<Sample>();
      if (!v.is_ok()) ++bad;
    }
    seen += static_cast<int>(n.value());
  }
  g_counting = false;
  const std::uint64_t allocs = g_allocs;

  EXPECT_EQ(bad, 0);
  EXPECT_EQ(seen, kTotal);
  EXPECT_EQ(allocs, 0u)
      << "steady-state Reader::next_batch allocated " << allocs
      << " times across " << kBatches << " batches";
  sender.join();
}

TEST(AllocInvariant, SteadyStateInterleavedFormatsAllocateNothing) {
  // Three formats in round-robin order: once each id has been written and
  // resolved, neither the Writer nor the Reader allocates for a frame,
  // whatever id came before it.
  auto [client, server] = channel_pair();
  Context ctx;
  const NativeField fields[] = {
      PBIO_FIELD(Sample, seq, arch::CType::kInt),
      PBIO_FIELD(Sample, a, arch::CType::kDouble),
      PBIO_FIELD(Sample, b, arch::CType::kDouble),
  };
  const Context::FormatId ids[] = {
      ctx.register_format(native_format("x", fields, sizeof(Sample))),
      ctx.register_format(native_format("y", fields, sizeof(Sample))),
      ctx.register_format(native_format("z", fields, sizeof(Sample))),
  };
  constexpr int kFormats = 3;
  std::uint64_t sender_allocs = 0;
  std::thread sender([&ctx, &ids, &sender_allocs,
                      ch = std::move(client)]() mutable {
    Writer w(ctx, *ch);
    for (int i = 0; i < kWarmup + kMeasured; ++i) {
      if (i == kWarmup) {
        g_allocs = 0;
        g_counting = true;
      }
      Sample s{i, 0.25 * i, 3.0};
      const Status st = w.write(ids[i % kFormats], &s);
      if (!st.is_ok()) break;
    }
    g_counting = false;
    sender_allocs = g_allocs;
  });

  Reader r(ctx, *server);
  for (const auto id : ids) r.expect(id);
  int bad = 0;
  for (int i = 0; i < kWarmup; ++i) {
    auto m = r.next();
    if (!m.is_ok() || m.value().wire_id() != ids[i % kFormats] ||
        !m.value().view<Sample>().is_ok()) {
      ++bad;
    }
  }
  ASSERT_EQ(bad, 0);

  g_allocs = 0;
  g_counting = true;
  for (int i = kWarmup; i < kWarmup + kMeasured; ++i) {
    auto m = r.next();
    if (!m.is_ok()) {
      ++bad;
      break;
    }
    auto v = m.value().view<Sample>();
    if (m.value().wire_id() != ids[i % kFormats] || !v.is_ok() ||
        v.value()->seq != i) {
      ++bad;
    }
  }
  g_counting = false;
  const std::uint64_t allocs = g_allocs;
  sender.join();

  EXPECT_EQ(bad, 0);
  EXPECT_EQ(allocs, 0u) << "steady-state interleaved Reader::next allocated "
                        << allocs << " times over " << kMeasured
                        << " messages";
  EXPECT_EQ(sender_allocs, 0u)
      << "steady-state interleaved Writer::write allocated " << sender_allocs
      << " times over " << kMeasured << " messages";
}

/// Host-native var-length record (string + variable double array), sent
/// with Writer::write so encode_native's gather runs.
struct NativeEvent {
  int seq;
  unsigned n;
  char* name;
  double* samples;
};

// The bulk heterogeneous stream: mech records of 1 KB, 10 KB and 100 KB
// from sparc_v8, x86 and ppc64, decoded into x86-64 with decode_into after
// tier-up, plus a var-length native record, all sent through a
// LoopbackChannel and received in bursts of 16 with next_batch. A burst
// holds up to 16 frames of one size class at once, so the frame pool is
// warmed with a full burst of each format first; after that no burst,
// whatever its mix, allocates on the writer, the reader or the decode.
TEST(AllocInvariant, SteadyStateHeteroBulkBurstsAllocateNothing) {
  constexpr std::size_t kBurst = 16;
  constexpr std::size_t kVariants = 2;
  constexpr int kMeasuredBursts = 24;
  namespace bench = pbio::bench;

  struct WireFormat {
    Context::FormatId id = 0;
    std::size_t target = 0;  // index into natives / references
    std::vector<std::vector<std::uint8_t>> images;  // per variant
  };
  Context wctx;
  Context rctx;
  std::vector<fmt::FormatDesc> natives;
  std::vector<std::vector<std::vector<std::uint8_t>>> references;
  std::vector<WireFormat> formats;
  std::mt19937_64 rng(1);
  for (bench::Size size :
       {bench::Size::k1KB, bench::Size::k10KB, bench::Size::k100KB}) {
    std::vector<value::Record> recs;
    for (std::size_t v = 0; v < kVariants; ++v) {
      recs.push_back(value::random_record(bench::mech_spec(size), rng));
    }
    natives.push_back(
        bench::make_workload(size, arch::abi_x86_64(), arch::abi_x86_64())
            .dst_fmt);
    references.emplace_back();
    for (const auto& rec : recs) {
      references.back().push_back(value::materialize(natives.back(), rec));
    }
    for (const arch::Abi* abi :
         {&arch::abi_sparc_v8(), &arch::abi_x86(), &arch::abi_ppc64()}) {
      WireFormat f;
      const fmt::FormatDesc desc =
          bench::make_workload(size, *abi, arch::abi_x86_64()).src_fmt;
      f.id = wctx.register_format(desc);
      f.target = natives.size() - 1;
      for (const auto& rec : recs) {
        f.images.push_back(value::materialize(desc, rec));
      }
      formats.push_back(std::move(f));
    }
  }
  const NativeField event_fields[] = {
      PBIO_FIELD(NativeEvent, seq, arch::CType::kInt),
      PBIO_FIELD(NativeEvent, n, arch::CType::kUInt),
      PBIO_STRING(NativeEvent, name),
      PBIO_VARARRAY(NativeEvent, samples, arch::CType::kDouble, "n"),
  };
  const fmt::FormatDesc event_desc =
      native_format("event", event_fields, sizeof(NativeEvent));
  const Context::FormatId event_id = wctx.register_format(event_desc);
  std::vector<std::string> names;
  std::vector<std::vector<double>> samples;
  std::vector<NativeEvent> events;
  for (std::size_t v = 0; v < kVariants; ++v) {
    names.push_back("event_" + std::to_string(v) + "_of_the_bulk_stream");
    samples.emplace_back(1024);
    for (double& d : samples.back()) d = static_cast<double>(rng() % 1000);
  }
  for (std::size_t v = 0; v < kVariants; ++v) {
    events.push_back(NativeEvent{static_cast<int>(v), 1024,
                                 names[v].data(), samples[v].data()});
  }
  const std::size_t event_format = formats.size();  // pick index of events

  auto [tx, rx] = transport::make_loopback_pair();
  Writer w(wctx, *tx);
  Reader r(rctx, *rx);
  for (const auto& native : natives) r.expect(rctx.register_format(native));
  r.expect(rctx.register_format(event_desc));

  struct Pick {
    std::size_t format;
    std::size_t variant;
  };
  std::vector<Message> msgs(kBurst);
  std::vector<Pick> sent(kBurst);
  std::vector<std::uint8_t> out;
  out.reserve(references.back().back().size());  // the 100 KB record
  int bad = 0;
  // Write the burst, drain it with next_batch, decode and verify each
  // message against its reference, then release its frame.
  const auto burst = [&](std::span<const Pick> order) {
    std::size_t expected = 0;
    for (const Pick p : order) {
      const Status st =
          p.format == event_format
              ? w.write(event_id, &events[p.variant])
              : w.write_image(formats[p.format].id,
                              formats[p.format].images[p.variant]);
      if (st.is_ok()) {
        sent[expected++] = p;
      } else {
        ++bad;
      }
    }
    std::size_t got = 0;
    while (got < expected) {
      auto n = r.next_batch(std::span(msgs.data(), expected - got));
      if (!n.is_ok()) {
        bad += static_cast<int>(expected - got);
        return;
      }
      for (std::size_t j = 0; j < n.value(); ++j) {
        const Pick p = sent[got + j];
        if (p.format == event_format) {
          NativeEvent ev{};
          const NativeEvent& ref = events[p.variant];
          if (!msgs[j].decode_into(&ev, sizeof(ev)).is_ok() ||
              ev.seq != ref.seq || ev.n != ref.n || ev.name == nullptr ||
              std::strcmp(ev.name, ref.name) != 0 || ev.samples == nullptr ||
              std::memcmp(ev.samples, ref.samples,
                          ref.n * sizeof(double)) != 0) {
            ++bad;
          }
        } else {
          const auto& ref =
              references[formats[p.format].target][p.variant];
          out.assign(ref.size(), 0);
          if (!msgs[j].decode_into(out.data(), out.size()).is_ok() ||
              std::memcmp(out.data(), ref.data(), ref.size()) != 0) {
            ++bad;
          }
        }
        msgs[j] = Message();
      }
      got += n.value();
    }
  };

  // Warm-up: a full burst of each format fills the pool with as many
  // frames of each size class as any burst can hold, and tiers every pair
  // up (the second record of a pair generates its code).
  std::vector<Pick> order(kBurst);
  for (std::size_t f = 0; f <= event_format; ++f) {
    for (std::size_t i = 0; i < kBurst; ++i) order[i] = {f, i % kVariants};
    burst(order);
  }
  ASSERT_EQ(bad, 0);

  std::size_t pos = 0;
  g_allocs = 0;
  g_counting = true;
  for (int b = 0; b < kMeasuredBursts; ++b) {
    for (Pick& p : order) {
      p = {(pos * 7 + pos / 3) % (event_format + 1), pos % kVariants};
      ++pos;
    }
    burst(order);
  }
  g_counting = false;
  const std::uint64_t allocs = g_allocs;

  EXPECT_EQ(bad, 0);
  EXPECT_EQ(allocs, 0u)
      << "steady-state hetero bulk bursts allocated " << allocs
      << " times over " << kMeasuredBursts * kBurst << " messages";
}

// The artifact cache rides the same invariant: once a conversion is
// resolved, a warm try_conversion (registry resolve + cache map hit) and a
// bare warm ArtifactCache lookup allocate nothing — a stream's resolver
// resolves an id it has not seen on this path, and 10k connections
// resolving the same pair must not churn the heap.
TEST(AllocInvariant, WarmConversionLookupAllocatesNothing) {
  Context ctx;
  const auto id = register_sample(ctx);
  ASSERT_TRUE(ctx.try_conversion(id, id).is_ok());  // compile + insert
  // One warm *hit* before counting: the hit path's obs counter registers
  // its metric name on first use, which is a one-time allocation.
  ASSERT_TRUE(ctx.try_conversion(id, id).is_ok());

  g_allocs = 0;
  g_counting = true;
  for (int i = 0; i < kMeasured; ++i) {
    auto c = ctx.try_conversion(id, id);
    if (!c.is_ok()) break;
  }
  g_counting = false;
  const std::uint64_t warm_allocs = g_allocs;
  EXPECT_EQ(warm_allocs, 0u)
      << "warm try_conversion allocated " << warm_allocs << " times";

  // The cache's own hit path, without the registry in front of it.
  auto& cache = ctx.artifact_cache();
  const auto* desc = ctx.find(id);
  ASSERT_NE(desc, nullptr);
  const auto h = fmt::canonical_hash(*desc);
  ASSERT_TRUE(cache.get_or_build(*desc, *desc, {h, h}).is_ok());
  g_allocs = 0;
  g_counting = true;
  for (int i = 0; i < kMeasured; ++i) {
    auto got = cache.get_or_build(*desc, *desc, {h, h});
    if (!got.is_ok()) break;
  }
  g_counting = false;
  const std::uint64_t hit_allocs = g_allocs;
  EXPECT_EQ(hit_allocs, 0u)
      << "warm ArtifactCache hit allocated " << hit_allocs << " times";
}

}  // namespace
}  // namespace pbio
