// Tests for the observability layer: multi-thread counter aggregation,
// histogram bucket math, snapshot determinism, the JSON exporter, the
// chrome-trace writer, and the span macros.
#include "obs/obs.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/span.h"
#include "obs/trace.h"

namespace pbio::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(ObsCounters, AggregateExactlyAcrossThreads) {
  reset();
  const MetricId id = counter("test.obs.mt_counter");
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([id] {
      for (int i = 0; i < kIters; ++i) counter_add(id, 3);
    });
  }
  for (auto& t : threads) t.join();
  // All producers joined: the snapshot must be exact, including the merged
  // totals of the already-retired thread slabs.
  const Snapshot snap = snapshot();
  const CounterSample* c = snap.find_counter("test.obs.mt_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, static_cast<std::uint64_t>(kThreads) * kIters * 3);
}

TEST(ObsCounters, RegistrationIsIdempotent) {
  const MetricId a = counter("test.obs.same");
  const MetricId b = counter("test.obs.same");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, counter("test.obs.other"));
}

std::uint64_t counter_value(const Snapshot& snap, std::string_view name) {
  const CounterSample* c = snap.find_counter(name);
  return c == nullptr ? 0 : c->value;
}

TEST(ObsCounterBlock, LiveBlocksWithOneNameSumInSnapshot) {
  reset();
  CounterBlock a{"test.obs.block.x", "test.obs.block.y"};
  CounterBlock b{"test.obs.block.x"};
  a.add(0, 3);
  a.add(1, 10);
  b.add(0, 4);
  EXPECT_EQ(a.get(0), 3u);  // each owner reads only its own share
  EXPECT_EQ(b.get(0), 4u);
  const Snapshot snap = snapshot();
  EXPECT_EQ(counter_value(snap, "test.obs.block.x"), 7u);
  EXPECT_EQ(counter_value(snap, "test.obs.block.y"), 10u);
}

TEST(ObsCounterBlock, SharesSeriesWithPerThreadCounters) {
  reset();
  CounterBlock blk{"test.obs.block.mixed"};
  blk.add(0, 5);
  counter_add(counter("test.obs.block.mixed"), 6);
  EXPECT_EQ(counter_value(snapshot(), "test.obs.block.mixed"), 11u);
}

TEST(ObsCounterBlock, DestroyedBlockSurvivesInRetiredTotals) {
  reset();
  {
    CounterBlock gone{"test.obs.block.retired"};
    gone.add(0, 9);
  }
  EXPECT_EQ(counter_value(snapshot(), "test.obs.block.retired"), 9u);
  CounterBlock next{"test.obs.block.retired"};
  next.add(0, 1);
  EXPECT_EQ(next.get(0), 1u);
  EXPECT_EQ(counter_value(snapshot(), "test.obs.block.retired"), 10u);
}

TEST(ObsCounterBlock, ResetZeroesLiveBlocks) {
  CounterBlock blk{"test.obs.block.reset"};
  blk.add(0, 41);
  reset();
  EXPECT_EQ(blk.get(0), 0u);
  EXPECT_EQ(counter_value(snapshot(), "test.obs.block.reset"), 0u);
  blk.add(0, 2);
  EXPECT_EQ(counter_value(snapshot(), "test.obs.block.reset"), 2u);
}

TEST(ObsCounterBlock, AddRacesSnapshotAndBlockTeardown) {
  // Writers bump their own block while others are created and destroyed
  // and a reader snapshots throughout: the race detector's case. Once the
  // writers joined, the retired totals hold every increment exactly.
  reset();
  constexpr int kThreads = 4;
  constexpr int kBlocksPerThread = 50;
  constexpr int kAdds = 200;
  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::uint64_t last = 0;
    while (!done.load()) {
      const std::uint64_t v = counter_value(snapshot(), "test.obs.block.race");
      EXPECT_GE(v, last);  // monotonic under concurrent teardown
      last = v;
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([] {
      for (int b = 0; b < kBlocksPerThread; ++b) {
        CounterBlock blk{"test.obs.block.race"};
        for (int i = 0; i < kAdds; ++i) blk.add(0, 1);
      }
    });
  }
  for (auto& w : writers) w.join();
  done.store(true);
  reader.join();
  EXPECT_EQ(counter_value(snapshot(), "test.obs.block.race"),
            std::uint64_t{kThreads} * kBlocksPerThread * kAdds);
}

TEST(ObsHistogram, BucketMath) {
  // Bucket 0 = {0}; bucket i = [2^(i-1), 2^i).
  EXPECT_EQ(hist_bucket(0), 0u);
  EXPECT_EQ(hist_bucket(1), 1u);
  EXPECT_EQ(hist_bucket(2), 2u);
  EXPECT_EQ(hist_bucket(3), 2u);
  EXPECT_EQ(hist_bucket(4), 3u);
  EXPECT_EQ(hist_bucket(1023), 10u);
  EXPECT_EQ(hist_bucket(1024), 11u);
  EXPECT_EQ(hist_bucket(~std::uint64_t{0}), kHistBuckets - 1);

  EXPECT_EQ(hist_bucket_upper(0), 0u);
  EXPECT_EQ(hist_bucket_upper(1), 1u);
  EXPECT_EQ(hist_bucket_upper(2), 3u);
  EXPECT_EQ(hist_bucket_upper(11), 2047u);
  // Every value lands in a bucket whose bounds contain it.
  for (std::uint64_t v : {0ull, 1ull, 7ull, 4096ull, 1234567ull}) {
    const std::uint32_t b = hist_bucket(v);
    EXPECT_LE(v, hist_bucket_upper(b));
    if (b > 0) {
      EXPECT_GT(v, hist_bucket_upper(b - 1));
    }
  }
}

TEST(ObsHistogram, RecordCountSumAndPercentiles) {
  reset();
  const MetricId id = histogram("test.obs.hist");
  for (std::uint64_t v : {0ull, 1ull, 3ull, 1024ull}) histogram_record(id, v);
  const Snapshot snap = snapshot();
  const HistogramSample* h = snap.find_histogram("test.obs.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 4u);
  EXPECT_EQ(h->sum_ns, 1028u);
  EXPECT_EQ(h->buckets[0], 1u);
  EXPECT_EQ(h->buckets[1], 1u);
  EXPECT_EQ(h->buckets[2], 1u);
  EXPECT_EQ(h->buckets[11], 1u);
  EXPECT_DOUBLE_EQ(h->mean_ns(), 257.0);
  // Cumulative crossing: p50 lands in bucket 1 (cum 2 of 4), p100 in the
  // 1024 bucket.
  EXPECT_EQ(h->percentile_ns(0.5), hist_bucket_upper(1));
  EXPECT_EQ(h->percentile_ns(1.0), hist_bucket_upper(11));
}

TEST(ObsHistogram, PercentileInterpolatesWithinBucket) {
  // Exact reference: 1024 samples spread uniformly over [1024, 2048) all
  // land in bucket 11. The sorted sample at rank ceil(p*n) is 1024+rank-1,
  // so every percentile is computable exactly — interpolation must track
  // it closely, where the old upper-bound report pinned everything at
  // 2047.
  reset();
  const MetricId id = histogram("test.obs.interp");
  for (std::uint64_t v = 1024; v < 2048; ++v) histogram_record(id, v);
  const Snapshot snap = snapshot();
  const HistogramSample* h = snap.find_histogram("test.obs.interp");
  ASSERT_NE(h, nullptr);
  ASSERT_EQ(h->count, 1024u);
  for (double p : {0.10, 0.25, 0.50, 0.90, 0.99, 0.999}) {
    const std::uint64_t exact =
        1024 + static_cast<std::uint64_t>(p * 1024.0) - 1;
    const std::uint64_t est = h->percentile_ns(p);
    EXPECT_NEAR(static_cast<double>(est), static_cast<double>(exact), 2.0)
        << "p=" << p;
    // Within the bucket's own bounds, and no longer the flat upper bound
    // for mid-bucket percentiles.
    EXPECT_GE(est, 1024u);
    EXPECT_LE(est, 2047u);
    if (p <= 0.9) {
      EXPECT_LT(est, 2047u);
    }
  }
  // Boundary behavior is unchanged: p=1.0 is the bucket upper bound.
  EXPECT_EQ(h->percentile_ns(1.0), hist_bucket_upper(11));
}

TEST(ObsSnapshot, SortedByNameAndDeterministic) {
  reset();
  counter_add(counter("test.obs.zz"), 1);
  counter_add(counter("test.obs.aa"), 2);
  histogram_record(histogram("test.obs.h_b"), 10);
  histogram_record(histogram("test.obs.h_a"), 10);
  const Snapshot s1 = snapshot();
  for (std::size_t i = 1; i < s1.counters.size(); ++i) {
    EXPECT_LT(s1.counters[i - 1].name, s1.counters[i].name);
  }
  for (std::size_t i = 1; i < s1.histograms.size(); ++i) {
    EXPECT_LT(s1.histograms[i - 1].name, s1.histograms[i].name);
  }
  // No traffic in between: a second snapshot is identical.
  const Snapshot s2 = snapshot();
  EXPECT_EQ(to_json(s1), to_json(s2));
}

TEST(ObsSnapshot, ResetZeroesValuesButKeepsNames) {
  counter_add(counter("test.obs.reset_me"), 41);
  reset();
  const Snapshot snap = snapshot();
  const CounterSample* c = snap.find_counter("test.obs.reset_me");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 0u);
}

TEST(ObsJson, ExportsCountersAndTrimmedHistograms) {
  reset();
  counter_add(counter("test.obs.json_c"), 7);
  histogram_record(histogram("test.obs.json_h"), 5);  // bucket 3
  const std::string json = to_json(snapshot());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.json_c\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"test.obs.json_h\""), std::string::npos);
  EXPECT_NE(json.find("\"sum_ns\": 5"), std::string::npos);
  // Bucket array trimmed after the last non-zero bucket (index 3).
  EXPECT_NE(json.find("[0, 0, 0, 1]"), std::string::npos);
}

TEST(ObsTrace, WriterProducesChromeTraceEvents) {
  const std::string path = testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(trace_start(path));
  EXPECT_TRUE(trace_enabled());
  const std::uint64_t t0 = ticks();
  const std::uint64_t t1 = ticks();
  trace_emit("test.obs.span_a", t0, t1, 42);
  trace_emit("test.obs.span_b", t0, t1, 0);
  EXPECT_EQ(trace_stop(), 2u);
  EXPECT_FALSE(trace_enabled());

  const std::string body = slurp(path);
  EXPECT_NE(body.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(body.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(body.find("\"name\": \"test.obs.span_a\""), std::string::npos);
  EXPECT_NE(body.find("\"name\": \"test.obs.span_b\""), std::string::npos);
  EXPECT_NE(body.find("\"args\": {\"arg\": 42}"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ObsTrace, StopWithoutStartIsNoop) { EXPECT_EQ(trace_stop(), 0u); }

TEST(ObsTiming, TicksMonotonicAndCalibrated) {
  calibrate();
  const auto wall0 = std::chrono::steady_clock::now();
  const std::uint64_t t0 = ticks();
  while (std::chrono::steady_clock::now() - wall0 <
         std::chrono::milliseconds(2)) {
  }
  const std::uint64_t t1 = ticks();
  ASSERT_GT(t1, t0);
  const std::uint64_t ns = ticks_to_ns(t1 - t0);
  // 2 ms busy wait: accept a generous window for noisy CI machines.
  EXPECT_GT(ns, 500'000u);
  EXPECT_LT(ns, 200'000'000u);
}

TEST(ObsJson, SnapshotRoundTripsThroughFromJson) {
  // The pbio_stat --watch channel: a broker dumps to_json periodically,
  // the tool re-parses it. Build a snapshot by hand so the test does not
  // depend on what other tests recorded.
  Snapshot snap;
  snap.counters.push_back({"pbio.broker.frames_in", 123456789});
  snap.counters.push_back({R"(weird "name" with \ and	tab)", 7});
  snap.counters.push_back({"zero", 0});
  HistogramSample h;
  h.name = "pbio.recv.batch_ns";
  h.count = 42;
  h.sum_ns = 99999;
  h.buckets[0] = 1;
  h.buckets[3] = 40;
  h.buckets[17] = 1;
  snap.histograms.push_back(h);

  const std::string json = to_json(snap);
  Snapshot back;
  ASSERT_TRUE(snapshot_from_json(json, &back));
  ASSERT_EQ(back.counters.size(), snap.counters.size());
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    EXPECT_EQ(back.counters[i].name, snap.counters[i].name);
    EXPECT_EQ(back.counters[i].value, snap.counters[i].value);
  }
  ASSERT_EQ(back.histograms.size(), 1u);
  EXPECT_EQ(back.histograms[0].name, h.name);
  EXPECT_EQ(back.histograms[0].count, h.count);
  EXPECT_EQ(back.histograms[0].sum_ns, h.sum_ns);
  EXPECT_EQ(back.histograms[0].buckets, h.buckets);
  // Round-tripping the reconstruction is a fixed point.
  EXPECT_EQ(to_json(back), json);
}

TEST(ObsJson, HostileMetricNamesRoundTrip) {
  // Control characters, DEL, and high-bit bytes in metric names must come
  // out as strict-JSON \uXXXX escapes and still round-trip (a hostile
  // format name reaches the registry via pbio.broker.decode_ns.<name>).
  Snapshot snap;
  snap.counters.push_back({std::string("ctl\x01\x1f\x7f"), 1});
  snap.counters.push_back({std::string("hi\xc3\xa9gh"), 2});  // UTF-8 é
  snap.counters.push_back({std::string("nul\0byte", 8), 3});
  const std::string json = to_json(snap);
  // Raw control bytes never appear in the output (the newlines are
  // to_json's own pretty-printing, not name bytes).
  for (char c : json) {
    if (c == '\n') continue;
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\u007f"), std::string::npos);
  EXPECT_NE(json.find("\\u0000"), std::string::npos);
  Snapshot back;
  ASSERT_TRUE(snapshot_from_json(json, &back));
  ASSERT_EQ(back.counters.size(), snap.counters.size());
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    EXPECT_EQ(back.counters[i].name, snap.counters[i].name);
    EXPECT_EQ(back.counters[i].value, snap.counters[i].value);
  }
  EXPECT_EQ(to_json(back), json);
}

TEST(ObsJson, FromJsonSaturatesOversizedValues) {
  // A hand-edited or corrupt dump with a value past uint64 must not wrap
  // silently; the parser saturates and keeps the snapshot usable.
  Snapshot out;
  ASSERT_TRUE(snapshot_from_json(
      R"({"counters": {"big": 99999999999999999999999}, "histograms": {}})",
      &out));
  ASSERT_EQ(out.counters.size(), 1u);
  EXPECT_EQ(out.counters[0].value, ~std::uint64_t{0});
}

TEST(ObsJson, FromJsonRejectsMalformedInput) {
  Snapshot out;
  EXPECT_FALSE(snapshot_from_json("", &out));
  EXPECT_FALSE(snapshot_from_json("{", &out));
  EXPECT_FALSE(snapshot_from_json(R"({"counters": [1,2]})", &out));
  EXPECT_FALSE(snapshot_from_json(R"({"counters": {"a": })", &out));
  EXPECT_FALSE(
      snapshot_from_json(R"({"counters": {}, "histograms": {"h": 3}})", &out));
  // The empty registry shape parses.
  EXPECT_TRUE(
      snapshot_from_json(R"({"counters": {}, "histograms": {}})", &out));
  EXPECT_TRUE(out.counters.empty());
  EXPECT_TRUE(out.histograms.empty());
}

TEST(ObsThreads, TidsAreSmallDenseAndStable) {
  const std::uint32_t here = thread_tid();
  EXPECT_GT(here, 0u);
  EXPECT_EQ(thread_tid(), here);
  std::uint32_t other = 0;
  std::thread([&] { other = thread_tid(); }).join();
  EXPECT_GT(other, 0u);
  EXPECT_NE(other, here);
}

TEST(ObsSpan, MacroRecordsIntoNamedHistogram) {
  reset();
  for (int i = 0; i < 5; ++i) {
    OBS_SPAN("test.obs.macro_span");
  }
  OBS_COUNT("test.obs.macro_count", 2);
  OBS_COUNT("test.obs.macro_count", 3);
  const Snapshot snap = snapshot();
  const HistogramSample* h = snap.find_histogram("test.obs.macro_span");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 5u);
  const CounterSample* c = snap.find_counter("test.obs.macro_count");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 5u);
}

TEST(ObsSpan, SpansFeedTraceSinkWhenEnabled) {
  const std::string path = testing::TempDir() + "obs_span_trace.json";
  ASSERT_TRUE(trace_start(path));
  {
    OBS_SPAN("test.obs.traced_span", 7);
  }
  EXPECT_EQ(trace_stop(), 1u);
  const std::string body = slurp(path);
  EXPECT_NE(body.find("\"name\": \"test.obs.traced_span\""),
            std::string::npos);
  EXPECT_NE(body.find("\"args\": {\"arg\": 7}"), std::string::npos);
  std::remove(path.c_str());
}

// Fills the registry, so it stays the last test (and suite) in this file:
// anything registered after it aliases onto the sink slot when the binary
// runs all tests in one process.
TEST(ObsRegistryFull, CounterBlockPastCapacityAliasesOntoSink) {
  for (std::uint32_t i = 0; i < kMaxCounters; ++i) {
    (void)counter("test.obs.fill." + std::to_string(i));
  }
  // Past capacity every name maps to one sink series; adding must neither
  // crash nor write outside the registry.
  CounterBlock over{"test.obs.over.a", "test.obs.over.b"};
  over.add(0, 2);
  over.add(1, 3);
  EXPECT_EQ(over.get(0), 2u);
  EXPECT_EQ(over.get(1), 3u);
  EXPECT_EQ(snapshot().find_counter("test.obs.over.a"), nullptr);
  EXPECT_EQ(snapshot().counters.size(), std::size_t{kMaxCounters});
  const auto total = [] {
    std::uint64_t sum = 0;
    for (const auto& c : snapshot().counters) sum += c.value;
    return sum;
  };
  const std::uint64_t before = total();
  {
    CounterBlock gone{"test.obs.over.c"};
    gone.add(0, 5);
  }
  const std::uint64_t after = total();
  EXPECT_EQ(after - before, 5u);  // the retired sink slot kept it
}

}  // namespace
}  // namespace pbio::obs
