// Telemetry plane tests: wire-level trace propagation (Writer -> broker ->
// Reader sidecar frames stitched into one chrome://tracing trace), the
// broker's HTTP scrape endpoint (/metrics, /healthz, /tracez), the
// Prometheus exposition, and the fault flight recorder.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "arch/layout.h"
#include "broker/broker.h"
#include "broker/http.h"
#include "fmt/meta.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "obs/prom.h"
#include "obs/trace.h"
#include "obs/tracectx.h"
#include "pbio/pbio.h"
#include "transport/socket.h"
#include "transport/wire.h"
#include "value/materialize.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PBIO_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define PBIO_TEST_SANITIZED 1
#endif
#endif

namespace pbio {
namespace {

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return {};
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// --- sidecar frame codec ----------------------------------------------------

TEST(TraceWire, FrameRoundTrips) {
  obs::TraceCtx ctx;
  ctx.trace_id = 0x0123456789abcdefull;
  ctx.span_id = 0xfedcba9876543210ull;
  ctx.origin_ns = 1'722'000'000'123'456'789ull;
  std::uint8_t frame[kTraceFrameLen];
  encode_trace_frame(frame, ctx);
  EXPECT_EQ(frame[0], kFrameTrace);

  obs::TraceCtx back;
  ASSERT_TRUE(decode_trace_frame(frame, &back));
  EXPECT_EQ(back.trace_id, ctx.trace_id);
  EXPECT_EQ(back.span_id, ctx.span_id);
  EXPECT_EQ(back.origin_ns, ctx.origin_ns);
}

TEST(TraceWire, DecodeRejectsWrongSizeOrKind) {
  std::uint8_t frame[kTraceFrameLen] = {};
  frame[0] = kFrameTrace;
  obs::TraceCtx out;
  EXPECT_TRUE(decode_trace_frame(frame, &out));
  EXPECT_FALSE(decode_trace_frame(
      std::span<const std::uint8_t>(frame, 31), &out));
  frame[0] = 0x41;
  EXPECT_FALSE(decode_trace_frame(frame, &out));
}

TEST(TraceCtx, SamplingIsDeterministicPerMille) {
  // Bresenham accumulator: over 1000 draws at rate r exactly r fire. Run
  // on a fresh thread so this test owns the accumulator's initial state.
  for (std::uint32_t pm : {0u, 1u, 250u, 1000u}) {
    obs::set_trace_sampling(pm);
    std::uint32_t fired = 0;
    std::thread([&] {
      for (int i = 0; i < 1000; ++i) {
        if (obs::trace_sample()) ++fired;
      }
    }).join();
    EXPECT_EQ(fired, pm) << "rate " << pm;
  }
  obs::set_trace_sampling(2000);  // clamps
  EXPECT_EQ(obs::trace_sampling(), 1000u);
  obs::set_trace_sampling(0);
}

TEST(TraceCtx, FreshContextsHaveDistinctNonzeroIds) {
  const obs::TraceCtx a = obs::make_trace_ctx();
  const obs::TraceCtx b = obs::make_trace_ctx();
  EXPECT_TRUE(a.valid());
  EXPECT_TRUE(b.valid());
  EXPECT_NE(a.trace_id, b.trace_id);
  EXPECT_NE(a.span_id, 0u);
  EXPECT_GT(a.origin_ns, 1'500'000'000ull * 1'000'000'000ull);  // after 2017
}

// --- prometheus exposition --------------------------------------------------

TEST(Prom, NameSanitizesToMetricCharset) {
  EXPECT_EQ(obs::prom_name("pbio.broker.frames_in"), "pbio_broker_frames_in");
  EXPECT_EQ(obs::prom_name("9lives"), "_9lives");
  EXPECT_EQ(obs::prom_name(""), "_");
  EXPECT_EQ(obs::prom_name("a:b-c d\x01~"), "a:b_c_d__");
  EXPECT_EQ(obs::prom_name("pbio.broker.decode_ns.rec->rec"),
            "pbio_broker_decode_ns_rec__rec");
}

TEST(Prom, ExposesCountersAndSummaries) {
  obs::Snapshot snap;
  snap.counters.push_back({"pbio.broker.frames_in", 42});
  obs::HistogramSample h;
  h.name = "pbio.recv.batch_ns";
  for (std::uint64_t v = 1024; v < 1024 + 100; ++v) {
    h.buckets[obs::hist_bucket(v)]++;
    h.sum_ns += v;
    h.count++;
  }
  snap.histograms.push_back(h);

  const std::string text = obs::to_prometheus(snap);
  EXPECT_NE(text.find("# TYPE pbio_broker_frames_in counter\n"
                      "pbio_broker_frames_in 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE pbio_recv_batch_ns summary\n"), std::string::npos);
  EXPECT_NE(text.find("pbio_recv_batch_ns{quantile=\"0.5\"} "),
            std::string::npos);
  EXPECT_NE(text.find("pbio_recv_batch_ns{quantile=\"0.99\"} "),
            std::string::npos);
  EXPECT_NE(text.find("pbio_recv_batch_ns{quantile=\"0.999\"} "),
            std::string::npos);
  EXPECT_NE(text.find("pbio_recv_batch_ns_sum " + std::to_string(h.sum_ns)),
            std::string::npos);
  EXPECT_NE(text.find("pbio_recv_batch_ns_count 100"), std::string::npos);
  // Nothing non-finite ever reaches the page.
  EXPECT_EQ(text.find("nan"), std::string::npos);
  EXPECT_EQ(text.find("inf"), std::string::npos);
}

// --- flight recorder --------------------------------------------------------

TEST(Flight, RecordDumpParseRoundTrip) {
  const std::string path = testing::TempDir() + "flight_manual.dump";
  obs::flight_arm(path);
  ASSERT_TRUE(obs::flight_armed());
  obs::flight_record(obs::FlightKind::kMark, 42, 43);
  obs::flight_record(obs::FlightKind::kAccept, 7);
  obs::flight_record(obs::FlightKind::kShedInflight, 7, 99);
  ASSERT_GT(obs::flight_dump("test"), 0u);

  std::vector<obs::FlightEvent> events;
  ASSERT_TRUE(obs::flight_parse(slurp(path), &events));
  bool saw_mark = false, saw_shed = false;
  for (const auto& e : events) {
    if (e.kind == obs::FlightKind::kMark && e.a == 42 && e.b == 43) {
      saw_mark = true;
      EXPECT_EQ(e.tid, obs::thread_tid());
      EXPECT_GT(e.ns, 0u);
    }
    if (e.kind == obs::FlightKind::kShedInflight && e.a == 7 && e.b == 99) {
      saw_shed = true;
    }
  }
  EXPECT_TRUE(saw_mark);
  EXPECT_TRUE(saw_shed);
  std::remove(path.c_str());
}

TEST(Flight, Sigusr2DumpsWithoutDying) {
  const std::string path = testing::TempDir() + "flight_usr2.dump";
  obs::flight_arm(path);
  obs::flight_record(obs::FlightKind::kMark, 1234, 5678);
  ASSERT_EQ(::raise(SIGUSR2), 0);  // handler dumps and returns

  std::vector<obs::FlightEvent> events;
  ASSERT_TRUE(obs::flight_parse(slurp(path), &events));
  bool found = false;
  for (const auto& e : events) {
    found = found ||
            (e.kind == obs::FlightKind::kMark && e.a == 1234 && e.b == 5678);
  }
  EXPECT_TRUE(found);
  std::remove(path.c_str());
}

TEST(Flight, ParseRejectsGarbage) {
  std::vector<obs::FlightEvent> events;
  EXPECT_FALSE(obs::flight_parse("", &events));
  EXPECT_FALSE(obs::flight_parse("not a flight dump\n", &events));
  EXPECT_FALSE(obs::flight_parse("pbio-flight v1 reason=x pid=1 now=2\n",
                                 &events));  // missing end trailer
}

TEST(Flight, RingWraparoundKeepsNewestEvents) {
  // Overflow the calling thread's ring by 50 events: the dump must report
  // exactly kFlightRingEvents for this thread — the newest ones, with the
  // oldest 50 evicted. The sentinel b distinguishes this test's events
  // from whatever earlier tests left in the shared per-thread ring.
  const std::string path = testing::TempDir() + "flight_wrap.dump";
  obs::flight_arm(path);
  constexpr std::uint64_t kSentinel = 0x5174;
  constexpr std::uint64_t kTotal = obs::kFlightRingEvents + 50;
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    obs::flight_record(obs::FlightKind::kMark, i, kSentinel);
  }
  ASSERT_GT(obs::flight_dump("wrap"), 0u);

  std::vector<obs::FlightEvent> events;
  ASSERT_TRUE(obs::flight_parse(slurp(path), &events));
  std::vector<std::uint64_t> mine;
  std::size_t this_thread = 0;
  for (const auto& e : events) {
    if (e.tid == obs::thread_tid()) {
      ++this_thread;
      if (e.kind == obs::FlightKind::kMark && e.b == kSentinel) {
        mine.push_back(e.a);
      }
    }
  }
  // The whole ring is this test's events (we wrote more than it holds)...
  EXPECT_EQ(this_thread, obs::kFlightRingEvents);
  ASSERT_EQ(mine.size(), obs::kFlightRingEvents);
  // ...and they are exactly the newest kFlightRingEvents, in write order.
  for (std::size_t i = 0; i < mine.size(); ++i) {
    EXPECT_EQ(mine[i], kTotal - obs::kFlightRingEvents + i) << i;
  }
  std::remove(path.c_str());
}

TEST(Flight, DumpDuringConcurrentWriteStaysParseable) {
  // The dump path races live writers by design (it runs in signal
  // handlers): every dump taken while another thread hammers its ring
  // must still parse — the release-store idx publish means a reader sees
  // only complete events. A SIGUSR2 mid-write exercises the actual
  // handler as one of the dumps.
  const std::string path = testing::TempDir() + "flight_race.dump";
  obs::flight_arm(path);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      obs::flight_record(obs::FlightKind::kMark, i++, 0xace);
    }
  });
  for (int round = 0; round < 20; ++round) {
    if (round == 10) {
      ASSERT_EQ(::raise(SIGUSR2), 0);  // handler dump racing the writer
    } else {
      obs::flight_dump("race");
    }
    std::vector<obs::FlightEvent> events;
    ASSERT_TRUE(obs::flight_parse(slurp(path), &events)) << "round " << round;
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();

  // After the writer quiesces, its events are visible in a final dump.
  ASSERT_GT(obs::flight_dump("final"), 0u);
  std::vector<obs::FlightEvent> events;
  ASSERT_TRUE(obs::flight_parse(slurp(path), &events));
  bool saw_writer = false;
  for (const auto& e : events) {
    saw_writer = saw_writer ||
                 (e.kind == obs::FlightKind::kMark && e.b == 0xace);
  }
  EXPECT_TRUE(saw_writer);
  std::remove(path.c_str());
}

TEST(Flight, ExitedThreadsReturnTheirRings) {
  // More short-lived recording threads, one after another, than the
  // recorder has rings: each finds the ring an exited thread returned, so
  // the last thread's event reaches the dump and nothing is dropped.
  const std::string path = testing::TempDir() + "flight_reuse.dump";
  obs::flight_arm(path);
  constexpr std::uint64_t kThreads = 200;
  constexpr std::uint64_t kSentinel = 0x7e5e;
  for (std::uint64_t i = 0; i < kThreads; ++i) {
    std::thread([i] {
      obs::flight_record(obs::FlightKind::kMark, i, kSentinel);
    }).join();
  }
  ASSERT_GT(obs::flight_dump("reuse"), 0u);

  std::vector<obs::FlightEvent> events;
  ASSERT_TRUE(obs::flight_parse(slurp(path), &events));
  bool saw_last = false;
  for (const auto& e : events) {
    saw_last = saw_last || (e.kind == obs::FlightKind::kMark &&
                            e.a == kThreads - 1 && e.b == kSentinel);
  }
  EXPECT_TRUE(saw_last);
  const obs::Snapshot snap = obs::snapshot();
  const obs::CounterSample* dropped = snap.find_counter("obs.flight.dropped");
  EXPECT_EQ(dropped == nullptr ? 0u : dropped->value, 0u);
  std::remove(path.c_str());
}

#ifndef PBIO_TEST_SANITIZED
TEST(Flight, SegfaultingChildWritesParseableDump) {
  // The post-mortem path end to end: a forked child arms the recorder,
  // logs events, and dies on a real SIGSEGV — the signal handler must get
  // the dump out before the default disposition kills the process.
  // Sanitizer builds intercept SIGSEGV themselves, so this runs in plain
  // builds only (the SIGUSR2 test above covers the dump path everywhere).
  const std::string path = testing::TempDir() + "flight_segv.dump";
  std::remove(path.c_str());
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    obs::flight_arm(path);
    obs::flight_record(obs::FlightKind::kMark, 0xdead, 0xbeef);
    volatile int* p = nullptr;
    *p = 1;  // SIGSEGV: handler dumps, re-raises, child dies
    ::_exit(0);  // unreachable
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  EXPECT_EQ(WTERMSIG(wstatus), SIGSEGV);

  std::vector<obs::FlightEvent> events;
  ASSERT_TRUE(obs::flight_parse(slurp(path), &events)) << slurp(path);
  bool found = false;
  for (const auto& e : events) {
    found = found || (e.kind == obs::FlightKind::kMark && e.a == 0xdead &&
                      e.b == 0xbeef);
  }
  EXPECT_TRUE(found);
  std::remove(path.c_str());
}
#endif  // PBIO_TEST_SANITIZED

// --- HTTP scrape endpoint ---------------------------------------------------

std::string http_get(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {  // wire-lint: ok sockaddr cast
    ::close(fd);
    return {};
  }
  std::size_t at = 0;
  while (at < request.size()) {
    const ssize_t w = ::write(fd, request.data() + at, request.size() - at);
    if (w <= 0) break;
    at += static_cast<std::size_t>(w);
  }
  std::string resp;
  char buf[4096];
  ssize_t r;
  while ((r = ::read(fd, buf, sizeof buf)) > 0) {
    resp.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);
  return resp;
}

TEST(Scrape, ServesMetricsHealthzAndTracez) {
  Context ctx;
  broker::Config cfg;
  cfg.scrape_port = 0;  // ephemeral
  broker::Broker b(ctx, cfg);
  ASSERT_TRUE(b.start().is_ok());
  ASSERT_NE(b.scrape_port(), 0);

  // Some traffic so /metrics has pbio.broker.* series to serve.
  auto ch = transport::socket_connect(b.port());
  ASSERT_TRUE(ch.is_ok());
  std::vector<std::uint8_t> frame(kDataHeaderSize + 16, 3);
  std::fill_n(frame.begin(), kDataHeaderSize, std::uint8_t{0});
  frame[0] = kFrameData;
  ASSERT_TRUE(ch.value()->send(frame).is_ok());
  ASSERT_TRUE(ch.value()->recv().is_ok());

  const std::string metrics =
      http_get(b.scrape_port(), "GET /metrics HTTP/1.0\r\n\r\n");
  EXPECT_EQ(metrics.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << metrics;
  EXPECT_NE(metrics.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics.find("pbio_broker_frames_in 1"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("# TYPE pbio_broker_connections gauge"),
            std::string::npos);
  EXPECT_NE(metrics.find("pbio_broker_connections 1"), std::string::npos);

  const std::string healthz =
      http_get(b.scrape_port(), "GET /healthz HTTP/1.0\r\n\r\n");
  EXPECT_EQ(healthz.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(healthz.find("Content-Type: application/json"), std::string::npos);
  EXPECT_NE(healthz.find("\"ok\": true"), std::string::npos);
  EXPECT_NE(healthz.find("\"max_connections\": 8192"), std::string::npos);

  const std::string tracez =
      http_get(b.scrape_port(), "GET /tracez HTTP/1.0\r\n\r\n");
  EXPECT_EQ(tracez.rfind("HTTP/1.0 200 OK\r\n", 0), 0u);
  EXPECT_NE(tracez.find("# trace"), std::string::npos);

  EXPECT_EQ(http_get(b.scrape_port(), "GET /nope HTTP/1.0\r\n\r\n")
                .rfind("HTTP/1.0 404", 0),
            0u);
  EXPECT_EQ(http_get(b.scrape_port(), "POST /metrics HTTP/1.0\r\n\r\n")
                .rfind("HTTP/1.0 405", 0),
            0u);

  // A data connection still round-trips while scrapes fly.
  ASSERT_TRUE(ch.value()->send(frame).is_ok());
  EXPECT_TRUE(ch.value()->recv().is_ok());
  b.stop();
  obs::reset();  // don't leak counters into later tests
}

TEST(Scrape, ServesEveryCounterBehindTheStatsViews) {
  // Series that used to exist only inside a stats() struct: /metrics
  // serves them straight from the counters those structs read.
  Context ctx;
  broker::Config cfg;
  cfg.scrape_port = 0;
  broker::Broker b(ctx, cfg);
  ASSERT_TRUE(b.start().is_ok());
  auto ch = transport::socket_connect(b.port());
  ASSERT_TRUE(ch.is_ok());
  FormatServiceClient client(*ch.value());
  EXPECT_EQ(client.lookup(0x1234).status().code(), Errc::kUnknownFormat);

  const std::string metrics =
      http_get(b.scrape_port(), "GET /metrics HTTP/1.0\r\n\r\n");
  for (const char* series :
       {"pbio_pool_recycled ", "pbio_cache_jit_code_bytes ",
        "pbio_cache_misses ", "pbio_cache_single_flight_waits ",
        "pbio_cache_compiles ", "pbio_broker_frames_in "}) {
    EXPECT_NE(metrics.find(std::string("\n") + series), std::string::npos)
        << series << "missing from\n" << metrics;
  }
  EXPECT_NE(metrics.find("\npbio_svc_requests 1\n"), std::string::npos)
      << metrics;
  b.stop();
}

TEST(Scrape, OffByDefault) {
  Context ctx;
  broker::Broker b(ctx);
  ASSERT_TRUE(b.start().is_ok());
  EXPECT_EQ(b.scrape_port(), 0);
  b.stop();
}

// --- end-to-end stitched trace ----------------------------------------------

struct TSample {
  int a;
  double b;
};

TEST(Telemetry, OneSampledMessageStitchesOneCrossHopTrace) {
  // The tentpole invariant: with sampling on, one message's journey —
  // Writer encode, broker ingress, broker queue residency, Reader recv,
  // Reader decode — lands in the chrome export as spans sharing one trace
  // id, anchored on the Writer's origin timestamp.
  const std::string path = testing::TempDir() + "telemetry_e2e.json";
  obs::clear_recent_traces();
  obs::set_trace_sampling(1000);
  ASSERT_TRUE(obs::trace_start(path));

  Context ctx;
  broker::Broker b(ctx);  // echo mode, shared Context
  ASSERT_TRUE(b.start().is_ok());

  const NativeField fields[] = {
      PBIO_FIELD(TSample, a, arch::CType::kInt),
      PBIO_FIELD(TSample, b, arch::CType::kDouble),
  };
  const auto native_id =
      ctx.register_format(native_format("tsample", fields, sizeof(TSample)));
  arch::StructSpec spec;
  spec.name = "tsample";
  spec.fields = {{.name = "a", .type = arch::CType::kInt},
                 {.name = "b", .type = arch::CType::kDouble}};
  const auto wire_fmt = arch::layout_format(spec, arch::abi_sparc_v8());
  const auto wire_id = ctx.register_format(wire_fmt);

  value::Record rec;
  rec.set("a", value::Value(41));
  rec.set("b", value::Value(6.5));
  const auto image = value::materialize(wire_fmt, rec);

  auto ch = transport::socket_connect(b.port());
  ASSERT_TRUE(ch.is_ok());
  Writer w(ctx, *ch.value());
  Reader r(ctx, *ch.value());
  r.expect(native_id);

  ASSERT_TRUE(w.write_image(wire_id, image).is_ok());
  auto msg = r.next();
  ASSERT_TRUE(msg.is_ok()) << msg.status().to_string();
  EXPECT_TRUE(msg.value().trace().valid());
  const std::uint64_t trace_id = msg.value().trace().trace_id;

  TSample out{};
  ASSERT_TRUE(msg.value().decode_into(&out, sizeof(out)).is_ok());
  EXPECT_EQ(out.a, 41);
  EXPECT_EQ(out.b, 6.5);

  b.stop();  // workers flush; queue-residency spans land before stop returns
  obs::set_trace_sampling(0);
  EXPECT_GT(obs::trace_stop(), 0u);

  // Every hop present, all sharing the message's 16-hex-digit trace id.
  char want[32];
  std::snprintf(want, sizeof want, "\"trace\": \"%016llx\"",
                static_cast<unsigned long long>(trace_id));
  const std::string body = slurp(path);
  std::map<std::string, double> ts;  // span name -> ts (us)
  for (const char* name :
       {"pbio.trace.encode", "pbio.trace.ingress", "pbio.trace.queue",
        "pbio.trace.recv", "pbio.trace.decode"}) {
    const std::string tag = std::string("\"name\": \"") + name + "\"";
    const std::size_t at = body.find(tag);
    ASSERT_NE(at, std::string::npos) << name << " span missing:\n" << body;
    const std::size_t eol = body.find('\n', at);
    const std::string line = body.substr(at, eol - at);
    EXPECT_NE(line.find(want), std::string::npos)
        << name << " not stitched to trace " << want << ": " << line;
    const std::size_t ts_at = line.find("\"ts\": ");
    ASSERT_NE(ts_at, std::string::npos);
    ts[name] = std::strtod(line.c_str() + ts_at + 6, nullptr);
  }
  // Causal order along the writer -> broker -> reader path. recv/queue can
  // interleave (the sidecar is forwarded ahead of the echoed frame), so
  // only the strictly ordered chain is pinned.
  EXPECT_LE(ts["pbio.trace.encode"], ts["pbio.trace.ingress"]);
  EXPECT_LE(ts["pbio.trace.ingress"], ts["pbio.trace.queue"]);
  EXPECT_LE(ts["pbio.trace.recv"], ts["pbio.trace.decode"]);

  // Real pid + Perfetto metadata events for multi-process loading.
  char pid_tag[64];
  std::snprintf(pid_tag, sizeof pid_tag, "\"pid\": %ld",
                static_cast<long>(::getpid()));
  EXPECT_NE(body.find(pid_tag), std::string::npos);
  EXPECT_NE(body.find("\"name\": \"process_name\", \"ph\": \"M\""),
            std::string::npos);
  EXPECT_NE(body.find("\"name\": \"thread_name\", \"ph\": \"M\""),
            std::string::npos);

  // The spans also landed in the recent ring (the /tracez source).
  bool in_ring = false;
  for (const auto& t : obs::recent_traces()) {
    in_ring = in_ring || t.trace_id == trace_id;
  }
  EXPECT_TRUE(in_ring);
  std::remove(path.c_str());
  obs::reset();
}

TEST(Telemetry, UnsampledTrafficCarriesNoSidecar) {
  obs::set_trace_sampling(0);
  Context ctx;
  broker::Broker b(ctx);
  ASSERT_TRUE(b.start().is_ok());

  const NativeField fields[] = {
      PBIO_FIELD(TSample, a, arch::CType::kInt),
      PBIO_FIELD(TSample, b, arch::CType::kDouble),
  };
  const auto native_id = ctx.register_format(
      native_format("tsample_off", fields, sizeof(TSample)));
  arch::StructSpec spec;
  spec.name = "tsample_off";
  spec.fields = {{.name = "a", .type = arch::CType::kInt},
                 {.name = "b", .type = arch::CType::kDouble}};
  const auto wire_fmt = arch::layout_format(spec, arch::abi_sparc_v8());
  const auto wire_id = ctx.register_format(wire_fmt);
  value::Record rec;
  rec.set("a", value::Value(1));
  rec.set("b", value::Value(2.0));
  const auto image = value::materialize(wire_fmt, rec);

  auto ch = transport::socket_connect(b.port());
  ASSERT_TRUE(ch.is_ok());
  Writer w(ctx, *ch.value());
  Reader r(ctx, *ch.value());
  r.expect(native_id);
  ASSERT_TRUE(w.write_image(wire_id, image).is_ok());
  auto msg = r.next();
  ASSERT_TRUE(msg.is_ok());
  EXPECT_FALSE(msg.value().trace().valid());
  b.stop();
  obs::reset();
}
TEST(Telemetry, SidecarOfAFailedDataFrameStampsNoLaterMessage) {
  // A sidecar describes the data frame right after it. When that frame
  // fails, the sidecar goes with it: the next message is unsampled.
  obs::set_trace_sampling(0);
  Context ctx;
  const NativeField fields[] = {
      PBIO_FIELD(TSample, a, arch::CType::kInt),
      PBIO_FIELD(TSample, b, arch::CType::kDouble),
  };
  const auto native_id = ctx.register_format(
      native_format("tsample_lost", fields, sizeof(TSample)));
  arch::StructSpec spec;
  spec.name = "tsample_lost";
  spec.fields = {{.name = "a", .type = arch::CType::kInt},
                 {.name = "b", .type = arch::CType::kDouble}};
  const auto wire_fmt = arch::layout_format(spec, arch::abi_sparc_v8());
  value::Record rec;
  rec.set("a", value::Value(5));
  rec.set("b", value::Value(0.5));
  const auto image = value::materialize(wire_fmt, rec);
  std::vector<std::uint8_t> data(kDataHeaderSize, 0);
  data[0] = kFrameData;
  store_uint(data.data() + kDataHeaderIdOffset, wire_fmt.fingerprint(), 8,
             ByteOrder::kLittle);
  data.insert(data.end(), image.begin(), image.end());
  std::vector<std::uint8_t> announce{kFrameFormat};
  const auto meta = fmt::encode_meta(wire_fmt);
  announce.insert(announce.end(), meta.begin(), meta.end());

  obs::TraceCtx tc;
  tc.trace_id = 0x1234;
  tc.span_id = 0x5678;
  std::uint8_t sidecar[kTraceFrameLen];
  encode_trace_frame(sidecar, tc);
  auto flipped = data;
  flipped[kDataHeaderIdOffset] ^= 1;

  auto [tx, rx] = transport::make_loopback_pair();
  Reader r(ctx, *rx);
  r.expect(native_id);
  ASSERT_TRUE(tx->send(std::span<const std::uint8_t>(sidecar)).is_ok());
  ASSERT_TRUE(tx->send(flipped).is_ok());
  auto failed = r.next();
  ASSERT_FALSE(failed.is_ok());
  EXPECT_EQ(failed.status().code(), Errc::kUnknownFormat);

  ASSERT_TRUE(tx->send(announce).is_ok());
  ASSERT_TRUE(tx->send(data).is_ok());
  auto msg = r.next();
  ASSERT_TRUE(msg.is_ok()) << msg.status().to_string();
  EXPECT_FALSE(msg.value().trace().valid());
  obs::reset();
}

// The sidecar frame is protocol surface: a bare sidecar from a peer must
// not drop the connection — here the raw frame goes straight at a broker.
TEST(Telemetry, BrokerToleratesBareSidecarFrames) {
  Context ctx;
  broker::Broker b(ctx);
  ASSERT_TRUE(b.start().is_ok());
  auto ch = transport::socket_connect(b.port());
  ASSERT_TRUE(ch.is_ok());

  obs::TraceCtx tc;
  tc.trace_id = 0x1111;
  tc.span_id = 0x2222;
  tc.origin_ns = 3;
  std::uint8_t sidecar[kTraceFrameLen];
  encode_trace_frame(sidecar, tc);
  ASSERT_TRUE(
      ch.value()
          ->send(std::vector<std::uint8_t>(sidecar,
                                           sidecar + sizeof sidecar))
          .is_ok());

  // The next data frame still echoes — and the broker forwards the
  // sidecar ahead of it with the trace id intact and a fresh span id.
  std::vector<std::uint8_t> frame(kDataHeaderSize + 8, 5);
  std::fill_n(frame.begin(), kDataHeaderSize, std::uint8_t{0});
  frame[0] = kFrameData;
  ASSERT_TRUE(ch.value()->send(frame).is_ok());
  auto first = ch.value()->recv();
  ASSERT_TRUE(first.is_ok());
  obs::TraceCtx fwd;
  ASSERT_TRUE(decode_trace_frame(first.value(), &fwd))
      << "expected the forwarded trace sidecar ahead of the echo";
  EXPECT_EQ(fwd.trace_id, tc.trace_id);
  EXPECT_EQ(fwd.origin_ns, tc.origin_ns);
  EXPECT_NE(fwd.span_id, tc.span_id);
  auto echo = ch.value()->recv();
  ASSERT_TRUE(echo.is_ok());
  EXPECT_EQ(echo.value(), frame);
  EXPECT_EQ(b.stats().protocol_errors, 0u);

  // A malformed sidecar (truncated) is a protocol error and drops only
  // that connection.
  auto bad = transport::socket_connect(b.port());
  ASSERT_TRUE(bad.is_ok());
  std::vector<std::uint8_t> runt{kFrameTrace, 0, 0, 0};
  ASSERT_TRUE(bad.value()->send(runt).is_ok());
  auto dropped = bad.value()->recv();
  EXPECT_EQ(dropped.status().code(), Errc::kChannelClosed);
  ASSERT_TRUE(eventually([&] { return b.stats().protocol_errors >= 1; }));
  b.stop();
}


// --- one count per wire-path event -------------------------------------------

/// One snapshot's counter values and histogram sample counts, by name.
struct Series {
  obs::Snapshot snap = obs::snapshot();
  std::uint64_t counter(const std::string& name) const {
    const obs::CounterSample* c = snap.find_counter(name);
    return c == nullptr ? 0 : c->value;
  }
  std::uint64_t samples(const std::string& name) const {
    const obs::HistogramSample* h = snap.find_histogram(name);
    return h == nullptr ? 0 : h->count;
  }
};

TEST(Obs, EachWirePathEventCountsOnce) {
  // A Reader stream, a decoding broker echo, a standalone socket pair and a
  // frame log in one process: each decode, frame and byte lands in exactly
  // one series,
  // and the series that used to repeat another are not registered at all.
  obs::set_trace_sampling(0);
  const char* const kSocket[] = {
      "transport.socket.read_calls", "transport.socket.send_calls",
      "transport.socket.msgs_in",    "transport.socket.msgs_out",
      "transport.socket.bytes_in",   "transport.socket.bytes_out"};
  const auto decodes = [](const Series& s) {
    return s.samples("pbio.decode.dcg") + s.samples("pbio.decode.interp");
  };
  Context ctx;
  const NativeField fields[] = {
      PBIO_FIELD(TSample, a, arch::CType::kInt),
      PBIO_FIELD(TSample, b, arch::CType::kDouble),
  };
  const auto native_id = ctx.register_format(
      native_format("tsample_once", fields, sizeof(TSample)));
  arch::StructSpec spec;
  spec.name = "tsample_once";
  spec.fields = {{.name = "a", .type = arch::CType::kInt},
                 {.name = "b", .type = arch::CType::kDouble}};
  const auto wire_fmt = arch::layout_format(spec, arch::abi_sparc_v8());
  const auto wire_id = ctx.register_format(wire_fmt);
  value::Record rec;
  rec.set("a", value::Value(3));
  rec.set("b", value::Value(1.5));
  const auto image = value::materialize(wire_fmt, rec);
  constexpr std::size_t kRecords = 8;

  // Reader over loopback, in batches: one decode-span sample per record,
  // and no pbio.recv.next sample from a batch's first receive.
  {
    auto [tx, rx] = transport::make_loopback_pair();
    Writer w(ctx, *tx);
    Reader r(ctx, *rx);
    r.expect(native_id);
    const Series before;
    for (std::size_t i = 0; i < kRecords; ++i) {
      ASSERT_TRUE(w.write_image(wire_id, image).is_ok());
    }
    Message batch[3];
    for (std::size_t got = 0; got < kRecords;) {
      auto n = r.next_batch(batch);
      ASSERT_TRUE(n.is_ok()) << n.status().to_string();
      for (std::size_t i = 0; i < n.value(); ++i, ++got) {
        TSample out{};
        ASSERT_TRUE(batch[i].decode_into(&out, sizeof out).is_ok());
        EXPECT_EQ(out.a, 3);
      }
    }
    const Series after;
    EXPECT_EQ(decodes(after) - decodes(before), kRecords);
    EXPECT_EQ(after.samples("pbio.recv.next"),
              before.samples("pbio.recv.next"));
  }

  // A decoding broker echo. The client counts into a block of its own, so
  // any transport.socket.* movement here would be the broker's.
  broker::Config cfg;
  cfg.decode = true;
  broker::Broker b(ctx, cfg);
  b.expect("tsample_once", native_id);
  ASSERT_TRUE(b.start().is_ok());
  obs::CounterBlock client_counts{
      "test.client.read_calls", "test.client.send_calls",
      "test.client.msgs_in",    "test.client.msgs_out",
      "test.client.bytes_in",   "test.client.bytes_out"};
  auto conn = transport::socket_connect(b.port());
  ASSERT_TRUE(conn.is_ok());
  transport::SocketChannel client(::dup(conn.value()->fd()),
                                  BufferPool::shared(), transport::kStreamChunk,
                                  {&client_counts, 0, 1, 2, 3, 4, 5});
  conn.value().reset();  // closes its own descriptor only
  std::vector<std::uint8_t> announce{kFrameFormat};
  const auto meta = fmt::encode_meta(wire_fmt);
  announce.insert(announce.end(), meta.begin(), meta.end());
  std::vector<std::uint8_t> data(kDataHeaderSize, 0);
  data[0] = kFrameData;
  store_uint(data.data() + kDataHeaderIdOffset, wire_fmt.fingerprint(), 8,
             ByteOrder::kLittle);
  data.insert(data.end(), image.begin(), image.end());
  // Warm-up: the announcement and one echo, fully flushed, so the deltas
  // below cover data frames only.
  ASSERT_TRUE(client.send(announce).is_ok());
  ASSERT_TRUE(client.send(data).is_ok());
  ASSERT_TRUE(client.recv_buf().is_ok());
  ASSERT_TRUE(eventually([&] { return b.stats().frames_out == 1; }));
  const Series before;
  for (std::size_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(client.send(data).is_ok());
    auto echo = client.recv_buf();
    ASSERT_TRUE(echo.is_ok()) << echo.status().to_string();
    EXPECT_EQ(echo.value().size(), data.size());
  }
  b.stop();  // the workers' last counts land before stop returns
  const Series after;
  const auto delta = [&](const std::string& name) {
    return after.counter(name) - before.counter(name);
  };
  const std::uint64_t wire =
      kRecords * (kFrameHeaderLen + data.size());
  EXPECT_EQ(delta("pbio.broker.frames_in"), kRecords);
  EXPECT_EQ(delta("pbio.broker.decoded"), kRecords);
  EXPECT_EQ(delta("pbio.broker.bytes_in"), wire);
  EXPECT_EQ(delta("pbio.broker.bytes_out"), wire);
  EXPECT_EQ(delta("test.client.bytes_in"), wire);
  EXPECT_EQ(decodes(after) - decodes(before), kRecords);
  const std::string pair = "pbio.broker.decode_ns.tsample_once->tsample_once";
  EXPECT_EQ(after.samples(pair) - before.samples(pair), kRecords);
  for (const char* name : kSocket) EXPECT_EQ(delta(name), 0u) << name;

  // A standalone socket pair counts into transport.socket.*, in wire bytes
  // on both sides.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  transport::SocketChannel tx(fds[0]);
  transport::SocketChannel rx(fds[1]);
  const std::vector<std::uint8_t> small(3, 1), large(100, 2);
  const Series pair0;
  ASSERT_TRUE(tx.send(small).is_ok());
  ASSERT_TRUE(tx.send(large).is_ok());
  ASSERT_TRUE(rx.recv_buf().is_ok());
  ASSERT_TRUE(rx.recv_buf().is_ok());
  const Series pair1;
  const auto moved = [&](const char* name) {
    return pair1.counter(name) - pair0.counter(name);
  };
  const std::uint64_t pair_wire = 2 * kFrameHeaderLen + 3 + 100;
  EXPECT_EQ(moved("transport.socket.bytes_out"), pair_wire);
  EXPECT_EQ(moved("transport.socket.bytes_in"), pair_wire);
  EXPECT_EQ(moved("transport.socket.msgs_out"), 2u);
  EXPECT_EQ(moved("transport.socket.msgs_in"), 2u);

  // A frame log and a loopback pair count the same wire bytes, and a write
  // that fails counts once in pbio.encode.failed beside its span sample.
  const std::filesystem::path log =
      std::filesystem::temp_directory_path() /
      ("pbio_counts_once_" + std::to_string(::getpid()) + ".log");
  {
    auto fw = transport::FileWriteChannel::open(log.string());
    ASSERT_TRUE(fw.is_ok());
    ASSERT_TRUE(fw.value()->send(small).is_ok());
    ASSERT_TRUE(fw.value()->send(large).is_ok());
    ASSERT_TRUE(fw.value()->flush().is_ok());
    auto fr = transport::FileReadChannel::open(log.string());
    ASSERT_TRUE(fr.is_ok());
    ASSERT_TRUE(fr.value()->recv_buf().is_ok());
    ASSERT_TRUE(fr.value()->recv_buf().is_ok());
    auto [wtx, wrx] = transport::make_loopback_pair();
    ASSERT_TRUE(wtx->send(small).is_ok());
    ASSERT_TRUE(wtx->send(large).is_ok());
    ASSERT_TRUE(wrx->recv_buf().is_ok());
    ASSERT_TRUE(wrx->recv_buf().is_ok());
    Writer w(ctx, *wtx);
    EXPECT_EQ(w.write_image(wire_id ^ 1, image).code(), Errc::kUnknownFormat);
  }
  std::filesystem::remove(log);
  const Series pair2;
  const auto moved2 = [&](const char* name) {
    return pair2.counter(name) - pair1.counter(name);
  };
  EXPECT_EQ(moved2("transport.file.bytes_out"), pair_wire);
  EXPECT_EQ(moved2("transport.file.bytes_in"), pair_wire);
  EXPECT_EQ(moved2("transport.loopback.bytes_out"), pair_wire);
  EXPECT_EQ(moved2("transport.loopback.bytes_in"), pair_wire);
  EXPECT_EQ(moved2("pbio.encode.failed"), 1u);
  EXPECT_EQ(pair2.samples("pbio.encode") - pair1.samples("pbio.encode"), 1u);

  for (const char* gone :
       {"pbio.decode.records.dcg", "pbio.decode.records.interp",
        "vcode.jit.compiles", "pbio.jit.tval_accepts", "pbio.recv.batches",
        "pbio.cache.plan", "pbio.cache.compile",
        "transport.socket.read_bytes", "pbio.recv.frames",
        "pbio.recv.bytes", "pbio.encode.records", "transport.file.read_bytes",
        "vcode.jit.code_bytes"}) {
    EXPECT_EQ(pair2.snap.find_counter(gone), nullptr) << gone;
    EXPECT_EQ(pair2.snap.find_histogram(gone), nullptr) << gone;
  }
  obs::reset();
}

}  // namespace
}  // namespace pbio
