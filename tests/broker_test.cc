// Broker lifecycle, admission-control, and protocol tests.
//
// The deterministic pieces (SendQueue short-write resume) run against
// the ThrottledWireSink test fake so the exact byte interleavings are
// reproducible; the lifecycle pieces run a real Broker on loopback with
// blocking SocketChannel clients. Kernel socket buffers are clamped
// (Config::so_sndbuf broker-side, SO_RCVBUF client-side) wherever a test
// needs backpressure to engage at small, fast byte counts.
#include "broker/broker.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "arch/layout.h"
#include "collision_pair.h"
#include "fmt/meta.h"
#include "obs/obs.h"
#include "pbio/pbio.h"
#include "throttled_sink.h"
#include "transport/socket.h"
#include "util/endian.h"
#include "value/materialize.h"

namespace pbio::broker {
namespace {

using transport::SocketChannel;
using transport::ThrottledWireSink;
using transport::kFrameHeaderLen;
using transport::kMaxFrameLen;

/// Build a self-contained data frame: header + `payload` bytes of `fill`.
/// With Config::decode off the broker never resolves the id, so tests that
/// only exercise flow control can use an arbitrary one.
std::vector<std::uint8_t> data_frame(std::uint64_t id, std::size_t payload,
                                     std::uint8_t fill) {
  std::vector<std::uint8_t> f(kDataHeaderSize + payload, fill);
  std::fill_n(f.begin(), kDataHeaderSize, std::uint8_t{0});
  f[0] = kFrameData;
  store_uint(f.data() + kDataHeaderIdOffset, id, 8, ByteOrder::kLittle);
  return f;
}

/// Spin until `pred` holds or ~5s pass. Broker counters are updated by
/// worker threads, so tests observe them with a bounded poll.
template <typename Pred>
bool eventually(Pred pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

/// `n` distinct data frames and the bytes a client writes to send them
/// back to back.
struct Burst {
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<std::uint8_t> wire;
};

Burst make_burst(int n) {
  Burst b;
  for (int i = 0; i < n; ++i) {
    b.frames.push_back(data_frame(static_cast<std::uint64_t>(i),
                                  24 + static_cast<std::size_t>(i % 40),
                                  static_cast<std::uint8_t>(i)));
    const auto& f = b.frames.back();
    std::uint8_t hdr[kFrameHeaderLen];
    store_uint(hdr, f.size(), kFrameHeaderLen, ByteOrder::kLittle);
    b.wire.insert(b.wire.end(), hdr, hdr + kFrameHeaderLen);
    b.wire.insert(b.wire.end(), f.begin(), f.end());
  }
  return b;
}

/// Every frame of `burst` comes back on `ch`, whole and in order.
void expect_echoed_in_order(SocketChannel& ch, const Burst& burst) {
  for (std::size_t i = 0; i < burst.frames.size(); ++i) {
    auto echo = ch.recv();
    ASSERT_TRUE(echo.is_ok()) << i << ": " << echo.status().to_string();
    ASSERT_EQ(echo.value(), burst.frames[i]) << i;
  }
}

void clamp_rcvbuf(int fd, int bytes) {
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof(bytes)),
            0);
}

TEST(SendQueue, FlushResumesFromShortWrites) {
  // A 7-byte sink capacity forces every cut point: mid-header, on the
  // header/payload seam, mid-payload, and across frame boundaries.
  BufferPool pool(16);
  SendQueue sq;
  std::vector<std::uint8_t> expected;
  for (int i = 0; i < 5; ++i) {
    const std::size_t n = 3 + static_cast<std::size_t>(i) * 5;
    FrameBuf fb = pool.lease(n);
    for (std::size_t j = 0; j < n; ++j) {
      fb.data()[j] = static_cast<std::uint8_t>(i * 40 + j);
    }
    std::uint8_t hdr[kFrameHeaderLen];
    store_uint(hdr, n, kFrameHeaderLen, ByteOrder::kLittle);
    expected.insert(expected.end(), hdr, hdr + kFrameHeaderLen);
    expected.insert(expected.end(), fb.data(), fb.data() + n);
    sq.push(std::move(fb));
  }
  EXPECT_EQ(sq.queued_frames(), 5u);
  EXPECT_EQ(sq.queued_bytes(), expected.size());

  ThrottledWireSink sink(7, 7);
  std::size_t flushed_bytes = 0;
  std::size_t flushed_frames = 0;
  bool saw_blocked = false;
  int guard = 0;
  while (!sq.empty() && guard++ < 1000) {
    auto r = sq.flush(sink);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    flushed_bytes += r.value().bytes;
    flushed_frames += r.value().frames;
    saw_blocked = saw_blocked || r.value().blocked;
    sink.tick();
  }
  EXPECT_TRUE(saw_blocked);
  EXPECT_EQ(flushed_bytes, expected.size());
  EXPECT_EQ(flushed_frames, 5u);
  EXPECT_EQ(sq.queued_bytes(), 0u);
  while (sink.buffered() > 0) sink.tick();
  EXPECT_EQ(sink.received(), expected);
  // Every lease went back to the pool once its frame was fully written.
  const auto ps = pool.stats();
  EXPECT_EQ(ps.hits + ps.misses, ps.recycled);
}

TEST(SendQueue, StalledSinkKeepsEverythingQueued) {
  BufferPool pool(16);
  SendQueue sq;
  sq.push(pool.lease(100));
  sq.push(pool.lease(200));
  const std::size_t queued = sq.queued_bytes();
  EXPECT_EQ(queued, 300u + 2 * kFrameHeaderLen);

  ThrottledWireSink stalled(0, 0);
  auto r = sq.flush(stalled);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r.value().blocked);
  EXPECT_EQ(r.value().bytes, 0u);
  EXPECT_EQ(r.value().frames, 0u);
  EXPECT_EQ(sq.queued_bytes(), queued);
  EXPECT_EQ(sq.queued_frames(), 2u);
}

TEST(SendQueue, RefusesFrameNoReceiverAccepts) {
  // An unpooled lease whose pages are never touched: only its size
  // matters to push().
  SendQueue sq;
  EXPECT_EQ(sq.push(FrameBuf::heap(kMaxFrameLen + 1)).code(),
            Errc::kMalformed);
  EXPECT_TRUE(sq.empty());
  EXPECT_EQ(sq.queued_bytes(), 0u);
}

TEST(Broker, EchoesAcrossManyConcurrentClients) {
  Context ctx;
  Config cfg;
  cfg.workers = 2;
  Broker b(ctx, cfg);
  ASSERT_TRUE(b.start().is_ok());

  constexpr int kClients = 8;
  constexpr int kFrames = 40;
  std::vector<std::thread> clients;
  std::atomic<int> bad{0};
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto ch = transport::socket_connect(b.port());
      if (!ch.is_ok()) {
        ++bad;
        return;
      }
      for (int i = 0; i < kFrames; ++i) {
        const auto frame =
            data_frame(0x42, 16 + static_cast<std::size_t>(i),
                       static_cast<std::uint8_t>(c * 16 + i));
        if (!ch.value()->send(frame).is_ok()) {
          ++bad;
          return;
        }
        auto echo = ch.value()->recv();
        if (!echo.is_ok() || echo.value() != frame) {
          ++bad;
          return;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(bad.load(), 0);
  ASSERT_TRUE(eventually([&] { return b.stats().connections == 0; }));

  const BrokerStats s = b.stats();
  EXPECT_EQ(s.accepted, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(s.closed, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(s.frames_in, static_cast<std::uint64_t>(kClients) * kFrames);
  EXPECT_EQ(s.frames_out, static_cast<std::uint64_t>(kClients) * kFrames);
  EXPECT_EQ(s.bytes_in, s.bytes_out);  // pure echo
  EXPECT_EQ(s.shed_connections, 0u);
  EXPECT_EQ(s.shed_inflight, 0u);
  EXPECT_EQ(s.protocol_errors, 0u);
  EXPECT_EQ(s.inflight, 0u);
  EXPECT_EQ(s.queued_bytes, 0u);

  b.stop();
  EXPECT_FALSE(b.running());
  b.stop();  // idempotent
  // Counters survive shutdown for post-run reporting.
  EXPECT_EQ(b.stats().frames_in, s.frames_in);
}

TEST(Broker, AckModeRepliesWithWireFormatId) {
  Context ctx;
  Config cfg;
  cfg.on_data = OnData::kAck;
  Broker b(ctx, cfg);
  ASSERT_TRUE(b.start().is_ok());
  auto ch = transport::socket_connect(b.port());
  ASSERT_TRUE(ch.is_ok());
  const std::uint64_t id = 0xFEEDFACECAFEF00Dull;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ch.value()->send(data_frame(id, 500, 1)).is_ok());
    auto ack = ch.value()->recv();
    ASSERT_TRUE(ack.is_ok());
    ASSERT_EQ(ack.value().size(), kDataHeaderSize);
    EXPECT_EQ(ack.value()[0], kFrameAck);
    EXPECT_EQ(load_uint(ack.value().data() + kDataHeaderIdOffset, 8,
                        ByteOrder::kLittle),
              id);
  }
  b.stop();
}

TEST(Broker, ShedsAcceptsOverConnectionCap) {
  Context ctx;
  Config cfg;
  cfg.max_connections = 2;
  Broker b(ctx, cfg);
  ASSERT_TRUE(b.start().is_ok());

  // Two admitted connections, proven live with an echo round trip each.
  auto a = transport::socket_connect(b.port());
  auto c = transport::socket_connect(b.port());
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(c.is_ok());
  for (auto* ch : {&a, &c}) {
    const auto f = data_frame(1, 8, 9);
    ASSERT_TRUE(ch->value()->send(f).is_ok());
    auto echo = ch->value()->recv();
    ASSERT_TRUE(echo.is_ok());
    EXPECT_EQ(echo.value(), f);
  }

  // The third connects (the kernel backlog accepts the handshake) but the
  // broker sheds it: clean EOF, no broker memory spent.
  auto shed = transport::socket_connect(b.port());
  ASSERT_TRUE(shed.is_ok());
  auto m = shed.value()->recv();
  ASSERT_FALSE(m.is_ok());
  EXPECT_EQ(m.status().code(), Errc::kChannelClosed);
  ASSERT_TRUE(eventually([&] { return b.stats().shed_connections >= 1; }));
  EXPECT_EQ(b.stats().connections, 2u);

  // An admitted connection still works after the shed.
  const auto f = data_frame(2, 8, 3);
  ASSERT_TRUE(a.value()->send(f).is_ok());
  auto echo = a.value()->recv();
  ASSERT_TRUE(echo.is_ok());
  EXPECT_EQ(echo.value(), f);

  // The shed is visible on the telemetry plane too: the counter behind
  // stats() is the series /metrics serves.
  const auto snap = obs::snapshot();
  const auto* shed_ctr = snap.find_counter("pbio.broker.shed_connections");
  ASSERT_NE(shed_ctr, nullptr);
  EXPECT_GE(shed_ctr->value, 1u);
  b.stop();
  obs::reset();  // later tests pin exact global counter values
}

TEST(Broker, ShedsConnectionOverInflightFrameCap) {
  Context ctx;
  Config cfg;
  cfg.max_inflight_frames = 8;
  // Make the global inflight cap the binding constraint: the per-connection
  // byte cap is effectively infinite, the broker-side socket buffer tiny.
  cfg.conn_queue_cap_bytes = std::size_t{1} << 30;
  cfg.conn_queue_resume_bytes = std::size_t{1} << 29;
  cfg.so_sndbuf = 4096;
  Broker b(ctx, cfg);
  ASSERT_TRUE(b.start().is_ok());

  auto ch = transport::socket_connect(b.port());
  ASSERT_TRUE(ch.is_ok());
  clamp_rcvbuf(ch.value()->fd(), 4096);  // stop the kernel absorbing echoes
  ASSERT_TRUE(ch.value()->set_nonblocking(true).is_ok());

  // Firehose 1KB frames without ever reading. Echo responses back up in
  // the broker until the inflight cap trips and the connection is shed
  // (writes then fail, or simply stop being accepted — both fine).
  const auto frame = data_frame(7, 1024, 5);
  std::vector<std::uint8_t> wire(kFrameHeaderLen + frame.size());
  store_uint(wire.data(), frame.size(), kFrameHeaderLen, ByteOrder::kLittle);
  std::copy(frame.begin(), frame.end(), wire.begin() + kFrameHeaderLen);
  for (int i = 0; i < 600 && b.stats().shed_inflight == 0; ++i) {
    std::size_t at = 0;
    while (at < wire.size()) {
      const iovec iov[] = {{wire.data() + at, wire.size() - at}};
      auto n = ch.value()->writev_some(iov);
      if (n.is_ok()) {
        at += n.value();
        continue;
      }
      if (n.status().code() != Errc::kWouldBlock) {
        at = wire.size();  // peer closed us: the shed already happened
        i = 600;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_TRUE(eventually([&] { return b.stats().shed_inflight >= 1; }))
      << "inflight cap never tripped";
  ASSERT_TRUE(eventually([&] { return b.stats().connections == 0; }));
  // Shedding released the queued responses' admission slots.
  EXPECT_EQ(b.stats().inflight, 0u);
  EXPECT_EQ(b.stats().queued_bytes, 0u);

  const auto snap = obs::snapshot();
  const auto* shed_ctr = snap.find_counter("pbio.broker.shed_inflight");
  ASSERT_NE(shed_ctr, nullptr);
  EXPECT_GE(shed_ctr->value, 1u);
  b.stop();
  obs::reset();  // later tests pin exact global counter values
}

TEST(Broker, SlowClientPausesReadingThenResumes) {
  Context ctx;
  Config cfg;
  cfg.conn_queue_cap_bytes = 8 * 1024;
  cfg.conn_queue_resume_bytes = 2 * 1024;
  cfg.so_sndbuf = 8192;
  Broker b(ctx, cfg);
  ASSERT_TRUE(b.start().is_ok());

  auto ch = transport::socket_connect(b.port());
  ASSERT_TRUE(ch.is_ok());
  clamp_rcvbuf(ch.value()->fd(), 4096);

  // The writer pushes ~160KB of frames while the main thread refuses to
  // read. Kernel buffers between broker and client hold only a few tens of
  // KB, so the broker's send queue must cross the 8KB cap and pause.
  constexpr int kFrames = 150;
  const auto frame = data_frame(3, 1024, 6);
  std::thread writer([&] {
    for (int i = 0; i < kFrames; ++i) {
      ASSERT_TRUE(ch.value()->send(frame).is_ok());
    }
  });
  ASSERT_TRUE(eventually([&] { return b.stats().pauses >= 1; }))
      << "send-queue cap never paused the connection";
  // While the client refuses to read, the paused gauge shows the stuck
  // connection — the /healthz "paused_connections" signal.
  ASSERT_TRUE(eventually([&] { return b.stats().paused >= 1; }));

  // Now drain: every frame must still arrive intact and in order, and the
  // broker must resume reading once the queue falls below the watermark.
  for (int i = 0; i < kFrames; ++i) {
    auto echo = ch.value()->recv();
    ASSERT_TRUE(echo.is_ok()) << i << ": " << echo.status().to_string();
    ASSERT_EQ(echo.value(), frame) << i;
  }
  writer.join();
  EXPECT_GE(b.stats().resumes, 1u);
  ASSERT_TRUE(eventually([&] { return b.stats().paused == 0; }));
  EXPECT_EQ(b.stats().shed_connections, 0u);
  EXPECT_EQ(b.stats().shed_inflight, 0u);
  EXPECT_EQ(b.stats().protocol_errors, 0u);
  b.stop();
#if PBIO_OBS_ENABLED
  // Frames flushed after the first pause file their queue residency under
  // the slow-client series, keeping well-behaved clients' latency clean.
  const auto snap = obs::snapshot();
  const auto* slow = snap.find_histogram("pbio.broker.residency_ns.slow");
  ASSERT_NE(slow, nullptr);
  EXPECT_GT(slow->count, 0u);
#endif
  obs::reset();
}

TEST(Broker, AbruptDisconnectReleasesAllPoolLeases) {
  Context ctx;
  Config cfg;
  cfg.workers = 1;
  Broker b(ctx, cfg);
  ASSERT_TRUE(b.start().is_ok());

  // Three clients: one full round trip each (so stream + send-queue leases
  // are exercised), then a *partial* frame — header promising 1000 bytes,
  // only 400 delivered — then an abrupt close mid-frame.
  for (int c = 0; c < 3; ++c) {
    auto ch = transport::socket_connect(b.port());
    ASSERT_TRUE(ch.is_ok());
    const auto f = data_frame(4, 64, static_cast<std::uint8_t>(c));
    ASSERT_TRUE(ch.value()->send(f).is_ok());
    auto echo = ch.value()->recv();
    ASSERT_TRUE(echo.is_ok());

    std::uint8_t partial[kFrameHeaderLen + 400] = {};
    store_uint(partial, 1000, kFrameHeaderLen, ByteOrder::kLittle);
    ASSERT_EQ(::write(ch.value()->fd(), partial, sizeof(partial)),
              static_cast<ssize_t>(sizeof(partial)));
    // Give the broker a moment to buffer the torn frame before the close,
    // so the stream window lease is actually held when the peer vanishes.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.value()->close();
  }
  ASSERT_TRUE(eventually([&] {
    return b.stats().connections == 0 && b.stats().closed == 3;
  }));
  // Every lease — stream windows holding torn frames included — went back.
  ASSERT_TRUE(eventually([&] {
    const auto ps = b.pool_stats();
    return ps.hits + ps.misses == ps.recycled;
  })) << "pool leases leaked after abrupt disconnects";
  EXPECT_EQ(b.stats().protocol_errors, 0u);  // EOF mid-frame is not garbage
  b.stop();
}

TEST(Broker, AnswersFormatServiceRequestsInline) {
  // The format service rides the same connection as data: late joiners
  // resolve formats against whatever any client registered earlier.
  Context ctx;
  Broker b(ctx);
  ASSERT_TRUE(b.start().is_ok());

  arch::StructSpec spec;
  spec.name = "svc_sample";
  spec.fields = {{.name = "a", .type = arch::CType::kInt},
                 {.name = "b", .type = arch::CType::kDouble}};
  const auto f = arch::layout_format(spec, arch::abi_sparc_v8());

  auto pub_ch = transport::socket_connect(b.port());
  ASSERT_TRUE(pub_ch.is_ok());
  FormatServiceClient publisher(*pub_ch.value());
  auto id = publisher.publish(f);
  ASSERT_TRUE(id.is_ok()) << id.status().to_string();
  EXPECT_EQ(id.value(), f.fingerprint());

  // A different, later connection sees the registration.
  auto look_ch = transport::socket_connect(b.port());
  ASSERT_TRUE(look_ch.is_ok());
  FormatServiceClient joiner(*look_ch.value());
  auto fetched = joiner.lookup(id.value());
  ASSERT_TRUE(fetched.is_ok()) << fetched.status().to_string();
  EXPECT_EQ(fetched.value(), f);
  EXPECT_EQ(joiner.lookup(0x1234).status().code(), Errc::kUnknownFormat);
  EXPECT_EQ(b.stats().svc_requests, 3u);
  b.stop();
}

struct Sample {
  int a;
  double b;
};

struct Other {
  double x;
  int n;
};

/// A format announcement frame for `f`, as a Writer sends it in-band.
std::vector<std::uint8_t> announce_frame(const fmt::FormatDesc& f) {
  std::vector<std::uint8_t> frame{kFrameFormat};
  const auto meta = fmt::encode_meta(f);
  frame.insert(frame.end(), meta.begin(), meta.end());
  return frame;
}

/// A data frame carrying `rec` laid out as wire format `f`.
std::vector<std::uint8_t> record_frame(const fmt::FormatDesc& f,
                                       const value::Record& rec) {
  const auto image = value::materialize(f, rec);
  std::vector<std::uint8_t> frame(kDataHeaderSize, 0);
  frame[0] = kFrameData;
  store_uint(frame.data() + kDataHeaderIdOffset, f.fingerprint(), 8,
             ByteOrder::kLittle);
  frame.insert(frame.end(), image.begin(), image.end());
  return frame;
}

arch::StructSpec sample_spec() {
  arch::StructSpec spec;
  spec.name = "sample";
  spec.fields = {{.name = "a", .type = arch::CType::kInt},
                 {.name = "b", .type = arch::CType::kDouble}};
  return spec;
}

TEST(Broker, DecodesDataFramesForExpectedFormats) {
  Context ctx;
  const NativeField fields[] = {
      PBIO_FIELD(Sample, a, arch::CType::kInt),
      PBIO_FIELD(Sample, b, arch::CType::kDouble),
  };
  const auto native_id = ctx.register_format(
      native_format("sample", fields, sizeof(Sample)));

  Config cfg;
  cfg.decode = true;
  Broker b(ctx, cfg);
  b.expect("sample", native_id);
  ASSERT_TRUE(b.start().is_ok());

  // A foreign (sparc) writer announces in-band and streams records; the
  // broker learns the format from the announcement and converts every data
  // frame to the native layout before echoing.
  const auto wire_fmt =
      arch::layout_format(sample_spec(), arch::abi_sparc_v8());

  auto ch = transport::socket_connect(b.port());
  ASSERT_TRUE(ch.is_ok());
  ASSERT_TRUE(ch.value()->send(announce_frame(wire_fmt)).is_ok());

  value::Record rec;
  rec.set("a", value::Value(41));
  rec.set("b", value::Value(6.5));
  const auto frame = record_frame(wire_fmt, rec);
  for (int i = 0; i < 2; ++i) {  // second frame hits the resolver table
    ASSERT_TRUE(ch.value()->send(frame).is_ok());
    auto echo = ch.value()->recv();
    ASSERT_TRUE(echo.is_ok()) << echo.status().to_string();
    EXPECT_EQ(echo.value(), frame);
  }
  EXPECT_EQ(b.stats().formats_learned, 1u);
  EXPECT_EQ(b.stats().decoded, 2u);
  EXPECT_EQ(b.stats().protocol_errors, 0u);

  // A data frame for a format nobody announced is a protocol error: the
  // broker drops the connection rather than forwarding undecodable bytes.
  auto bad_ch = transport::socket_connect(b.port());
  ASSERT_TRUE(bad_ch.is_ok());
  ASSERT_TRUE(bad_ch.value()->send(data_frame(0x999, 64, 1)).is_ok());
  auto dropped = bad_ch.value()->recv();
  ASSERT_FALSE(dropped.is_ok());
  EXPECT_EQ(dropped.status().code(), Errc::kChannelClosed);
  ASSERT_TRUE(eventually([&] { return b.stats().protocol_errors >= 1; }));
  b.stop();
}

/// A decoding broker expecting "sample" and "other", one connection to
/// it, and a sparc data frame of each format.
struct TwoFormatBroker {
  TwoFormatBroker() {
    const NativeField sample_fields[] = {
        PBIO_FIELD(Sample, a, arch::CType::kInt),
        PBIO_FIELD(Sample, b, arch::CType::kDouble),
    };
    const NativeField other_fields[] = {
        PBIO_FIELD(Other, x, arch::CType::kDouble),
        PBIO_FIELD(Other, n, arch::CType::kInt),
    };
    b.expect("sample", ctx.register_format(native_format(
                           "sample", sample_fields, sizeof(Sample))));
    b.expect("other", ctx.register_format(native_format(
                          "other", other_fields, sizeof(Other))));
    EXPECT_TRUE(b.start().is_ok());

    arch::StructSpec other;
    other.name = "other";
    other.fields = {{.name = "x", .type = arch::CType::kDouble},
                    {.name = "n", .type = arch::CType::kInt}};
    a_fmt = arch::layout_format(sample_spec(), arch::abi_sparc_v8());
    b_fmt = arch::layout_format(other, arch::abi_sparc_v8());
    value::Record a_rec;
    a_rec.set("a", value::Value(7));
    a_rec.set("b", value::Value(0.25));
    value::Record b_rec;
    b_rec.set("x", value::Value(-3.5));
    b_rec.set("n", value::Value(12));
    a_frame = record_frame(a_fmt, a_rec);
    b_frame = record_frame(b_fmt, b_rec);

    auto connected = transport::socket_connect(b.port());
    EXPECT_TRUE(connected.is_ok());
    if (connected.is_ok()) ch = std::move(connected).take();
  }

  static Config decoding() {
    Config cfg;
    cfg.decode = true;
    return cfg;
  }

  void announce(const fmt::FormatDesc& f) {
    ASSERT_TRUE(ch->send(announce_frame(f)).is_ok());
  }

  /// Send `frame` and check it comes back verbatim.
  void echo(const std::vector<std::uint8_t>& frame) {
    ASSERT_TRUE(ch->send(frame).is_ok());
    auto back = ch->recv();
    ASSERT_TRUE(back.is_ok()) << back.status().to_string();
    EXPECT_EQ(back.value(), frame);
  }

  static std::uint64_t hits() {
    const auto snap = obs::snapshot();
    const auto* c = snap.find_counter("pbio.recv.resolve_cache_hits");
    return c == nullptr ? std::uint64_t{0} : c->value;
  }

  Context ctx;
  Broker b{ctx, decoding()};
  fmt::FormatDesc a_fmt;
  fmt::FormatDesc b_fmt;
  std::vector<std::uint8_t> a_frame;
  std::vector<std::uint8_t> b_frame;
  std::unique_ptr<SocketChannel> ch;
};

TEST(Broker, DecodeStreakResolvesOncePerFormat) {
  // Each connection resolves through its own Resolver table: a same-format
  // streak costs one try_conversion, every later frame is a table hit, and
  // a format announcement mid-streak leaves the table valid.
  TwoFormatBroker t;
  ASSERT_NE(t.ch, nullptr);
  const std::uint64_t hits0 = TwoFormatBroker::hits();
  constexpr int kStreak = 8;
  t.announce(t.a_fmt);
  for (int i = 0; i < kStreak; ++i) t.echo(t.a_frame);
  t.announce(t.b_fmt);
  for (int i = 0; i < kStreak; ++i) t.echo(t.a_frame);
  for (int i = 0; i < kStreak; ++i) t.echo(t.b_frame);
  t.b.stop();

  EXPECT_EQ(t.b.stats().decoded, 3u * kStreak);
  EXPECT_EQ(t.b.stats().protocol_errors, 0u);
  const cache::ArtifactCache::Stats cs = t.ctx.artifact_cache().stats();
  EXPECT_EQ(cs.hits + cs.misses, 2u);
  EXPECT_EQ(cs.compiles, 2u);
  EXPECT_EQ(TwoFormatBroker::hits() - hits0, 3u * kStreak - 2u);
}

TEST(Broker, InterleavedDecodeResolvesOncePerFormat) {
  // A/B/A/B on one decoding connection: each wire id reaches the context
  // on its first frame only, and each pair's decode latency lands in its
  // own histogram.
  TwoFormatBroker t;
  ASSERT_NE(t.ch, nullptr);
#if PBIO_OBS_ENABLED
  constexpr const char* kPairs[] = {"pbio.broker.decode_ns.sample->sample",
                                     "pbio.broker.decode_ns.other->other"};
  const auto decodes = [](const char* pair) {
    const obs::Snapshot snap = obs::snapshot();
    const auto* h = snap.find_histogram(pair);
    return h == nullptr ? std::uint64_t{0} : h->count;
  };
  const std::uint64_t decodes0[] = {decodes(kPairs[0]), decodes(kPairs[1])};
#endif
  t.announce(t.a_fmt);
  t.announce(t.b_fmt);
  const std::uint64_t hits0 = TwoFormatBroker::hits();
  constexpr int kRounds = 8;
  for (int i = 0; i < kRounds; ++i) {
    t.echo(t.a_frame);
    t.echo(t.b_frame);
  }
  t.b.stop();

  EXPECT_EQ(t.b.stats().decoded, 2u * kRounds);
  EXPECT_EQ(t.b.stats().protocol_errors, 0u);
  const cache::ArtifactCache::Stats cs = t.ctx.artifact_cache().stats();
  EXPECT_EQ(cs.hits + cs.misses, 2u);
  EXPECT_EQ(TwoFormatBroker::hits() - hits0, 2u * kRounds - 2u);
#if PBIO_OBS_ENABLED
  for (int p = 0; p < 2; ++p) {
    EXPECT_EQ(decodes(kPairs[p]) - decodes0[p],
              static_cast<std::uint64_t>(kRounds))
        << kPairs[p];
  }
#endif
}

TEST(Broker, DecodesCountByTheEngineThatRan) {
  // A decoding connection runs Message's record decode: a fresh pair's
  // first record is interpreted, its reuse tiers it up, and every later
  // record runs the generated code, each counted under its engine.
  Context ctx;
  const NativeField fields[] = {
      PBIO_FIELD(Sample, a, arch::CType::kInt),
      PBIO_FIELD(Sample, b, arch::CType::kDouble),
  };
  Config cfg;
  cfg.decode = true;
  Broker b(ctx, cfg);
  b.expect("sample", ctx.register_format(
                         native_format("sample", fields, sizeof(Sample))));
  ASSERT_TRUE(b.start().is_ok());

  const auto wire_fmt =
      arch::layout_format(sample_spec(), arch::abi_sparc_v8());
  value::Record rec;
  rec.set("a", value::Value(3));
  rec.set("b", value::Value(1.5));
  const auto frame = record_frame(wire_fmt, rec);
  const auto records = [](const char* engine) {
    const auto snap = obs::snapshot();
    const auto* c = snap.find_counter(std::string("pbio.decode.records.") +
                                      engine);
    return c == nullptr ? std::uint64_t{0} : c->value;
  };
  const std::uint64_t interp0 = records("interp");
  const std::uint64_t dcg0 = records("dcg");

  auto ch = transport::socket_connect(b.port());
  ASSERT_TRUE(ch.is_ok());
  ASSERT_TRUE(ch.value()->send(announce_frame(wire_fmt)).is_ok());
  auto echo_one = [&] {
    ASSERT_TRUE(ch.value()->send(frame).is_ok());
    auto echo = ch.value()->recv();
    ASSERT_TRUE(echo.is_ok()) << echo.status().to_string();
    EXPECT_EQ(echo.value(), frame);
  };
  echo_one();
  EXPECT_EQ(records("interp") - interp0, 1u);
  EXPECT_EQ(records("dcg") - dcg0, 0u);
  constexpr std::uint64_t kLater = 3;
  for (std::uint64_t i = 0; i < kLater; ++i) echo_one();
  EXPECT_EQ(records("interp") - interp0, 1u);
  EXPECT_EQ(records("dcg") - dcg0, kLater);
  b.stop();
  EXPECT_EQ(b.stats().decoded, 1u + kLater);
  EXPECT_EQ(b.stats().protocol_errors, 0u);
}

TEST(Broker, DepthOnePingPongCostsTwoSyscallsPerFrame) {
  // At depth 1 a frame needs one data recv and one writev. The data recv
  // returns less than its window, which already proves the socket empty,
  // so no recv that could only return EAGAIN follows it.
  Context ctx;
  Broker b(ctx);
  ASSERT_TRUE(b.start().is_ok());
  constexpr int kRounds = 500;
  {
    auto ch = transport::socket_connect(b.port());
    ASSERT_TRUE(ch.is_ok());
    for (int i = 0; i < kRounds; ++i) {
      const auto f = data_frame(9, 64, static_cast<std::uint8_t>(i));
      ASSERT_TRUE(ch.value()->send(f).is_ok());
      auto echo = ch.value()->recv();
      ASSERT_TRUE(echo.is_ok()) << i << ": " << echo.status().to_string();
      ASSERT_EQ(echo.value(), f) << i;
    }
  }
  // Closing the Conn folds its last syscall counts into stats().
  ASSERT_TRUE(eventually([&] { return b.stats().connections == 0; }));
  const BrokerStats s = b.stats();
  ASSERT_EQ(s.frames_in, static_cast<std::uint64_t>(kRounds));
  const double per_frame =
      static_cast<double>(s.recv_syscalls + s.send_syscalls) /
      static_cast<double>(s.frames_in);
  EXPECT_LE(per_frame, 2.05) << "recv " << s.recv_syscalls << ", send "
                             << s.send_syscalls;
  b.stop();
}

TEST(Broker, PipelinedBurstEchoesInOrder) {
  // 300 frames in one write outrun the worker's 64-frame budget: the
  // connection re-queues with complete frames buffered after its socket
  // already read as drained, and each re-run must carry on from the buffer.
  Context ctx;
  Broker b(ctx);
  ASSERT_TRUE(b.start().is_ok());
  const Burst burst = make_burst(300);
  auto ch = transport::socket_connect(b.port());
  ASSERT_TRUE(ch.is_ok());
  ASSERT_EQ(::send(ch.value()->fd(), burst.wire.data(), burst.wire.size(),
                   MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.wire.size()));
  expect_echoed_in_order(*ch.value(), burst);
  EXPECT_EQ(b.stats().frames_in, burst.frames.size());
  EXPECT_EQ(b.stats().protocol_errors, 0u);
  b.stop();
}

TEST(Broker, DribbledBurstEchoesInOrder) {
  // The same burst in 1-7-byte writes: frames straddle reads, and edges
  // land while the stream still holds a complete frame or only part of one.
  Context ctx;
  Broker b(ctx);
  ASSERT_TRUE(b.start().is_ok());
  const Burst burst = make_burst(300);
  auto ch = transport::socket_connect(b.port());
  ASSERT_TRUE(ch.is_ok());
  std::size_t at = 0;
  for (std::size_t k = 0; at < burst.wire.size(); ++k) {
    const std::size_t n = std::min(1 + k % 7, burst.wire.size() - at);
    const ssize_t w =
        ::send(ch.value()->fd(), burst.wire.data() + at, n, MSG_NOSIGNAL);
    ASSERT_GT(w, 0) << "at " << at;
    at += static_cast<std::size_t>(w);
  }
  expect_echoed_in_order(*ch.value(), burst);
  EXPECT_EQ(b.stats().frames_in, burst.frames.size());
  EXPECT_EQ(b.stats().protocol_errors, 0u);
  b.stop();
}

TEST(Broker, HalfClosedPeerGetsItsReplyThenCloses) {
  // A client that sends its last request and then shuts down its write
  // side still reads: the broker must flush the reply before it closes.
  // A FIN queued behind the data makes the data's read short and raises
  // no edge of its own; only the EOF guard (read past a short read on
  // EPOLLRDHUP) sees it, and without it the connection would wait for an
  // edge that never comes. Each client first makes one round trip, so
  // the broker is already waiting on the connection when the last request
  // lands. Even clients then send with MSG_MORE: the FIN rides on the
  // data segment itself and every one of them hits that case. Odd
  // clients send the FIN as its own segment.
  Context ctx;
  Broker b(ctx);
  ASSERT_TRUE(b.start().is_ok());
  constexpr int kClients = 200;
  for (int c = 0; c < kClients; ++c) {
    auto ch = transport::socket_connect(b.port());
    ASSERT_TRUE(ch.is_ok());
    const Burst one = make_burst(1);
    const auto& f = one.frames[0];
    ASSERT_TRUE(ch.value()->send(f).is_ok());
    auto warm = ch.value()->recv();
    ASSERT_TRUE(warm.is_ok()) << "client " << c << ": "
                              << warm.status().to_string();
    const int flags = MSG_NOSIGNAL | (c % 2 == 0 ? MSG_MORE : 0);
    ASSERT_EQ(::send(ch.value()->fd(), one.wire.data(), one.wire.size(),
                     flags),
              static_cast<ssize_t>(one.wire.size()));
    ASSERT_EQ(::shutdown(ch.value()->fd(), SHUT_WR), 0);
    auto echo = ch.value()->recv();
    ASSERT_TRUE(echo.is_ok()) << "client " << c << ": "
                              << echo.status().to_string();
    ASSERT_EQ(echo.value(), f) << "client " << c;
  }
  EXPECT_TRUE(eventually([&] { return b.stats().connections == 0; }))
      << b.stats().connections << " half-closed connections never closed";
  const BrokerStats s = b.stats();
  EXPECT_EQ(s.closed, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(s.frames_out, static_cast<std::uint64_t>(2 * kClients));
  EXPECT_EQ(s.protocol_errors, 0u);
  b.stop();
}

TEST(Broker, PeerThatClosesWithRepliesUnreadCannotKillTheBroker) {
  // Each client pipelines more frames than two worker budgets and then
  // close()s without reading. The first batch of replies reaches a
  // closed socket, whose RST shuts the broker's side for sending; the
  // broker's next write to it must fail as an error that closes the
  // connection, not raise SIGPIPE, which would end this process.
  Context ctx;
  Broker b(ctx);
  ASSERT_TRUE(b.start().is_ok());
  const Burst burst = make_burst(200);
  constexpr int kClients = 20;
  for (int c = 0; c < kClients; ++c) {
    auto ch = transport::socket_connect(b.port());
    ASSERT_TRUE(ch.is_ok());
    ASSERT_EQ(::send(ch.value()->fd(), burst.wire.data(), burst.wire.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(burst.wire.size()));
  }  // each channel closes here, its replies unread
  // connections == 0 alone already holds before the broker has accepted
  // anyone; wait for every client to have been accepted and closed.
  EXPECT_TRUE(eventually([&] {
    const auto st = b.stats();
    return st.closed == static_cast<std::uint64_t>(kClients) &&
           st.connections == 0;
  })) << b.stats().closed << " closed, " << b.stats().connections
      << " connections open";
  // The broker still serves.
  auto ch = transport::socket_connect(b.port());
  ASSERT_TRUE(ch.is_ok());
  const Burst one = make_burst(1);
  ASSERT_TRUE(ch.value()->send(one.frames[0]).is_ok());
  expect_echoed_in_order(*ch.value(), one);
  b.stop();
}

TEST(Broker, GarbageFrameDropsOnlyThatConnection) {
  Context ctx;
  Broker b(ctx);
  ASSERT_TRUE(b.start().is_ok());
  auto good = transport::socket_connect(b.port());
  auto bad = transport::socket_connect(b.port());
  ASSERT_TRUE(good.is_ok());
  ASSERT_TRUE(bad.is_ok());

  const std::vector<std::uint8_t> junk{0x7F, 1, 2, 3};
  ASSERT_TRUE(bad.value()->send(junk).is_ok());
  auto dropped = bad.value()->recv();
  EXPECT_EQ(dropped.status().code(), Errc::kChannelClosed);
  ASSERT_TRUE(eventually([&] { return b.stats().protocol_errors >= 1; }));

  const auto f = data_frame(5, 32, 8);
  ASSERT_TRUE(good.value()->send(f).is_ok());
  auto echo = good.value()->recv();
  ASSERT_TRUE(echo.is_ok());
  EXPECT_EQ(echo.value(), f);
  b.stop();
}

TEST(Broker, CollidingAnnouncementsDropOnlyThatConnection) {
  Context ctx;
  Broker b(ctx);
  ASSERT_TRUE(b.start().is_ok());
  auto good = transport::socket_connect(b.port());
  auto bad = transport::socket_connect(b.port());
  ASSERT_TRUE(good.is_ok());
  ASSERT_TRUE(bad.is_ok());

  const fmt::FormatDesc first = colliding_format(0);
  const fmt::FormatDesc second = colliding_format(1);
  ASSERT_EQ(first.fingerprint(), second.fingerprint());
  ASSERT_TRUE(bad.value()->send(announce_frame(first)).is_ok());
  ASSERT_TRUE(bad.value()->send(announce_frame(second)).is_ok());
  auto dropped = bad.value()->recv();
  EXPECT_EQ(dropped.status().code(), Errc::kChannelClosed);
  ASSERT_TRUE(eventually([&] { return b.stats().protocol_errors >= 1; }));
  EXPECT_EQ(b.stats().formats_learned, 1u);
  ASSERT_NE(ctx.find(first.fingerprint()), nullptr);
  EXPECT_EQ(*ctx.find(first.fingerprint()), first);

  const auto f = data_frame(5, 32, 8);
  ASSERT_TRUE(good.value()->send(f).is_ok());
  auto echo = good.value()->recv();
  ASSERT_TRUE(echo.is_ok());
  EXPECT_EQ(echo.value(), f);
  b.stop();
}

TEST(Broker, PublishesObsCountersUnderBrokerNamespace) {
  // No publish step: the broker's counters are obs series from the first
  // event on, and a destroyed broker's counts stay in the retired totals —
  // so deltas around the broker's whole life are exact.
  const auto value = [](const obs::Snapshot& snap, const char* name) {
    const auto* c = snap.find_counter(name);
    return c == nullptr ? std::uint64_t{0} : c->value;
  };
  const obs::Snapshot before = obs::snapshot();
  constexpr int kFrames = 5;
  {
    Context ctx;
    Broker b(ctx);
    ASSERT_TRUE(b.start().is_ok());
    auto ch = transport::socket_connect(b.port());
    ASSERT_TRUE(ch.is_ok());
    for (int i = 0; i < kFrames; ++i) {
      const auto f = data_frame(6, 24, 2);
      ASSERT_TRUE(ch.value()->send(f).is_ok());
      ASSERT_TRUE(ch.value()->recv().is_ok());
    }
    // The client sees an echo mid-writev, a beat before the worker thread
    // bumps frames_out after the flush returns — wait for the counter.
    ASSERT_TRUE(eventually([&] {
      return b.stats().frames_out == static_cast<std::uint64_t>(kFrames);
    }));
    const obs::Snapshot live = obs::snapshot();
    EXPECT_EQ(value(live, "pbio.broker.frames_in") -
                  value(before, "pbio.broker.frames_in"),
              static_cast<std::uint64_t>(kFrames));
    b.stop();
  }
  const obs::Snapshot after = obs::snapshot();
  EXPECT_EQ(value(after, "pbio.broker.frames_in") -
                value(before, "pbio.broker.frames_in"),
            static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(value(after, "pbio.broker.frames_out") -
                value(before, "pbio.broker.frames_out"),
            static_cast<std::uint64_t>(kFrames));
  EXPECT_EQ(value(after, "pbio.broker.accepted") -
                value(before, "pbio.broker.accepted"),
            1u);
}

TEST(Broker, StatsAndObsSeriesReadTheSameCounters) {
  // Every monotonic BrokerStats field is this broker's share of its
  // pbio.broker.* series (svc_requests: pbio.svc.requests), with no
  // publish step in between.
  const obs::Snapshot before = obs::snapshot();
  Context ctx;
  const NativeField fields[] = {
      PBIO_FIELD(Sample, a, arch::CType::kInt),
      PBIO_FIELD(Sample, b, arch::CType::kDouble),
  };
  Config cfg;
  cfg.decode = true;
  Broker b(ctx, cfg);
  b.expect("sample", ctx.register_format(
                         native_format("sample", fields, sizeof(Sample))));
  ASSERT_TRUE(b.start().is_ok());

  const auto wire_fmt =
      arch::layout_format(sample_spec(), arch::abi_sparc_v8());
  value::Record rec;
  rec.set("a", value::Value(3));
  rec.set("b", value::Value(1.5));
  {
    auto ch = transport::socket_connect(b.port());
    ASSERT_TRUE(ch.is_ok());
    ASSERT_TRUE(ch.value()->send(announce_frame(wire_fmt)).is_ok());
    const auto frame = record_frame(wire_fmt, rec);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ch.value()->send(frame).is_ok());
      ASSERT_TRUE(ch.value()->recv().is_ok());
    }
    FormatServiceClient client(*ch.value());
    ASSERT_TRUE(client.lookup(wire_fmt.fingerprint()).is_ok());
  }
  {
    auto bad = transport::socket_connect(b.port());
    ASSERT_TRUE(bad.is_ok());
    const std::vector<std::uint8_t> junk{0x7E, 1, 2};
    ASSERT_TRUE(bad.value()->send(junk).is_ok());
    EXPECT_FALSE(bad.value()->recv().is_ok());
  }
  ASSERT_TRUE(eventually([&] { return b.stats().closed == 2; }));
  b.stop();

  const obs::Snapshot after = obs::snapshot();
  const auto delta = [&](const char* name) {
    const auto* c0 = before.find_counter(name);
    const auto* c1 = after.find_counter(name);
    EXPECT_NE(c1, nullptr) << name << " is not served";
    return (c1 == nullptr ? 0 : c1->value) - (c0 == nullptr ? 0 : c0->value);
  };
  const BrokerStats s = b.stats();
  EXPECT_EQ(delta("pbio.broker.accepted"), s.accepted);
  EXPECT_EQ(delta("pbio.broker.closed"), s.closed);
  EXPECT_EQ(delta("pbio.broker.shed_connections"), s.shed_connections);
  EXPECT_EQ(delta("pbio.broker.shed_inflight"), s.shed_inflight);
  EXPECT_EQ(delta("pbio.broker.protocol_errors"), s.protocol_errors);
  EXPECT_EQ(delta("pbio.broker.frames_in"), s.frames_in);
  EXPECT_EQ(delta("pbio.broker.frames_out"), s.frames_out);
  EXPECT_EQ(delta("pbio.broker.bytes_in"), s.bytes_in);
  EXPECT_EQ(delta("pbio.broker.bytes_out"), s.bytes_out);
  EXPECT_EQ(delta("pbio.broker.formats_learned"), s.formats_learned);
  EXPECT_EQ(delta("pbio.broker.decoded"), s.decoded);
  EXPECT_EQ(delta("pbio.broker.pauses"), s.pauses);
  EXPECT_EQ(delta("pbio.broker.resumes"), s.resumes);
  EXPECT_EQ(delta("pbio.broker.recv_syscalls"), s.recv_syscalls);
  EXPECT_EQ(delta("pbio.broker.send_syscalls"), s.send_syscalls);
  EXPECT_EQ(delta("pbio.broker.slow_frames"), s.slow_frames);
  EXPECT_EQ(delta("pbio.svc.requests"), s.svc_requests);

  // The workload itself, so the equalities above are not all 0 == 0.
  EXPECT_EQ(s.accepted, 2u);
  EXPECT_EQ(s.frames_in, 1u + 3u + 1u + 1u);
  EXPECT_EQ(s.frames_out, 3u + 1u);
  EXPECT_EQ(s.decoded, 3u);
  EXPECT_EQ(s.formats_learned, 1u);
  EXPECT_EQ(s.svc_requests, 1u);
  EXPECT_EQ(s.protocol_errors, 1u);
  EXPECT_GT(s.recv_syscalls, 0u);
  EXPECT_GT(s.send_syscalls, 0u);
}

}  // namespace
}  // namespace pbio::broker
