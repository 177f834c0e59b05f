// broker_echo: the epoll broker (one worker, decode on, echo) driven by a
// closed-loop load generator in the main thread over 4 TCP connections at
// depth 1. Each connection announces the sparc_v8 mech_100b format once,
// then round-trips one data frame at a time. The broker's CPU is read from
// the schedstat of the threads Broker::start created, so the load
// generator's own cost is excluded.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <vector>

#include "bench_support/workload.h"
#include "broker/broker.h"
#include "floors.h"
#include "fmt/meta.h"
#include "pbio/encode.h"
#include "trace.h"
#include "util/endian.h"
#include "value/materialize.h"
#include "value/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using pbio::Context;
namespace bench = pbio::bench;

constexpr int kConns = 4;
constexpr std::size_t kFrames = 16;          // distinct seeded data frames
constexpr std::uint64_t kChunkMsgs = 2048;   // round trips per chunk

/// [len u32 LE][frame] — the stream framing SocketChannel speaks.
void append_framed(std::vector<std::uint8_t>& out,
                   std::span<const std::uint8_t> frame) {
  std::uint8_t hdr[4];
  pbio::store_uint(hdr, frame.size(), 4, pbio::ByteOrder::kLittle);
  out.insert(out.end(), hdr, hdr + 4);
  out.insert(out.end(), frame.begin(), frame.end());
}

struct Inputs {
  bench::Workload w;
  std::vector<std::uint8_t> announce;               // framed format frame
  std::vector<std::vector<std::uint8_t>> data;      // framed data frames
};

Inputs make_inputs(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Inputs in{bench::make_workload(bench::Size::k100B, pbio::arch::abi_sparc_v8(),
                                 pbio::arch::abi_x86_64()),
            {}, {}};
  std::vector<std::uint8_t> frame{pbio::kFrameFormat};
  const auto meta = pbio::fmt::encode_meta(in.w.src_fmt);
  frame.insert(frame.end(), meta.begin(), meta.end());
  append_framed(in.announce, frame);
  Context scratch;
  const auto wire_id = scratch.register_format(in.w.src_fmt);
  for (std::size_t i = 0; i < kFrames; ++i) {
    const auto rec = pbio::value::random_record(in.w.spec, rng);
    const auto image = pbio::value::materialize(in.w.src_fmt, rec);
    frame.assign(pbio::kDataHeaderSize, 0);
    frame[0] = pbio::kFrameData;
    pbio::store_uint(frame.data() + pbio::kDataHeaderIdOffset, wire_id, 8,
                     pbio::ByteOrder::kLittle);
    frame.insert(frame.end(), image.begin(), image.end());
    in.data.emplace_back();
    append_framed(in.data.back(), frame);
  }
  return in;
}

bool send_all(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::send(fd, p, n, MSG_NOSIGNAL);
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

/// One client connection of the load generator.
struct Client {
  int fd = -1;
  std::size_t frame = 0;   // index of the data frame in flight
  std::size_t got = 0;     // echo bytes received so far
  std::uint64_t t_send = 0;
  std::vector<std::uint8_t> buf;
};

/// A started broker, its worker threads and the connected clients.
struct Session {
  Context ctx;
  std::unique_ptr<pbio::broker::Broker> broker;
  std::vector<int> broker_tids;
  Client clients[kConns];
  int ep = -1;
  ~Session() {
    for (Client& c : clients) {
      if (c.fd >= 0) ::close(c.fd);
    }
    if (ep >= 0) ::close(ep);
    if (broker) broker->stop();
  }
};

struct Phase {
  std::uint64_t msgs = 0;
  std::uint64_t failed = 0;
  Chunks chunks;
  Latency lat;
};

class Loadgen {
 public:
  explicit Loadgen(const Inputs& in) : in_(in) {}

  std::unique_ptr<Session> setup() {
    auto s = std::make_unique<Session>();
    const auto native_id = s->ctx.register_format(in_.w.dst_fmt);
    pbio::broker::Config cfg;
    cfg.workers = 1;
    cfg.decode = true;
    cfg.on_data = pbio::broker::OnData::kEcho;
    s->broker = std::make_unique<pbio::broker::Broker>(s->ctx, cfg);
    s->broker->expect(in_.w.dst_fmt.name, native_id);
    const std::vector<int> before = thread_ids();
    const pbio::Status st = s->broker->start();
    if (!st.is_ok()) throw pbio::PbioError(st.to_string());
    for (int tid : thread_ids()) {
      if (!std::binary_search(before.begin(), before.end(), tid)) {
        s->broker_tids.push_back(tid);
        // The broker's threads share the load generator's CPU (main()
        // pins it): every round trip then costs the same hand-offs in
        // every run. Spread over two CPUs, runs differed by up to 30% in
        // msgs/s with where the scheduler put the two threads.
        pin_thread(tid, 1);
      }
    }
    s->ep = ::epoll_create1(EPOLL_CLOEXEC);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(s->broker->port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const int one = 1;
    for (int i = 0; i < kConns; ++i) {
      Client& c = s->clients[i];
      c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
      if (c.fd < 0 ||
          ::connect(c.fd,
                    reinterpret_cast<const sockaddr*>(&addr),  // wire-lint: ok BSD socket API
                    sizeof(addr)) != 0) {
        throw pbio::PbioError("connect to broker failed");
      }
      ::setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<std::uint32_t>(i);
      ::epoll_ctl(s->ep, EPOLL_CTL_ADD, c.fd, &ev);
      c.buf.resize(in_.data[0].size());
      if (!send_all(c.fd, in_.announce.data(), in_.announce.size())) {
        throw pbio::PbioError("announce to broker failed");
      }
    }
    // First data frame on every connection, and its echo.
    Phase ph;
    if (!run(*s, ph, 0, kConns, nullptr) || ph.failed != 0) {
      throw pbio::PbioError("broker set-up echo failed");
    }
    return s;
  }

  /// Round trips until `duration_ns` has passed (or `count` completions
  /// when non-zero), one frame in flight per connection. The connections
  /// are idle before and after, so the broker's counters are settled.
  bool run(Session& s, Phase& ph, std::uint64_t duration_ns,
           std::uint64_t count, SpanLog* log) {
    for (Client& c : s.clients) {
      if (!send_next(c)) return false;
    }
    const std::uint64_t t_start = now_ns();
    std::uint64_t done = 0, in_chunk = 0;
    ph.chunks.begin(threads_cpu_ns(s.broker_tids));
    epoll_event events[kConns];
    while (count != 0 ? done < count : now_ns() - t_start < duration_ns) {
      const int n = ::epoll_wait(s.ep, events, kConns, 5000);
      if (n <= 0) return false;  // a stalled broker
      for (int e = 0; e < n; ++e) {
        Client& c = s.clients[events[e].data.u32];
        const ssize_t r = ::recv(c.fd, c.buf.data() + c.got,
                                 c.buf.size() - c.got, MSG_DONTWAIT);
        if (r <= 0) {
          if (r < 0 && (errno == EAGAIN || errno == EINTR)) continue;
          return false;
        }
        c.got += static_cast<std::size_t>(r);
        if (c.got < c.buf.size()) continue;
        ph.lat.add(now_ns() - c.t_send);
        std::uint64_t t = log != nullptr ? SpanLog::now() : 0;
        const auto& sent = in_.data[c.frame];
        if (std::memcmp(c.buf.data(), sent.data(), sent.size()) != 0) {
          ++ph.failed;
        }
        if (log != nullptr) log->lap(Layer::kVerify, t);
        ++ph.msgs;
        ++done;
        if (++in_chunk == kChunkMsgs) {
          ph.chunks.close(in_chunk, in_chunk * in_.w.dst_fmt.fixed_size,
                          threads_cpu_ns(s.broker_tids));
          in_chunk = 0;
        }
        if (!send_next(c)) return false;
      }
    }
    // Drain the frames still in flight.
    for (Client& c : s.clients) {
      while (c.got < c.buf.size()) {
        const ssize_t r =
            ::recv(c.fd, c.buf.data() + c.got, c.buf.size() - c.got, 0);
        if (r <= 0) return false;
        c.got += static_cast<std::size_t>(r);
      }
      const auto& sent = in_.data[c.frame];
      if (std::memcmp(c.buf.data(), sent.data(), sent.size()) != 0) {
        ++ph.failed;
      }
      ++ph.msgs;
      c.got = 0;
    }
    return true;
  }

 private:
  bool send_next(Client& c) {
    c.frame = (c.frame + 1 + next_++) % kFrames;
    c.got = 0;
    c.t_send = now_ns();
    const auto& f = in_.data[c.frame];
    return send_all(c.fd, f.data(), f.size());
  }

  const Inputs& in_;
  std::size_t next_ = 0;
};

}  // namespace

RunResult run_broker_echo(const Options& opt) {
  RunResult res;
  const Inputs in = make_inputs(opt.seed);
  Loadgen gen(in);
  std::unique_ptr<Session> s = gen.setup();
  const std::uint64_t compiles = s->ctx.stats().conversions_compiled;
  Phase warm;
  if (!gen.run(*s, warm, 0, 2000, nullptr)) {
    throw pbio::PbioError("warm-up stalled");
  }

  const std::uint64_t dur = phase_ns(opt);
  Phase ph;
  std::vector<double> setup_s;
  const int slices = setup_slices(opt);
  const auto bs0 = s->broker->stats();
  const auto pool0 = s->broker->pool_stats();
  const auto cs0 = s->ctx.stats();
  const std::uint64_t allocs0 = allocs();
  const std::uint64_t gen0 = thread_cpu_ns();
  const std::uint64_t brk0 = threads_cpu_ns(s->broker_tids);
  for (int i = 0; i < slices; ++i) {
    if (!gen.run(*s, ph, dur / slices, 0, nullptr)) {
      throw pbio::PbioError("broker stalled");
    }
    if (opt.trace) continue;
    const std::uint64_t t0 = now_ns();
    const auto spare = gen.setup();
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const std::uint64_t brk1 = threads_cpu_ns(s->broker_tids);
  const std::uint64_t gen1 = thread_cpu_ns();
  const std::uint64_t allocs1 = allocs();
  const auto cs1 = s->ctx.stats();
  const auto pool1 = s->broker->pool_stats();
  const auto bs1 = s->broker->stats();

  const std::uint64_t frames_in = bs1.frames_in - bs0.frames_in;
  const std::uint64_t decoded = bs1.decoded - bs0.decoded;
  res.attempted = warm.msgs + ph.msgs;
  res.failed = warm.failed + ph.failed + (decoded > frames_in
                                              ? decoded - frames_in
                                              : frames_in - decoded);
  res.notes.push_back("chunks " + std::to_string(ph.chunks.size()) +
                      ", latency samples " + std::to_string(ph.lat.count()) +
                      " (round trips), broker threads " +
                      std::to_string(s->broker_tids.size()));

  if (!opt.trace) {
    report_end_to_end(res, ph.chunks, ph.lat, setup_s);
    return res;
  }

  // Traced phase: the same loop with the reference compare timed.
  SpanLog tlog(1 << 16);
  Phase tp;
  if (!gen.run(*s, tp, dur, 0, &tlog)) {
    throw pbio::PbioError("broker stalled");
  }
  res.attempted += tp.msgs;
  res.failed += tp.failed;
  tlog.write_chrome_trace(beside_binary("trace_broker_echo.json"));

  auto& v = res.values;
  const double msgs = static_cast<double>(ph.msgs);
  const std::uint64_t sys_recv = bs1.recv_syscalls - bs0.recv_syscalls;
  const std::uint64_t sys_send = bs1.send_syscalls - bs0.send_syscalls;
  v["broker.syscalls_per_msg"] = per(sys_recv + sys_send, frames_in);
  v["broker.recv_syscalls_per_msg"] = per(sys_recv, frames_in);
  v["broker.send_syscalls_per_msg"] = per(sys_send, frames_in);
  v["broker.worker_cpu_us_per_msg"] = per((brk1 - brk0) / 1e3, msgs);
  v["broker.loadgen_cpu_us_per_msg"] = per((gen1 - gen0) / 1e3, msgs);
  v["broker.decoded_share"] = per(decoded, frames_in);
  v["broker.pool_hit_rate"] = hit_rate(pool0, pool1);
  v["cache.compiles"] = static_cast<double>(compiles);
  v["cache.compile_us_per_pair"] =
      compile_us_per_pair({{in.w.src_fmt, in.w.dst_fmt}});
  v["cache.l1_hits_per_msg"] =
      per(cs1.conversion_cache_hits - cs0.conversion_cache_hits, msgs);
  v["alloc.per_msg"] = per(allocs1 - allocs0, msgs);
  v["bench.lat_p99_us"] = ph.lat.p99_us();
  v["bench.verify_ns_per_msg"] = per(tlog.total_ns(Layer::kVerify), tp.msgs);
  v["bench.trace_overhead_share"] =
      1.0 - tp.chunks.msgs_per_s() / ph.chunks.msgs_per_s();
  const double copy_ns = floor_memcpy_ns(in.w.dst_fmt.fixed_size);
  v["floor.memcpy_mb_per_s"] = per(in.w.dst_fmt.fixed_size, copy_ns) * 1e3;
  v["floor.writev_ns"] = floor_writev_ns(in.data[0].size());
  v["floor.tcp_rtt_us"] = floor_tcp_rtt_us(in.data[0].size());
  v["broker.rtt_floor_ratio"] = per(ph.lat.p50_us(), v["floor.tcp_rtt_us"]);
  return res;
}

}  // namespace perfbench
