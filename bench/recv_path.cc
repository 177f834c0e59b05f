// Receive-path throughput over kernel TCP (loopback): the cost of getting
// small fixed-layout records OFF the wire, where the paper notes kernel
// overhead dominates ("most of the cost of receiving data is actually
// caused by the overhead of the kernel select() call").
//
// Three receiver configurations drain the same message stream:
//  * legacy:  pre-buffering path — two read() syscalls and a heap
//             allocation per frame (TwoReadsChannel below),
//  * pooled:  buffered framing + pooled frame buffers, one Reader::next()
//             per message,
//  * batched: Reader::next_batch() draining every buffered frame per call.
//
// Writes BENCH_recv_path.json with msgs/sec, syscalls/msg and pool hit
// rates for 64B and 256B records.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_support/harness.h"
#include "pbio/pbio.h"
#include "transport/io_retry.h"
#include "transport/socket.h"
#include "util/pool.h"

namespace pbio::bench {
namespace {

/// The receive path before buffered framing, kept as this bench's
/// baseline: one read() for the length prefix, one for the body, and a
/// fresh unpooled heap block per frame. Receive-only; reads an fd the
/// caller keeps open.
class TwoReadsChannel final : public transport::Channel {
 public:
  explicit TwoReadsChannel(int fd) : fd_(fd) {}

  Status send_frames(std::span<const transport::FrameSegments>) override {
    return Status(Errc::kUnsupported, "receive-only baseline channel");
  }
  Result<FrameBuf> recv_buf() override {
    std::uint8_t header[kFrameHeaderLen];
    Status st = read_full(header, sizeof(header));
    if (!st.is_ok()) return st;
    const std::uint64_t len =
        load_uint(header, kFrameHeaderLen, ByteOrder::kLittle);
    if (len > kMaxFrameLen) {
      return Status(Errc::kMalformed, "oversized frame");
    }
    FrameBuf msg = FrameBuf::heap(static_cast<std::size_t>(len));
    st = read_full(msg.data(), msg.size());
    if (!st.is_ok()) return st;
    return msg;
  }
  std::uint64_t bytes_sent() const override { return 0; }

  std::uint64_t recv_syscalls() const { return reads_; }

 private:
  Status read_full(std::uint8_t* at, std::size_t n) {
    while (n > 0) {
      const ssize_t r = transport::io::retry_read(fd_, at, n);
      ++reads_;
      if (r <= 0) return Status(Errc::kChannelClosed, "short read");
      at += r;
      n -= static_cast<std::size_t>(r);
    }
    return Status::ok();
  }

  int fd_;
  std::uint64_t reads_ = 0;
};

// Fixed-layout records: identical on the wire and in memory, so the decode
// is the zero-copy fast path and the measurement isolates transport work.
struct Rec64 {
  std::int64_t seq;
  double vals[7];
};
static_assert(sizeof(Rec64) == 64);

struct Rec256 {
  std::int64_t seq;
  double vals[31];
};
static_assert(sizeof(Rec256) == 256);

template <typename T>
Context::FormatId register_rec(Context& ctx, const char* name) {
  const NativeField fields[] = {
      PBIO_FIELD(T, seq, arch::CType::kLong),
      PBIO_ARRAY(T, vals, arch::CType::kDouble,
                 sizeof(T::vals) / sizeof(double)),
  };
  return ctx.register_format(native_format(name, fields, sizeof(T)));
}

struct RunResult {
  double msgs_per_sec = 0;
  double syscalls_per_msg = 0;
  double pool_hit_rate = 0;
  double frames_per_batch = 0;
};

enum class Mode { kLegacy, kPooled, kBatched };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kLegacy:
      return "legacy";
    case Mode::kPooled:
      return "pooled";
    case Mode::kBatched:
      return "batched";
  }
  return "?";
}

template <typename T>
RunResult run_mode(Mode mode, int messages, const char* fmt_name) {
  Context ctx;
  const auto id = register_rec<T>(ctx, fmt_name);

  transport::SocketListener listener;
  std::thread sender([&ctx, id, messages, port = listener.port()] {
    auto ch = transport::socket_connect(port);
    if (!ch.is_ok()) return;
    Writer w(ctx, *ch.value());
    T rec{};
    rec.seq = 1;
    if (!w.write(id, &rec).is_ok()) return;  // announce + first frame

    // Blast the remaining messages as pre-built frame bodies, 64 frames
    // per send_frames call (one writev each), so the sender never
    // bottlenecks the receive-side measurement.
    std::vector<std::uint8_t> body(kDataHeaderSize + sizeof(T));
    body[0] = kFrameData;
    store_uint(body.data() + kDataHeaderIdOffset, id, 8, ByteOrder::kLittle);
    std::memcpy(body.data() + kDataHeaderSize, &rec, sizeof(T));
    const std::span<const std::uint8_t> seg[] = {std::span(body)};
    std::array<transport::FrameSegments, 64> group;
    group.fill(transport::FrameSegments{seg});
    int sent = 1;
    while (sent < messages) {
      const int n = std::min<int>(64, messages - sent);
      if (!ch.value()->send_frames(std::span(group.data(), n)).is_ok()) {
        return;
      }
      sent += n;
    }
  });

  auto accepted = listener.accept();
  if (!accepted.is_ok()) {
    sender.join();
    return {};
  }
  transport::SocketChannel& sock = *accepted.value();
  TwoReadsChannel two_reads(sock.fd());
  const bool legacy = mode == Mode::kLegacy;
  transport::Channel& ch =
      legacy ? static_cast<transport::Channel&>(two_reads) : sock;
  // `sock` is the process's only receiving SocketChannel, so its recv()
  // calls are the transport.socket.read_calls series.
  const transport::SocketCounters calls = transport::socket_counters();
  auto recv_syscalls = [&] {
    return legacy ? two_reads.recv_syscalls() : calls.block->get(calls.recv);
  };
  Reader r(ctx, ch);
  r.expect(id);

  constexpr int kWarmup = 256;
  std::int64_t checksum = 0;
  int received = 0;
  for (; received < kWarmup; ++received) {
    auto m = r.next();
    if (!m.is_ok()) break;
    auto v = m.value().template view<T>();
    if (v.is_ok()) checksum += v.value()->seq;
  }

  const auto pool_before = BufferPool::shared().stats();
  const std::uint64_t sys_before = recv_syscalls();
  std::uint64_t batches = 0;
  Stopwatch sw;
  if (mode == Mode::kBatched) {
    std::vector<Message> out(64);
    while (received < messages) {
      auto n = r.next_batch(std::span(out));
      if (!n.is_ok()) break;
      ++batches;
      for (std::size_t i = 0; i < n.value(); ++i) {
        auto v = out[i].template view<T>();
        if (v.is_ok()) checksum += v.value()->seq;
      }
      received += static_cast<int>(n.value());
    }
  } else {
    while (received < messages) {
      auto m = r.next();
      if (!m.is_ok()) break;
      auto v = m.value().template view<T>();
      if (v.is_ok()) checksum += v.value()->seq;
      ++received;
    }
  }
  const double sec = static_cast<double>(sw.elapsed_ns()) / 1e9;
  sender.join();
  if (received != messages || checksum == 0) {
    std::fprintf(stderr, "%s/%s: received %d of %d\n", mode_name(mode),
                 fmt_name, received, messages);
    return {};
  }

  const auto pool_after = BufferPool::shared().stats();
  const int measured = messages - kWarmup;
  RunResult res;
  res.msgs_per_sec = measured / sec;
  res.syscalls_per_msg =
      static_cast<double>(recv_syscalls() - sys_before) / measured;
  const std::uint64_t hits = pool_after.hits - pool_before.hits;
  const std::uint64_t misses = pool_after.misses - pool_before.misses;
  res.pool_hit_rate =
      hits + misses == 0 ? 0 : static_cast<double>(hits) / (hits + misses);
  res.frames_per_batch =
      batches == 0 ? 0 : static_cast<double>(measured) / batches;
  return res;
}

int run() {
  print_header("Receive path",
               "TCP-loopback receive throughput: legacy two-reads-per-frame "
               "vs pooled buffered framing vs batched drain");
  constexpr int kMessages = 20000;
  std::vector<JsonFields> json;

  for (std::size_t rec_bytes : {sizeof(Rec64), sizeof(Rec256)}) {
    Table t("Records of " + std::to_string(rec_bytes) + " bytes (" +
                std::to_string(kMessages) + " messages)",
            {"mode", "msgs/sec", "syscalls/msg", "pool_hit", "vs_legacy"});
    double legacy_rate = 0;
    for (Mode mode : {Mode::kLegacy, Mode::kPooled, Mode::kBatched}) {
      const RunResult r =
          rec_bytes == sizeof(Rec64)
              ? run_mode<Rec64>(mode, kMessages, "rec64")
              : run_mode<Rec256>(mode, kMessages, "rec256");
      if (mode == Mode::kLegacy) legacy_rate = r.msgs_per_sec;
      const double speedup =
          legacy_rate > 0 ? r.msgs_per_sec / legacy_rate : 0;
      char rate[32], sys[32], hit[32];
      std::snprintf(rate, sizeof(rate), "%.0f", r.msgs_per_sec);
      std::snprintf(sys, sizeof(sys), "%.3f", r.syscalls_per_msg);
      std::snprintf(hit, sizeof(hit), "%.1f%%", 100.0 * r.pool_hit_rate);
      t.add_row({mode_name(mode), rate, sys, hit, fmt_ratio(speedup)});
      json.push_back({{"mode", json_str(mode_name(mode))},
                      {"record_bytes", std::to_string(rec_bytes)},
                      {"msgs_per_sec", json_num(r.msgs_per_sec, 0)},
                      {"syscalls_per_msg", json_num(r.syscalls_per_msg, 3)},
                      {"pool_hit_rate", json_num(r.pool_hit_rate, 3)},
                      {"frames_per_batch", json_num(r.frames_per_batch, 1)},
                      {"speedup_vs_legacy", json_num(speedup, 2)}});
    }
    t.print();
  }

  std::printf("\n");
  return write_bench_json("BENCH_recv_path.json", "recv_path",
                          {{"messages_per_run", std::to_string(kMessages)}},
                          json)
             ? 0
             : 1;
}

}  // namespace
}  // namespace pbio::bench

int main() { return pbio::bench::run(); }
