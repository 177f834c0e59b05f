// Per-connection state machine for the broker's event loop.
//
// A Conn owns one non-blocking SocketChannel (built over its worker's
// BufferPool, so frames never bounce between cores), a SendQueue of pending
// responses, and a pbio::Resolver over the broker-wide expected table. The
// Resolver is the pbio frame interpreter a Reader runs too: it learns
// announcements, holds trace sidecars and resolves data frames; a frame
// of a wire id the connection has resolved before finds its conversion in
// the Resolver's per-stream table, with no lock. What stays here is the
// broker's own part: format-service requests, echo / ack / sink, counters
// and flight records.
//
// service() is the whole per-connection protocol: drain complete frames
// from the socket (poll_buf, which slices coalesced frames out of one
// pooled stream buffer without allocating), dispatch each on its first
// payload byte (pbio frame kinds and format-service request bytes are
// disjoint), flush responses with gathered send. Draining stops at the
// first short read rather than at EAGAIN: under EPOLLET any later byte
// raises a new edge (see SocketChannel::may_have_input). Backpressure is a
// flag, not an epoll transition: when the send queue passes the
// per-connection byte cap the Conn simply stops draining input, the kernel
// receive buffer fills, the peer's TCP window closes — and reading resumes
// once the queue drains below the low watermark. Peer EOF stops reading
// too; the Conn closes once the replies already queued have been flushed.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "broker/send_queue.h"
#include "obs/obs.h"
#include "pbio/context.h"
#include "pbio/format_service.h"
#include "pbio/resolver.h"
#include "transport/socket.h"
#include "util/affinity.h"
#include "util/buffer.h"
#include "util/wire_taint.h"

namespace pbio::broker {

/// Ack frame kind: [kFrameAck u8][7 pad][u64 wire format id], 16 bytes like
/// a data-frame header. Disjoint from kFrameFormat/kFrameData and from the
/// format-service request/response bytes.
inline constexpr std::uint8_t kFrameAck = 0x30;

/// What the broker does with a data frame.
enum class OnData : std::uint8_t {
  kEcho,  // re-queue the received frame verbatim (zero-copy lease move)
  kAck,   // reply with a 16-byte ack frame carrying the wire format id
  kSink,  // absorb (count only) — upper bound / drain benchmarks
};

/// Per-connection stream-buffer chunk. Small by design: 10k connections
/// each pin one stream block, so the default 64 KiB point-to-point chunk
/// would cost 640 MB of mostly-empty buffers (and blow the cache working
/// set); 4 KiB still coalesces ~30 small frames per read. Frames larger
/// than the chunk grow their window on demand.
inline constexpr std::size_t kStreamChunkBytes = 4 * 1024;

/// Dispatch time above which a frame counts as "slow" (flight event +
/// pbio.broker.slow_frames). Only measured in PBIO_OBS builds.
inline constexpr std::uint64_t kSlowFrameNs = 10'000'000;

struct Config {
  unsigned workers = 1;
  int accept_backlog = 1024;
  std::size_t max_connections = 8192;       // admission: accept-time cap
  std::size_t max_inflight_frames = 65536;  // global queued-response cap
  std::size_t conn_queue_cap_bytes = 256 * 1024;  // pause reading above this
  std::size_t conn_queue_resume_bytes = 64 * 1024;  // resume below this
  /// Kernel send-buffer size for accepted sockets (0 = OS default). Small
  /// values bound per-connection kernel memory at high fan-in and make the
  /// userspace send-queue caps the operative backpressure layer.
  int so_sndbuf = 0;
  OnData on_data = OnData::kEcho;
  /// Convert each data frame wire->native before forwarding it; off, data
  /// frames are forwarded without being resolved.
  bool decode = false;
  std::string stats_file;         // periodic obs::to_json dump (empty: off)
  unsigned stats_interval_ms = 1000;
  /// HTTP scrape endpoint (/metrics, /healthz, /tracez) riding worker 0's
  /// epoll: -1 = off, 0 = ephemeral port (Broker::scrape_port() reports
  /// it), otherwise the fixed port to bind on 127.0.0.1.
  int scrape_port = -1;
  /// Arm the fault flight recorder with this post-mortem path (empty:
  /// off). See obs/flight.h for what gets recorded and when it dumps.
  std::string flight_file;
};

/// Monotonic broker counters, in BrokerStats field order: the indices of
/// Shared::counters, whose series are pbio.broker.<field>.
enum Counter : std::size_t {
  kAccepted, kClosed, kShedConnections, kShedInflight, kProtocolErrors,
  kFramesIn, kFramesOut, kBytesIn, kBytesOut, kFormatsLearned, kDecoded,
  kPauses, kResumes, kRecvSyscalls, kSendSyscalls, kSlowFrames,
};

/// State shared by every connection across all workers. Gauges and
/// counters are relaxed atomics — workers never synchronize through them;
/// they exist for admission decisions (connections, inflight) and
/// observability.
// thread-domain: any
struct Shared {
  Shared(Context& c, Config cf) : ctx(c), cfg(std::move(cf)), svc(c) {}

  Context& ctx;
  const Config cfg;
  FormatServiceServer svc;
  /// Decode targets by format name (declared before start(); read-only
  /// while the broker runs, so every connection's Resolver reads it
  /// without a lock and none keeps a copy).
  ExpectedTable expected;

  // Gauges backing admission control.
  std::atomic<std::size_t> connections{0};
  std::atomic<std::size_t> inflight{0};     // queued response frames
  std::atomic<std::size_t> queued_bytes{0};  // bytes across all send queues
  std::atomic<std::size_t> paused{0};        // connections with reads paused

  obs::CounterBlock counters{
      "pbio.broker.accepted", "pbio.broker.closed",
      "pbio.broker.shed_connections", "pbio.broker.shed_inflight",
      "pbio.broker.protocol_errors", "pbio.broker.frames_in",
      "pbio.broker.frames_out", "pbio.broker.bytes_in", "pbio.broker.bytes_out",
      "pbio.broker.formats_learned", "pbio.broker.decoded",
      "pbio.broker.pauses", "pbio.broker.resumes", "pbio.broker.recv_syscalls",
      "pbio.broker.send_syscalls", "pbio.broker.slow_frames"};
};

/// A Conn lives its whole life on the worker thread its fd hashed to:
/// constructed there (add_conn), serviced there, destroyed there — except
/// for Broker::stop() teardown, which happens after the worker loop has
/// exited and unbound its arena.
// thread-domain: worker
class Conn {
 public:
  /// Adopts `fd` (already non-blocking). `pool` is the owning worker's
  /// arena — all stream buffers and response leases come from it.
  Conn(int fd, Shared& sh, BufferPool& pool);
  ~Conn();

  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  enum class Verdict : std::uint8_t {
    kIdle,   // input drained, responses flushed or blocked — wait for epoll
    kMore,   // frame budget exhausted with input still buffered — re-run
    kClose,  // peer gone, protocol error, or shed — destroy the Conn
  };

  /// Drain + dispatch + flush, up to `frame_budget` inbound frames (the
  /// worker's fairness quantum). Call with the epoll `events` on every
  /// edge, and with no events again while kMore.
  Verdict service(std::size_t frame_budget, std::uint32_t events);

  int fd() const { return ch_.fd(); }

 private:
  WIRE_TAINTED Status dispatch(FrameBuf frame);
  // Decode (with Config::decode) and answer one interpreted data frame.
  WIRE_TAINTED Status on_data_frame(FrameBuf frame,
                                    const Resolver::Frame& f);
  Status enqueue(FrameBuf frame, const obs::TraceCtx* trace = nullptr);
  // Forward `trace`'s sidecar ahead of the response frame it describes.
  Status forward_trace(FrameBuf response, const obs::TraceCtx& trace);
  // Flush the send queue; updates inflight/byte gauges. kWouldBlock is
  // success (blocked=true inside); hard errors mean the peer is gone.
  Status flush();
  // Publish the channel's syscall-counter delta into the shared stats.
  void fold_syscalls();
  BufferPool& pool() { return pool_; }

  BufferPool& pool_;
  ThreadOwner owner_;
  transport::SocketChannel ch_;
  Shared& sh_;
  std::uint64_t folded_recv_ = 0;
  std::uint64_t folded_send_ = 0;
  SendQueue sq_;
  ByteBuffer svc_reply_{256};
  std::vector<std::uint8_t> decode_out_;
  bool read_paused_ = false;
  /// The peer sent EOF: read nothing more, close once sq_ has flushed.
  bool peer_eof_ = false;
  /// Flips on the first pause and never back: this connection's residency
  /// samples land in the "slow" class histogram from then on.
  bool ever_paused_ = false;

  /// Keeps each resolved wire id's per-pair decode latency histogram,
  /// pbio.broker.decode_ns.<wire>-><native>, in its Entry.
  Resolver resolver_;
};

}  // namespace pbio::broker
