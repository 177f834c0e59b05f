#include "broker/conn.h"

#include <sys/epoll.h>

#include "fmt/meta.h"
#include "obs/flight.h"
#include "obs/span.h"
#include "pbio/encode.h"
#include "transport/tracewire.h"
#include "util/arena.h"
#include "util/endian.h"

namespace pbio::broker {

namespace {
// mo: every kRelaxed site below is an independent admission gauge; no
// thread dereferences data published through them — ordering comes from
// the per-worker event loop itself.
constexpr auto kRelaxed = std::memory_order_relaxed;

#if PBIO_OBS_ENABLED
// Residency class histograms, registered once per process. "slow" is any
// connection that has ever hit the pause watermark — separating the tail
// a misbehaving client creates from the fleet's normal egress latency.
obs::MetricId residency_hist(bool ever_paused) {
  static const obs::MetricId normal =
      obs::histogram("pbio.broker.residency_ns.normal");
  static const obs::MetricId slow =
      obs::histogram("pbio.broker.residency_ns.slow");
  return ever_paused ? slow : normal;
}
#endif
}  // namespace

Conn::Conn(int fd, Shared& sh, BufferPool& pool)
    : pool_(pool),
      ch_(fd, pool, sh.cfg.stream_chunk_bytes),
      sh_(sh),
      resolver_(sh.ctx, sh.expected) {
  // Conns are born on their worker thread (add_conn); pin the contract.
  // The dtor deliberately does not assert: stop() tears down from the
  // main thread after the worker loop has exited.
  owner_.bind();
  sh_.connections.fetch_add(1, kRelaxed);
#if PBIO_OBS_ENABLED
  obs::flight_record(obs::FlightKind::kAccept,
                     static_cast<std::uint64_t>(fd));
#endif
}

Conn::~Conn() {
  sh_.connections.fetch_sub(1, kRelaxed);
  sh_.counters.add(kClosed, 1);
  if (read_paused_) sh_.paused.fetch_sub(1, kRelaxed);
  // Undrained responses die with the connection: release their slots in
  // the global inflight/byte gauges (the FrameBuf leases themselves return
  // to the pool when the SendQueue member destructs).
  sh_.inflight.fetch_sub(sq_.queued_frames(), kRelaxed);
  sh_.queued_bytes.fetch_sub(sq_.queued_bytes(), kRelaxed);
  sh_.counters.add(kRecvSyscalls, ch_.recv_syscalls() - folded_recv_);
  sh_.counters.add(kSendSyscalls, ch_.send_syscalls() - folded_send_);
#if PBIO_OBS_ENABLED
  obs::flight_record(obs::FlightKind::kClose,
                     static_cast<std::uint64_t>(ch_.fd()));
#endif
}

void Conn::fold_syscalls() {
  const std::uint64_t r = ch_.recv_syscalls();
  const std::uint64_t s = ch_.send_syscalls();
  sh_.counters.add(kRecvSyscalls, r - folded_recv_);
  sh_.counters.add(kSendSyscalls, s - folded_send_);
  folded_recv_ = r;
  folded_send_ = s;
}

Status Conn::enqueue(FrameBuf frame, const obs::TraceCtx* trace) {
  // Global inflight limiter: admission for response memory. A connection
  // that would push the broker past the cap is shed (closed), never
  // buffered without bound.
  const std::size_t prev = sh_.inflight.fetch_add(1, kRelaxed);
  if (prev >= sh_.cfg.max_inflight_frames) {
    sh_.inflight.fetch_sub(1, kRelaxed);
    sh_.counters.add(kShedInflight, 1);
#if PBIO_OBS_ENABLED
    obs::flight_record(obs::FlightKind::kShedInflight,
                       static_cast<std::uint64_t>(ch_.fd()), prev);
#endif
    return Status(Errc::kOverloaded, "inflight frame cap");
  }
  const std::size_t wire = transport::kFrameHeaderLen + frame.size();
  sh_.queued_bytes.fetch_add(wire, kRelaxed);
  sq_.push(std::move(frame), trace);
  return Status::ok();
}

Status Conn::forward_trace(FrameBuf response) {
  // The sidecar goes out ahead of the response it describes, re-stamped
  // with a fresh span id so each hop's emission is distinguishable; the
  // ids let the Reader on the far side continue the same trace.
  obs::TraceCtx fwd = pending_trace_;
#if PBIO_OBS_ENABLED
  fwd.span_id = obs::new_trace_id();
#endif
  FrameBuf side = pool().lease(transport::kTraceFrameLen);
  std::uint8_t raw[transport::kTraceFrameLen];
  transport::encode_trace_frame(raw, fwd);
  std::copy_n(raw, transport::kTraceFrameLen, side.data());
  Status st = enqueue(std::move(side));
  if (!st.is_ok()) return st;
  return enqueue(std::move(response), &pending_trace_);
}

Status Conn::flush() {
  if (sq_.empty()) return Status::ok();
#if PBIO_OBS_ENABLED
  auto res = sq_.flush(ch_, residency_hist(ever_paused_));
#else
  auto res = sq_.flush(ch_);
#endif
  if (!res.is_ok()) return res.status();
  sh_.inflight.fetch_sub(res.value().frames, kRelaxed);
  sh_.queued_bytes.fetch_sub(res.value().bytes, kRelaxed);
  sh_.counters.add(kFramesOut, res.value().frames);
  sh_.counters.add(kBytesOut, res.value().bytes);
  return Status::ok();
}

Status Conn::decode_frame(const FrameBuf& frame) {
  // on_data_frame already rejects short frames, but this function sizes
  // `frame.size() - kDataHeaderSize` below — a guard living only in the
  // caller would let any new call site wrap that subtraction. Check
  // locally; wire-length trust is never inherited across functions.
  if (frame.size() < kDataHeaderSize) {
    return Status(Errc::kTruncated, "short data frame");
  }
  const Context::FormatId wire_id = load_uint(
      frame.data() + kDataHeaderIdOffset, 8, ByteOrder::kLittle);

  bool refilled = false;
  auto resolved = resolver_.resolve(wire_id, &refilled);
  if (!resolved.is_ok()) return resolved.status();
  const Resolver::Entry& entry = *resolved.value();
  if (frame.size() - kDataHeaderSize < entry.wire->fixed_size) {
    return Status(Errc::kTruncated, "payload smaller than record");
  }
  if (entry.conv == nullptr) return Status::ok();  // no expected target
#if PBIO_OBS_ENABLED
  if (refilled) {
    // Cold: one registration per (wire, native) pair per process — the
    // per-format-pair latency series behind /metrics p50/p99/p999.
    decode_hist_ = obs::histogram("pbio.broker.decode_ns." +
                                  entry.wire->name + "->" +
                                  entry.native->name);
  }
#endif

  if (decode_out_.size() < entry.native->fixed_size) {
    decode_out_.resize(entry.native->fixed_size);
  }
#if PBIO_OBS_ENABLED
  const std::uint64_t t0 = obs::ticks();
#endif
  convert::ExecInput in;
  in.src = frame.data() + kDataHeaderSize;
  in.src_size = frame.size() - kDataHeaderSize;
  in.dst = decode_out_.data();
  in.dst_size = entry.native->fixed_size;
  in.mode = convert::VarMode::kPointers;
  in.borrow_from_src = true;
  if (entry.wire->is_fixed_layout()) {
    Status st = pbio::run(*entry.conv, in, sh_.cfg.engine);
    if (!st.is_ok()) return st;
  } else {
    // Variable-length records may need arena space for non-borrowable
    // strings; scoped per frame so it cannot grow without bound.
    Arena scratch;
    in.arena = &scratch;
    Status st = pbio::run(*entry.conv, in, sh_.cfg.engine);
    if (!st.is_ok()) return st;
  }
#if PBIO_OBS_ENABLED
  if (decode_hist_ != obs::kInvalidMetric) {
    obs::histogram_record(decode_hist_,
                          obs::ticks_to_ns(obs::ticks() - t0));
  }
#endif
  sh_.counters.add(kDecoded, 1);
  return Status::ok();
}

Status Conn::on_data_frame(FrameBuf frame) {
  if (frame.size() < kDataHeaderSize) {
    return Status(Errc::kTruncated, "short data frame");
  }
  if (sh_.cfg.decode) {
    Status st = decode_frame(frame);
    if (!st.is_ok()) {
#if PBIO_OBS_ENABLED
      obs::flight_record(obs::FlightKind::kDecodeError,
                         static_cast<std::uint64_t>(ch_.fd()),
                         static_cast<std::uint64_t>(st.code()));
#endif
      return st;
    }
  }
  // This data frame consumes any pending trace sidecar: emit the ingress
  // span (sidecar arrival to dispatch complete) and clear it regardless of
  // response mode, so a stale ctx can never attach to a later message.
  const bool traced = pending_trace_.valid();
#if PBIO_OBS_ENABLED
  if (traced) {
    obs::trace_emit_ctx("pbio.trace.ingress", pending_trace_,
                        pending_trace_ns_, obs::epoch_ns());
  }
#endif
  struct ClearTrace {
    obs::TraceCtx* ctx;
    ~ClearTrace() { *ctx = obs::TraceCtx{}; }
  } clear{&pending_trace_};

  switch (sh_.cfg.on_data) {
    case OnData::kEcho:
      if (traced) return forward_trace(std::move(frame));
      return enqueue(std::move(frame));
    case OnData::kAck: {
      const Context::FormatId wire_id = load_uint(
          frame.data() + kDataHeaderIdOffset, 8, ByteOrder::kLittle);
      frame.reset();  // drop the lease before taking a fresh one
      FrameBuf ack = pool().lease(kDataHeaderSize);
      std::fill_n(ack.data(), kDataHeaderSize, std::uint8_t{0});
      ack.data()[0] = kFrameAck;
      store_uint(ack.data() + kDataHeaderIdOffset, wire_id, 8,
                 ByteOrder::kLittle);
      if (traced) return forward_trace(std::move(ack));
      return enqueue(std::move(ack));
    }
    case OnData::kSink:
      return Status::ok();
  }
  return Status(Errc::kMalformed, "bad OnData mode");
}

Status Conn::dispatch(FrameBuf frame) {
  if (frame.empty()) {
    sh_.counters.add(kProtocolErrors, 1);
    return Status(Errc::kMalformed, "empty frame");
  }
  sh_.counters.add(kFramesIn, 1);
  sh_.counters.add(kBytesIn, transport::kFrameHeaderLen + frame.size());

  switch (frame.data()[0]) {
    case kFrameFormat: {
      auto meta =
          fmt::decode_meta(std::span(frame.data() + 1, frame.size() - 1));
      if (!meta.is_ok()) {
        sh_.counters.add(kProtocolErrors, 1);
        return meta.status();
      }
      auto learned = sh_.ctx.learn_format(std::move(meta).take());
      if (!learned.is_ok()) {
        sh_.counters.add(kProtocolErrors, 1);
        return learned.status();
      }
      sh_.counters.add(kFormatsLearned, 1);
      return Status::ok();
    }
    case kFrameData: {
      Status st = on_data_frame(std::move(frame));
      if (!st.is_ok() && st.code() != Errc::kOverloaded) {
        sh_.counters.add(kProtocolErrors, 1);
      }
      return st;
    }
    case kSvcLookup:
    case kSvcRegister: {
      Status st = sh_.svc.handle(frame.view(), svc_reply_);
      if (!st.is_ok()) {
        sh_.counters.add(kProtocolErrors, 1);
        return st;
      }
      FrameBuf reply = pool().lease(svc_reply_.size());
      std::copy_n(svc_reply_.data(), svc_reply_.size(), reply.data());
      frame.reset();
      return enqueue(std::move(reply));
    }
    case transport::kFrameTrace: {
      // Trace sidecar for the next data frame. Handled in every build
      // configuration (the sampling writer may be an obs-on peer); only
      // the ingress timestamping is an obs concern.
      obs::TraceCtx ctx;
      if (!transport::decode_trace_frame(frame.view(), &ctx)) {
        sh_.counters.add(kProtocolErrors, 1);
#if PBIO_OBS_ENABLED
        obs::flight_record(obs::FlightKind::kProtocolError,
                           static_cast<std::uint64_t>(ch_.fd()));
#endif
        return Status(Errc::kMalformed, "bad trace sidecar frame");
      }
      pending_trace_ = ctx;
#if PBIO_OBS_ENABLED
      pending_trace_ns_ = obs::epoch_ns();
#endif
      return Status::ok();
    }
    default:
      sh_.counters.add(kProtocolErrors, 1);
#if PBIO_OBS_ENABLED
      obs::flight_record(obs::FlightKind::kProtocolError,
                         static_cast<std::uint64_t>(ch_.fd()));
#endif
      return Status(Errc::kMalformed, "unknown frame kind");
  }
}

Conn::Verdict Conn::service(std::size_t frame_budget, std::uint32_t events) {
  owner_.assert_held("Conn::service");
  if ((events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0) {
    ch_.rearm((events & (EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0);
  }
  std::size_t used = 0;
  while (true) {
    if (!read_paused_ && !peer_eof_) {
      while (used < frame_budget && ch_.may_have_input()) {
        auto frame = ch_.poll_buf();
        if (!frame.is_ok()) {
          const Errc c = frame.status().code();
          if (c == Errc::kWouldBlock) break;
          if (c == Errc::kChannelClosed) {
            // Half-closed peers still read: answer what arrived, then close.
            peer_eof_ = true;
            break;
          }
          sh_.counters.add(kProtocolErrors, 1);
          fold_syscalls();
          return Verdict::kClose;
        }
        ++used;
#if PBIO_OBS_ENABLED
        const std::uint64_t disp_t0 = obs::ticks();
#endif
        Status st = dispatch(std::move(frame).take());
#if PBIO_OBS_ENABLED
        const std::uint64_t disp_ns =
            obs::ticks_to_ns(obs::ticks() - disp_t0);
        if (disp_ns > sh_.cfg.slow_frame_ns) {
          sh_.counters.add(kSlowFrames, 1);
          obs::flight_record(obs::FlightKind::kSlowFrame,
                             static_cast<std::uint64_t>(ch_.fd()), disp_ns);
        }
#endif
        if (!st.is_ok()) {
          fold_syscalls();
          return Verdict::kClose;
        }
        if (sq_.queued_bytes() >= sh_.cfg.conn_queue_cap_bytes) {
          // Peer won't drain our responses: stop reading. The kernel
          // receive buffer fills and TCP backpressures the sender.
          read_paused_ = true;
          ever_paused_ = true;
          sh_.counters.add(kPauses, 1);
          sh_.paused.fetch_add(1, kRelaxed);
#if PBIO_OBS_ENABLED
          obs::flight_record(obs::FlightKind::kPause,
                             static_cast<std::uint64_t>(ch_.fd()),
                             sq_.queued_bytes());
#endif
          break;
        }
      }
    }
    Status st = flush();
    if (!st.is_ok() || (peer_eof_ && sq_.empty())) {
      fold_syscalls();
      return Verdict::kClose;
    }
    if (read_paused_ &&
        sq_.queued_bytes() <= sh_.cfg.conn_queue_resume_bytes) {
      read_paused_ = false;
      sh_.counters.add(kResumes, 1);
      sh_.paused.fetch_sub(1, kRelaxed);
#if PBIO_OBS_ENABLED
      obs::flight_record(obs::FlightKind::kResume,
                         static_cast<std::uint64_t>(ch_.fd()),
                         sq_.queued_bytes());
#endif
      if (used < frame_budget) continue;  // drain what piled up while paused
    }
    fold_syscalls();
    const bool more = !read_paused_ && !peer_eof_ && used >= frame_budget &&
                      ch_.may_have_input();
    return more ? Verdict::kMore : Verdict::kIdle;
  }
}

}  // namespace pbio::broker
