#include "broker/conn.h"

#include <sys/epoll.h>

#include "obs/flight.h"
#include "obs/span.h"
#include "pbio/message.h"
#include "transport/wire.h"
#include "util/arena.h"

namespace pbio::broker {

namespace {
// mo: every kRelaxed site below is an independent admission gauge; no
// thread dereferences data published through them — ordering comes from
// the per-worker event loop itself.
constexpr auto kRelaxed = std::memory_order_relaxed;

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
}  // namespace

Conn::Conn(int fd, Shared& sh, BufferPool& pool)
    : pool_(pool),
      ch_(fd, pool, kStreamChunkBytes,
          {&sh.counters, kRecvSyscalls, kSendSyscalls, kFramesIn, kFramesOut,
           kBytesIn, kBytesOut}),
      sh_(sh),
      resolver_(sh.ctx, sh.expected, sh.counters, kFormatsLearned) {
  // Conns are born on their worker thread (add_conn); pin the contract.
  // The dtor deliberately does not assert: stop() tears down from the
  // main thread after the worker loop has exited.
  owner_.bind();
  sh_.connections.fetch_add(1, kRelaxed);
  obs::flight_record(obs::FlightKind::kAccept,
                     static_cast<std::uint64_t>(fd));
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
  obs::flight_record(obs::FlightKind::kClose,
                     static_cast<std::uint64_t>(ch_.fd()));
}

Status Conn::enqueue(FrameBuf frame, const obs::TraceCtx* trace) {
  // Global inflight limiter: admission for response memory. A connection
  // that would push the broker past the cap is shed (closed), never
  // buffered without bound.
  const std::size_t prev = sh_.inflight.fetch_add(1, kRelaxed);
  if (prev >= sh_.cfg.max_inflight_frames) {
    sh_.inflight.fetch_sub(1, kRelaxed);
    sh_.counters.add(kShedInflight, 1);
    obs::flight_record(obs::FlightKind::kShedInflight,
                       static_cast<std::uint64_t>(ch_.fd()), prev);
    return Status(Errc::kOverloaded, "inflight frame cap");
  }
  const std::size_t wire = kFrameHeaderLen + frame.size();
  Status st = sq_.push(std::move(frame), trace);
  if (!st.is_ok()) {
    sh_.inflight.fetch_sub(1, kRelaxed);
    return st;
  }
  sh_.queued_bytes.fetch_add(wire, kRelaxed);
  return Status::ok();
}

Status Conn::forward_trace(FrameBuf response, const obs::TraceCtx& trace) {
  // The sidecar goes out ahead of the response it describes, re-stamped
  // with a fresh span id so each hop's emission is distinguishable; the
  // ids let the Reader on the far side continue the same trace.
  obs::TraceCtx fwd = trace;
  fwd.span_id = obs::new_trace_id();
  FrameBuf side = pool().lease(kTraceFrameLen);
  encode_trace_frame(side.data(), fwd);
  Status st = enqueue(std::move(side));
  if (!st.is_ok()) return st;
  return enqueue(std::move(response), &trace);
}

Status Conn::flush() {
  if (sq_.empty()) return Status::ok();
  auto res = sq_.flush(ch_, residency_hist(ever_paused_));
  if (!res.is_ok()) return res.status();
  sh_.inflight.fetch_sub(res.value().frames, kRelaxed);
  sh_.queued_bytes.fetch_sub(res.value().bytes, kRelaxed);
  sh_.counters.add(kFramesOut, res.value().frames);
  return Status::ok();
}

Status Conn::on_data_frame(FrameBuf frame, const Resolver::Frame& f) {
  Resolver::Entry* entry = f.entry;  // set when Config::decode is on
  if (entry != nullptr && entry->conv != nullptr) {
    if (f.refilled) {
      // Cold: once per wire id the connection resolves — the per-format-
      // pair latency series behind /metrics p50/p99/p999.
      entry->decode_hist = obs::histogram("pbio.broker.decode_ns." +
                                          entry->wire->name + "->" +
                                          entry->native->name);
    }
    const std::size_t out_size = entry->native->fixed_size;
    if (decode_out_.size() < out_size) decode_out_.resize(out_size);
    // Strings that cannot be borrowed from the frame land here, scoped per
    // frame so the arena cannot grow without bound.
    Arena scratch;
    Status st = decode_record(*entry->conv, f.payload, decode_out_.data(),
                              out_size, scratch, entry->decode_hist);
    if (!st.is_ok()) return st;
    sh_.counters.add(kDecoded, 1);
  }
  // The ingress span: sidecar arrival to dispatch complete.
  const bool traced = f.trace.valid();
  if (traced) {
    obs::trace_emit_ctx("pbio.trace.ingress", f.trace, f.trace_ns,
                        obs::epoch_ns());
  }

  switch (sh_.cfg.on_data) {
    case OnData::kEcho:
      if (traced) return forward_trace(std::move(frame), f.trace);
      return enqueue(std::move(frame));
    case OnData::kAck: {
      frame.reset();  // drop the lease before taking a fresh one
      FrameBuf ack = pool().lease(kDataHeaderSize);
      encode_id_header(ack.data(), kFrameAck, f.wire_id);
      if (traced) return forward_trace(std::move(ack), f.trace);
      return enqueue(std::move(ack));
    }
    case OnData::kSink:
      return Status::ok();
  }
  return Status(Errc::kMalformed, "bad OnData mode");
}

Status Conn::dispatch(FrameBuf frame) {
  if (!frame.empty() && is_svc_request(frame.data()[0])) {
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

  using Kind = Resolver::Frame::Kind;
  Resolver::Frame f;
  Status st = resolver_.interpret(frame.view(), &f, sh_.cfg.decode);
  if (st.is_ok()) {
    if (f.kind != Kind::kData) return st;
    st = on_data_frame(std::move(frame), f);
    if (st.is_ok() || st.code() == Errc::kOverloaded) return st;
  }
  sh_.counters.add(kProtocolErrors, 1);
  // Garbage framing and records that would not decode leave flight
  // events; a bad announcement or a short data frame does not.
  if (f.kind == Kind::kUnknown || f.kind == Kind::kTrace) {
    obs::flight_record(obs::FlightKind::kProtocolError,
                       static_cast<std::uint64_t>(ch_.fd()));
  } else if (f.kind == Kind::kData) {
    obs::flight_record(obs::FlightKind::kDecodeError,
                       static_cast<std::uint64_t>(ch_.fd()),
                       static_cast<std::uint64_t>(st.code()));
  }
  return st;
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
          return Verdict::kClose;
        }
        ++used;
        const std::uint64_t disp_t0 = obs::ticks();
        Status st = dispatch(std::move(frame).take());
        const std::uint64_t disp_ns =
            obs::ticks_to_ns(obs::ticks() - disp_t0);
        if (disp_ns > kSlowFrameNs) {
          sh_.counters.add(kSlowFrames, 1);
          obs::flight_record(obs::FlightKind::kSlowFrame,
                             static_cast<std::uint64_t>(ch_.fd()), disp_ns);
        }
        if (!st.is_ok()) return Verdict::kClose;
        if (sq_.queued_bytes() >= sh_.cfg.conn_queue_cap_bytes) {
          // Peer won't drain our responses: stop reading. The kernel
          // receive buffer fills and TCP backpressures the sender.
          read_paused_ = true;
          ever_paused_ = true;
          sh_.counters.add(kPauses, 1);
          sh_.paused.fetch_add(1, kRelaxed);
          obs::flight_record(obs::FlightKind::kPause,
                             static_cast<std::uint64_t>(ch_.fd()),
                             sq_.queued_bytes());
          break;
        }
      }
    }
    Status st = flush();
    if (!st.is_ok() || (peer_eof_ && sq_.empty())) return Verdict::kClose;
    if (read_paused_ &&
        sq_.queued_bytes() <= sh_.cfg.conn_queue_resume_bytes) {
      read_paused_ = false;
      sh_.counters.add(kResumes, 1);
      sh_.paused.fetch_sub(1, kRelaxed);
      obs::flight_record(obs::FlightKind::kResume,
                         static_cast<std::uint64_t>(ch_.fd()),
                         sq_.queued_bytes());
      if (used < frame_budget) continue;  // drain what piled up while paused
    }
    const bool more = !read_paused_ && !peer_eof_ && used >= frame_budget &&
                      ch_.may_have_input();
    return more ? Verdict::kMore : Verdict::kIdle;
  }
}

}  // namespace pbio::broker
