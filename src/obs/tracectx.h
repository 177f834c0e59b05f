// Wire-level trace context: the sampled per-message identity that rides a
// sidecar frame (transport/wire.h) from Writer through the broker to
// Reader, so one message's encode, broker ingress, queue residency and
// decode land in a single causal trace.
//
// Split from trace.h on purpose: this header is protocol surface — the
// broker and Reader parse (and forward or skip) trace sidecar frames from
// any peer. The *stamping* (sampling, span emission) happens at the call
// sites; everything here is a plain struct and cold helpers.
#pragma once

#include <cstdint>
#include <vector>

namespace pbio::obs {

/// Identity carried by one sampled message. trace_id groups every span of
/// the message's journey; span_id distinguishes re-emissions (the broker
/// forwards the ctx with a fresh span id); origin_ns is the Writer's
/// CLOCK_REALTIME at encode, letting cross-process viewers order spans
/// without a shared monotonic clock.
struct TraceCtx {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t origin_ns = 0;

  bool valid() const { return trace_id != 0; }
};

/// Sampling rate in per-mille of messages (0 = off, 1000 = every message).
/// Also settable via the PBIO_TRACE_SAMPLE environment variable (read once
/// before main). Values above 1000 clamp.
void set_trace_sampling(std::uint32_t per_mille);
std::uint32_t trace_sampling();

/// Deterministic per-thread sampling decision: a Bresenham accumulator,
/// so N calls at rate r yield exactly floor-or-ceil(N*r/1000) true results
/// (no RNG on the hot path, reproducible tests).
bool trace_sample();

/// CLOCK_REALTIME nanoseconds — the cross-process trace clock.
std::uint64_t epoch_ns();

/// Process-unique nonzero 64-bit id (thread-local splitmix64 sequence
/// seeded from thread id + clock).
std::uint64_t new_trace_id();

/// Fresh context: new trace id, span id, origin = now.
TraceCtx make_trace_ctx();

/// Record one completed span of a sampled message. Always lands in the
/// in-memory recent-span ring (the broker's /tracez endpoint); forwarded
/// to the chrome://tracing sink as an absolute-timestamped event when a
/// trace capture is running. `name` must be a string literal.
void trace_emit_ctx(const char* name, const TraceCtx& ctx,
                    std::uint64_t start_ns, std::uint64_t end_ns);

/// One row of the recent-span ring, newest last.
struct TraceRecord {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  const char* name = "";
};

/// Snapshot of up to `max` most recent sampled spans (oldest first).
std::vector<TraceRecord> recent_traces(std::size_t max = 256);
void clear_recent_traces();

}  // namespace pbio::obs
