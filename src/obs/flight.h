// Fault flight recorder: a small per-thread lock-free ring of recent
// broker events (accepts, closes, sheds, decode/protocol errors, slow
// frames, pause/resume) that can be dumped post-mortem.
//
// Design constraints, in order:
//  * recording must be hot-path safe — one thread-local write, no locks,
//    no allocation, no syscalls beyond the clock read;
//  * dumping must be async-signal-safe — it runs inside SIGSEGV/SIGABRT
//    handlers, so the writer below uses only write(2) and stack buffers
//    (no malloc, no stdio, no locks);
//  * the dump format is line-oriented text a human can read raw and
//    `pbio_dump --flight` can parse (flight_parse below).
//
// A thread claims one of 128 fixed-size rings on its first record and
// frees it on exit; a freed ring keeps its events (a crash in teardown
// still has them) until reclaimed. With all held, events are dropped and
// counted in obs.flight.dropped. Recording when the recorder was never
// armed still fills the thread's ring, which lets tests run without signals.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pbio::obs {

enum class FlightKind : std::uint8_t {
  kAccept = 0,
  kClose,
  kShedConn,      // accept shed over max_connections      a=fd
  kShedInflight,  // connection shed over inflight cap     a=fd
  kDecodeError,   // wire->native conversion failed        a=fd b=errc
  kProtocolError, // malformed / unknown frame             a=fd b=errc
  kSlowFrame,     // dispatch over the slow threshold      a=fd b=ns
  kPause,         // read paused (send queue over cap)     a=fd b=queued
  kResume,        // read resumed                          a=fd b=queued
  kMark,          // free-form test/tool marker
};

const char* flight_kind_name(FlightKind k);

/// Record one event into the calling thread's ring. Lock-free; safe from
/// any thread at any time.
// thread-domain: any
void flight_record(FlightKind k, std::uint64_t a, std::uint64_t b = 0);

/// Arm the recorder: install SIGSEGV/SIGABRT/SIGUSR2 handlers that dump
/// every ring to `path` (fatal signals re-raise the previous disposition
/// after dumping; SIGUSR2 returns, for live snapshots). Also enables the
/// shed-burst auto-dump flight_record performs. Idempotent; last path wins.
// thread-domain: any
void flight_arm(const std::string& path);
// thread-domain: any
bool flight_armed();

/// Write the dump now (async-signal-safe). Returns the number of events
/// written, 0 when unarmed. `reason` lands in the dump header.
// thread-domain: signal
std::size_t flight_dump(const char* reason = "manual");

/// Parsed form of one dump line, for tools and tests.
struct FlightEvent {
  std::uint64_t ns = 0;   // CLOCK_REALTIME at record time
  std::uint32_t tid = 0;  // obs::thread_tid of the recording thread
  FlightKind kind = FlightKind::kMark;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

/// Parse the text `flight_dump` writes. Returns false on malformed input.
/// Events come back in file order (per-ring); sort by `ns` for a timeline.
bool flight_parse(std::string_view text, std::vector<FlightEvent>* out);

inline constexpr std::size_t kFlightRingEvents = 256;

}  // namespace pbio::obs
