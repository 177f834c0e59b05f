#include "obs/flight.h"

#include <fcntl.h>
#include <signal.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/obs.h"
#include "util/mutex.h"

namespace pbio::obs {

namespace {

// mo: every kRelaxed site below is a ring-slot payload field access; the
// idx release/acquire pair publishes complete events, and the slot a
// wrapped writer overwrites under a racing dump needs atomicity only (Ev).
constexpr auto kRelaxed = std::memory_order_relaxed;

// Fields are relaxed atomics, not plain scalars: once the ring wraps, the
// single writer overwrites the oldest slot in place while a concurrent
// dump (signal handler or live snapshot) may be reading it. The dump
// tolerates stale-vs-new values per field — the idx release/acquire pair
// bounds which slots are complete — but the racing access itself must be
// atomic to be defined behaviour (and tsan-clean).
struct Ev {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> a{0};
  std::atomic<std::uint64_t> b{0};
  std::atomic<std::uint8_t> kind{0};
};

struct Ring {
  std::atomic<std::uint64_t> idx{0};  // events written since the last claim
  Ev ev[kFlightRingEvents];
  std::atomic<std::uint32_t> tid{0};  // the thread that last claimed it
  std::atomic<bool> held{false};
};

constexpr std::size_t kMaxRings = 128;

// Static, so a signal handler walking the table never meets a ring under
// construction. A freed ring's events stay in every dump until the next
// claim: the crash we are recording for may be its thread's teardown.
Ring g_rings[kMaxRings];

std::atomic<bool> g_armed{false};
// Deliberately unguarded: read lock-free from signal context by
// flight_dump. Writes happen only in flight_arm under g_arm_mu, and the
// g_armed release-exchange publishes the bytes before any handler can run.
char g_path[512] = {};
Mutex g_arm_mu;
struct sigaction g_prev_segv PBIO_GUARDED_BY(g_arm_mu);
struct sigaction g_prev_abrt PBIO_GUARDED_BY(g_arm_mu);

std::atomic<std::uint64_t> g_sheds{0};
std::atomic<std::uint64_t> g_last_burst_dump_ns{0};

std::uint64_t wall_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

Ring* claim_ring() {
  for (Ring& r : g_rings) {
    bool free = false;
    if (r.held.compare_exchange_strong(free, true, std::memory_order_acquire)) {  // mo: pairs with the freeing release below: the last owner's writes are done
      r.idx.store(0, std::memory_order_release);  // mo: a racing dump sees old or new events, each field atomic
      r.tid.store(thread_tid(), kRelaxed);
      return &r;
    }
  }
  return nullptr;
}

// The calling thread's ring from its first record until it exits;
// nullptr while every ring is held.
Ring* ring() {
  thread_local struct Hold {
    Ring* r = claim_ring();
    ~Hold() { if (r != nullptr) r->held.store(false, std::memory_order_release); }  // mo: pairs with claim_ring's acquire CAS
  } hold;
  return hold.r;
}

// --- async-signal-safe text emission ---------------------------------------
//
// Everything between the signal-safe markers may run inside a SIGSEGV /
// SIGABRT handler; wire_lint rule R7 restricts calls here to the
// async-signal-safe allowlist (write(2), raw syscalls, local helpers).
// wire-lint: signal-safe-begin

void put_str(int fd, const char* s) {
  std::size_t n = 0;
  while (s[n] != 0) ++n;
  ssize_t ignored = ::write(fd, s, n);
  (void)ignored;
}

void put_u64(int fd, std::uint64_t v) {
  char buf[24];
  char* p = buf + sizeof buf;
  do {
    *--p = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  ssize_t ignored = ::write(fd, p, static_cast<std::size_t>(buf + sizeof buf - p));
  (void)ignored;
}

std::size_t dump_to(int fd, const char* reason) {
  put_str(fd, "pbio-flight v1 reason=");
  put_str(fd, reason);
  put_str(fd, " pid=");
  put_u64(fd, static_cast<std::uint64_t>(::getpid()));
  put_str(fd, " now=");
  put_u64(fd, wall_ns());
  put_str(fd, "\n");

  std::size_t total = 0;
  for (const Ring& r : g_rings) {
    const std::uint64_t idx = r.idx.load(std::memory_order_acquire);  // mo: pairs with flight_record's release publish; events below idx are complete
    if (idx == 0) continue;
    const std::uint64_t n =
        idx < kFlightRingEvents ? idx : kFlightRingEvents;
    put_str(fd, "ring tid=");
    put_u64(fd, r.tid.load(kRelaxed));
    put_str(fd, " count=");
    put_u64(fd, n);
    put_str(fd, "\n");
    for (std::uint64_t i = idx - n; i < idx; ++i) {
      const Ev& e = r.ev[i % kFlightRingEvents];
      put_str(fd, "e ");
      put_u64(fd, e.ns.load(kRelaxed));
      put_str(fd, " ");
      put_str(fd, flight_kind_name(static_cast<FlightKind>(e.kind.load(kRelaxed))));
      put_str(fd, " ");
      put_u64(fd, e.a.load(kRelaxed));
      put_str(fd, " ");
      put_u64(fd, e.b.load(kRelaxed));
      put_str(fd, "\n");
      ++total;
    }
  }
  put_str(fd, "end events=");
  put_u64(fd, total);
  put_str(fd, "\n");
  return total;
}

// Reads g_prev_* without g_arm_mu: a handler only runs after flight_arm
// installed it, and the install wrote g_prev_* first (program order on the
// arming thread; the kernel's handler registration is the barrier).
void on_fatal_signal(int sig) PBIO_NO_THREAD_SAFETY_ANALYSIS {
  flight_dump(sig == SIGSEGV ? "SIGSEGV" : "SIGABRT");
  // Restore the previous disposition and re-raise so the process still
  // dies (or the previous handler — a sanitizer's reporter — still runs).
  const struct sigaction& prev = sig == SIGSEGV ? g_prev_segv : g_prev_abrt;
  ::sigaction(sig, &prev, nullptr);
  ::raise(sig);
}

void on_usr2(int) { flight_dump("SIGUSR2"); }

// wire-lint: signal-safe-end

}  // namespace

const char* flight_kind_name(FlightKind k) {
  switch (k) {
    case FlightKind::kAccept: return "accept";
    case FlightKind::kClose: return "close";
    case FlightKind::kShedConn: return "shed_conn";
    case FlightKind::kShedInflight: return "shed_inflight";
    case FlightKind::kDecodeError: return "decode_error";
    case FlightKind::kProtocolError: return "protocol_error";
    case FlightKind::kSlowFrame: return "slow_frame";
    case FlightKind::kPause: return "pause";
    case FlightKind::kResume: return "resume";
    case FlightKind::kMark: return "mark";
  }
  return "unknown";
}

void flight_record(FlightKind k, std::uint64_t a, std::uint64_t b) {
  Ring* r = ring();
  if (r == nullptr) {  // every ring is held: drop, never block
    static const MetricId dropped = counter("obs.flight.dropped");
    counter_add(dropped, 1);
    return;
  }
  const std::uint64_t i = r->idx.load(std::memory_order_relaxed);  // mo: single-writer ring; only this thread ever stores idx
  Ev& e = r->ev[i % kFlightRingEvents];
  e.ns.store(wall_ns(), kRelaxed);
  e.a.store(a, kRelaxed);
  e.b.store(b, kRelaxed);
  e.kind.store(static_cast<std::uint8_t>(k), kRelaxed);
  // Publish after the payload: a dump racing this write sees either the
  // old event or the complete new one (single-writer ring).
  r->idx.store(i + 1, std::memory_order_release);  // mo: publishes the event payload to a concurrent dump's acquire load

  if ((k == FlightKind::kShedConn || k == FlightKind::kShedInflight) &&
      g_armed.load(std::memory_order_relaxed)) {  // mo: hot-path hint; flight_dump re-checks with acquire
    // Shed-burst auto-dump: every 32nd shed, at most one dump per 2s —
    // the post-mortem survives even when nothing ever crashes.
    const std::uint64_t sheds =
        g_sheds.fetch_add(1, std::memory_order_relaxed) + 1;  // mo: statistic; only the modulus of the count matters
    if (sheds % 32 == 0) {
      const std::uint64_t now = wall_ns();
      std::uint64_t last = g_last_burst_dump_ns.load(std::memory_order_relaxed);  // mo: rate-limit timestamp; a stale read only delays a dump
      if (now - last > 2'000'000'000ull &&
          g_last_burst_dump_ns.compare_exchange_strong(
              last, now, std::memory_order_relaxed)) {  // mo: CAS elects one dumper; losers skip, no data is published through this word
        flight_dump("shed-burst");
      }
    }
  }
}

void flight_arm(const std::string& path) {
  MutexLock lock(g_arm_mu);
  if (path.size() >= sizeof g_path) return;
  std::memcpy(g_path, path.c_str(), path.size() + 1);
  if (!g_armed.exchange(true, std::memory_order_release)) {  // mo: publishes g_path bytes before any reader sees armed=true
    struct sigaction sa{};
    sa.sa_handler = on_fatal_signal;
    ::sigemptyset(&sa.sa_mask);
    sa.sa_flags = SA_NODEFER;
    ::sigaction(SIGSEGV, &sa, &g_prev_segv);
    ::sigaction(SIGABRT, &sa, &g_prev_abrt);
    struct sigaction su{};
    su.sa_handler = on_usr2;
    ::sigemptyset(&su.sa_mask);
    ::sigaction(SIGUSR2, &su, nullptr);
  }
}

bool flight_armed() {
  return g_armed.load(std::memory_order_acquire);  // mo: pairs with flight_arm's release exchange
}

// wire-lint: signal-safe-begin
std::size_t flight_dump(const char* reason) {
  if (!g_armed.load(std::memory_order_acquire)) return 0;  // mo: pairs with flight_arm's release exchange so g_path is fully written
  const int fd =
      ::open(g_path, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return 0;
  const std::size_t n = dump_to(fd, reason);
  ::close(fd);
  return n;
}
// wire-lint: signal-safe-end

bool flight_parse(std::string_view text, std::vector<FlightEvent>* out) {
  out->clear();
  std::size_t pos = 0;
  std::uint32_t cur_tid = 0;
  bool saw_header = false;
  bool saw_end = false;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    const std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line.starts_with("pbio-flight v1 ")) {
      saw_header = true;
      continue;
    }
    if (!saw_header) return false;
    if (line.starts_with("ring tid=")) {
      cur_tid = static_cast<std::uint32_t>(
          std::strtoul(std::string(line.substr(9)).c_str(), nullptr, 10));
      continue;
    }
    if (line.starts_with("end ")) {
      saw_end = true;
      continue;
    }
    if (!line.starts_with("e ")) return false;
    // e <ns> <kind> <a> <b>
    const std::string rest(line.substr(2));
    char kind_buf[32] = {};
    unsigned long long ns = 0, a = 0, b = 0;
    if (std::sscanf(rest.c_str(), "%llu %31s %llu %llu", &ns, kind_buf, &a,
                    &b) != 4) {
      return false;
    }
    FlightEvent e;
    e.ns = ns;
    e.tid = cur_tid;
    e.a = a;
    e.b = b;
    e.kind = FlightKind::kMark;
    for (int k = 0; k <= static_cast<int>(FlightKind::kMark); ++k) {
      if (std::strcmp(flight_kind_name(static_cast<FlightKind>(k)),
                      kind_buf) == 0) {
        e.kind = static_cast<FlightKind>(k);
        break;
      }
    }
    out->push_back(e);
  }
  return saw_header && saw_end;
}

}  // namespace pbio::obs
