// Async multi-client wire broker.
//
// The paper's measurements are point-to-point: one writer, one reader, one
// connection. A deployed PBIO node is neither — it terminates thousands of
// connections, learns formats from any of them, and answers format-service
// lookups while data flows. The broker is that node: an epoll
// edge-triggered event loop sharded across a fixed worker pool, one event
// loop and one BufferPool arena per worker so a frame is leased, serviced
// and recycled on a single core, never handed across.
//
// Admission control is layered:
//   * kernel accept backlog (Config::accept_backlog) — SYN bursts past it
//     are the kernel's problem, not our memory;
//   * connection cap (max_connections) — accepts past it are shed with an
//     immediate close;
//   * global inflight-frame cap (max_inflight_frames) — a response the
//     broker cannot afford to buffer sheds the connection instead of
//     growing without bound;
//   * per-connection send-queue byte cap — a slow client pauses its own
//     reading (TCP backpressure), never the worker.
//
// Threads: start() spawns Config::workers event-loop threads (worker 0
// also owns the listener) and, when Config::stats_file is set, one stats
// thread that dumps obs::to_json periodically — `pbio_stat --watch` tails
// that file from another terminal. The broker's monotonic counters live
// in an obs::CounterBlock (Shared::counters), so every snapshot already
// holds the current pbio.broker.* values; there is nothing to publish.
#pragma once

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "broker/conn.h"

namespace pbio::broker {

class Worker;

/// Monotonic + gauge snapshot of a running (or stopped) broker. Each
/// monotonic field reads the counter behind this broker's share of
/// pbio.broker.<field> (Shared::counters); svc_requests reads its format
/// server's pbio.svc.requests.
struct BrokerStats {
  std::size_t connections = 0;
  std::size_t inflight = 0;
  std::size_t queued_bytes = 0;
  std::size_t paused = 0;
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t shed_connections = 0;
  std::uint64_t shed_inflight = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t formats_learned = 0;
  std::uint64_t decoded = 0;
  std::uint64_t svc_requests = 0;
  std::uint64_t pauses = 0;
  std::uint64_t resumes = 0;
  std::uint64_t recv_syscalls = 0;
  std::uint64_t send_syscalls = 0;
  std::uint64_t slow_frames = 0;
};

// thread-domain: any
class Broker {
 public:
  explicit Broker(Context& ctx, Config cfg = {});
  ~Broker();

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Register a decode target: data frames whose wire format carries
  /// `name` are converted to the native format `native_id` when
  /// Config::decode is on. `native_id` must already be registered in the
  /// context (throws PbioError otherwise). Must be called before start().
  void expect(const std::string& name, Context::FormatId native_id);

  /// Bind, spawn the worker threads, return. Idempotent failure: a broker
  /// that failed to start can be destroyed but not started again.
  Status start();

  /// Drain and join every thread, closing all connections. Idempotent.
  void stop();

  std::uint16_t port() const { return listener_.port(); }
  /// Port of the HTTP scrape endpoint (0 when Config::scrape_port is -1 or
  /// the broker has not started). With scrape_port 0 this is where the
  /// ephemeral bind landed.
  std::uint16_t scrape_port() const {
    return scrape_listener_ ? scrape_listener_->port() : 0;
  }
  const Config& config() const { return sh_.cfg; }
  bool running() const {
    return running_.load(std::memory_order_acquire);  // mo: pairs with start()'s release store so a true reader sees the spawned workers
  }

  BrokerStats stats() const;

  /// Aggregate BufferPool stats across the per-worker arenas. Outstanding
  /// leases (hits + misses - recycled) drop back to the idle level when
  /// connections close — the lease-release invariant tests watch this.
  BufferPool::Stats pool_stats() const;

 private:
  friend class Worker;

  void dump_stats_file();

  Shared sh_;
  transport::SocketListener listener_;
  /// HTTP scrape listener (Config::scrape_port >= 0), adopted by worker 0.
  std::unique_ptr<transport::SocketListener> scrape_listener_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::thread stats_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
};

}  // namespace pbio::broker
