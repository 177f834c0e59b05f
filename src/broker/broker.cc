#include "broker/broker.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <unordered_map>

#include "broker/http.h"
#include "obs/flight.h"
#include "obs/obs.h"
#include "util/affinity.h"
#include "util/error.h"
#include "util/mutex.h"

namespace pbio::broker {

namespace {
// mo: every kRelaxed site below is an independent gauge (admission hints
// and observability); none publishes data other threads then dereference
// — the epoll loop and inbox_mu_ carry ordering.
constexpr auto kRelaxed = std::memory_order_relaxed;
/// Frames one service() call may consume — the fairness quantum keeping a
/// firehose connection from starving its worker's other connections.
constexpr std::size_t kServiceBudget = 64;
constexpr int kEpollWaitMs = 50;
}  // namespace

/// One event loop: an epoll fd, an eventfd for cross-thread wakeups, a
/// private BufferPool arena, and the connections hashed onto this worker.
/// Everything below is single-threaded on the worker's own thread except
/// hand_off/wake, which other threads call to push work in.
// thread-domain: worker
class Worker {
 public:
  Worker(Broker& owner, std::size_t index)
      : owner_(owner), index_(index), pool_(64) {
    ep_ = ::epoll_create1(EPOLL_CLOEXEC);
    wake_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    epoll_event ev{};
    ev.events = EPOLLIN;  // level-triggered: drained every wakeup
    ev.data.fd = wake_;
    ::epoll_ctl(ep_, EPOLL_CTL_ADD, wake_, &ev);
  }

  ~Worker() {
    conns_.clear();  // SocketChannel dtors close the fds
    if (wake_ >= 0) ::close(wake_);
    if (ep_ >= 0) ::close(ep_);
  }

  bool ok() const { return ep_ >= 0 && wake_ >= 0; }

  BufferPool::Stats pool_stats() const { return pool_.stats(); }

  /// Register the (non-blocking) listener with this worker's epoll.
  void adopt_listener(int fd) {
    listen_fd_ = fd;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET;
    ev.data.fd = fd;
    ::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev);
  }

  /// Register the HTTP scrape listener (worker 0 only).
  void adopt_scrape_listener(int fd) {
    scrape_fd_ = fd;
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLET;
    ev.data.fd = fd;
    ::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev);
  }

  /// Hand a freshly accepted fd to this worker from another thread.
  // thread-domain: any
  void hand_off(int fd) {
    {
      MutexLock lk(inbox_mu_);
      inbox_.push_back(fd);
    }
    wake();
  }

  // thread-domain: any
  void wake() {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(wake_, &one, sizeof(one));
  }

  void run() {
    // The whole-loop affinity contract: the arena and epoll state belong
    // to this thread from here to loop exit. Unbound again before
    // returning so stop()'s cross-thread teardown (Conn dtors releasing
    // leases back into this pool) stays legal.
    pool_.bind_owner();
    loop_owner_.bind();
    std::vector<epoll_event> events(256);
    while (!owner_.stopping_.load(std::memory_order_acquire)) {  // mo: pairs with stop()'s release store; loop exit must see all pre-stop writes
      const int timeout = ready_.empty() ? kEpollWaitMs : 0;
      const int n = ::epoll_wait(ep_, events.data(),
                                 static_cast<int>(events.size()), timeout);
      if (n < 0) {
        if (errno == EINTR) continue;
        break;
      }
      for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == wake_) {
          drain_wake();
        } else if (fd == listen_fd_) {
          accept_burst();
        } else if (fd == scrape_fd_) {
          accept_scrape_burst();
        } else if (scrape_conns_.find(fd) != scrape_conns_.end()) {
          service_scrape(fd);
        } else {
          service_conn(fd, events[i].events);
        }
      }
      run_ready();
    }
    loop_owner_.unbind();
    pool_.unbind_owner();
  }

 private:
  void drain_wake() {
    // One read zeroes the whole (non-semaphore) counter; a wake() racing
    // in after it still fires, because wake_ is level-triggered.
    std::uint64_t v;
    [[maybe_unused]] ssize_t n = ::read(wake_, &v, sizeof(v));
    std::vector<int> fds;
    {
      MutexLock lk(inbox_mu_);
      fds.swap(inbox_);
    }
    for (int fd : fds) add_conn(fd);
  }

  void accept_burst() {
    // Edge-triggered listener: accept until the queue is empty.
    while (true) {
      auto fd = owner_.listener_.accept_fd(true);
      if (!fd.is_ok()) return;  // kWouldBlock (queue empty) or hard error
      owner_.sh_.counters.add(kAccepted, 1);
      if (owner_.sh_.connections.load(kRelaxed) >=
          owner_.sh_.cfg.max_connections) {
        // Over the connection cap: shed with an immediate close. The
        // client sees a clean EOF, the broker spends no memory on it.
        obs::flight_record(obs::FlightKind::kShedConn,
                           static_cast<std::uint64_t>(fd.value()),
                           owner_.sh_.connections.load(kRelaxed));
        ::close(fd.value());
        owner_.sh_.counters.add(kShedConnections, 1);
        continue;
      }
      const std::size_t target =
          static_cast<std::size_t>(fd.value()) % owner_.workers_.size();
      if (target == index_) {
        add_conn(fd.value());
      } else {
        owner_.workers_[target]->hand_off(fd.value());
      }
    }
  }

  void add_conn(int fd) {
    if (owner_.sh_.cfg.so_sndbuf > 0) {
      const int v = owner_.sh_.cfg.so_sndbuf;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &v, sizeof(v));
    }
    auto conn = std::make_unique<Conn>(fd, owner_.sh_, pool_);
    epoll_event ev{};
    // Both directions edge-triggered, armed once — backpressure is a flag
    // inside Conn::service, never an epoll_ctl on the hot path.
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    ev.data.fd = fd;
    if (::epoll_ctl(ep_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return;  // conn dtor closes the fd and rolls the gauges back
    }
    conns_.emplace(fd, std::move(conn));
    service_conn(fd, EPOLLIN);  // frames may have landed before registration
  }

  void accept_scrape_burst() {
    // Edge-triggered like the data listener: accept until empty. Scrape
    // connections live outside the admission caps — a saturated broker
    // must still answer /healthz.
    while (true) {
      auto fd = owner_.scrape_listener_->accept_fd(true);
      if (!fd.is_ok()) return;
      epoll_event ev{};
      ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
      ev.data.fd = fd.value();
      if (::epoll_ctl(ep_, EPOLL_CTL_ADD, fd.value(), &ev) != 0) {
        ::close(fd.value());
        continue;
      }
      scrape_conns_.emplace(fd.value(),
                            std::make_unique<ScrapeConn>(fd.value()));
      service_scrape(fd.value());  // the request may already be buffered
    }
  }

  void service_scrape(int fd) {
    auto it = scrape_conns_.find(fd);
    if (it == scrape_conns_.end()) return;
    if (!it->second->service(owner_)) {
      scrape_conns_.erase(it);  // ScrapeConn dtor closes the fd
    }
  }

  /// `events` is the epoll mask that woke the connection (0 from
  /// run_ready: no new edge, keep reading only while not drained).
  void service_conn(int fd, std::uint32_t events) {
    loop_owner_.assert_held("Worker epoll state");
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    switch (it->second->service(kServiceBudget, events)) {
      case Conn::Verdict::kIdle:
        break;
      case Conn::Verdict::kMore:
        ready_.push_back(fd);
        break;
      case Conn::Verdict::kClose:
        conns_.erase(it);  // closes the fd; epoll deregisters with it
        break;
    }
  }

  void run_ready() {
    // One pass over connections that exhausted their budget; any that are
    // still hungry re-queue, and the zero-timeout epoll_wait above keeps
    // fresh events interleaved with this backlog.
    std::vector<int> batch;
    batch.swap(ready_);
    for (int fd : batch) service_conn(fd, 0);
  }

  Broker& owner_;
  std::size_t index_;
  BufferPool pool_;
  int ep_ = -1;
  int wake_ = -1;
  int listen_fd_ = -1;
  int scrape_fd_ = -1;
  // Single-threaded worker state: owned by the loop thread while run() is
  // live (loop_owner_ asserts that in PBIO_AFFINITY_CHECK builds), and by
  // whoever start()/stop() is on either side of it.
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  std::unordered_map<int, std::unique_ptr<ScrapeConn>> scrape_conns_;
  std::vector<int> ready_;
  ThreadOwner loop_owner_;
  Mutex inbox_mu_;
  std::vector<int> inbox_ PBIO_GUARDED_BY(inbox_mu_);
};

Broker::Broker(Context& ctx, Config cfg)
    : sh_(ctx, std::move(cfg)),
      listener_(sh_.cfg.accept_backlog) {}

Broker::~Broker() { stop(); }

void Broker::expect(const std::string& name, Context::FormatId native_id) {
  const fmt::FormatDesc* f = sh_.ctx.find(native_id);
  if (f == nullptr) {
    throw PbioError("Broker::expect: format not registered");
  }
  sh_.expected[name] = Expected{native_id, f};
}

Status Broker::start() {
  if (running_.load(std::memory_order_acquire)) return Status::ok();  // mo: pairs with the release stores in start()/stop()
  Status st = listener_.set_nonblocking(true);
  if (!st.is_ok()) return st;

  if (!sh_.cfg.flight_file.empty()) obs::flight_arm(sh_.cfg.flight_file);
  if (sh_.cfg.scrape_port >= 0) {
    try {
      scrape_listener_ = std::make_unique<transport::SocketListener>(
          16, static_cast<std::uint16_t>(sh_.cfg.scrape_port));
    } catch (const PbioError&) {
      return Status(Errc::kIo, "scrape listener bind failed");
    }
    st = scrape_listener_->set_nonblocking(true);
    if (!st.is_ok()) return st;
  }

  const unsigned n = sh_.cfg.workers == 0 ? 1 : sh_.cfg.workers;
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>(*this, i));
    if (!workers_.back()->ok()) {
      workers_.clear();
      return Status(Errc::kIo, "epoll/eventfd setup failed");
    }
  }
  workers_[0]->adopt_listener(listener_.fd());
  if (scrape_listener_) {
    workers_[0]->adopt_scrape_listener(scrape_listener_->fd());
  }

  stopping_.store(false, std::memory_order_release);  // mo: reset before the workers that read it exist; release is free insurance
  threads_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    threads_.emplace_back([w = workers_[i].get()] { w->run(); });
  }
  if (!sh_.cfg.stats_file.empty()) {
    stats_thread_ = std::thread([this] {
      while (!stopping_.load(std::memory_order_acquire)) {  // mo: pairs with stop()'s release store
        dump_stats_file();
        std::this_thread::sleep_for(
            std::chrono::milliseconds(sh_.cfg.stats_interval_ms));
      }
      dump_stats_file();
    });
  }
  running_.store(true, std::memory_order_release);  // mo: publishes the fully built worker/thread state to running() readers
  return Status::ok();
}

void Broker::stop() {
  if (!running_.load(std::memory_order_acquire)) return;  // mo: pairs with start()'s release
  stopping_.store(true, std::memory_order_release);  // mo: workers' acquire loads must see every pre-stop write before exiting
  for (auto& w : workers_) w->wake();
  for (auto& t : threads_) t.join();
  threads_.clear();
  if (stats_thread_.joinable()) stats_thread_.join();
  workers_.clear();  // destroys every Conn, closing client sockets
  running_.store(false, std::memory_order_release);  // mo: joined-thread state published to a later start()/running() reader
}

BrokerStats Broker::stats() const {
  const obs::CounterBlock& c = sh_.counters;
  BrokerStats s;
  s.connections = sh_.connections.load(kRelaxed);
  s.inflight = sh_.inflight.load(kRelaxed);
  s.queued_bytes = sh_.queued_bytes.load(kRelaxed);
  s.paused = sh_.paused.load(kRelaxed);
  s.accepted = c.get(kAccepted);
  s.closed = c.get(kClosed);
  s.shed_connections = c.get(kShedConnections);
  s.shed_inflight = c.get(kShedInflight);
  s.protocol_errors = c.get(kProtocolErrors);
  s.frames_in = c.get(kFramesIn);
  s.frames_out = c.get(kFramesOut);
  s.bytes_in = c.get(kBytesIn);
  s.bytes_out = c.get(kBytesOut);
  s.formats_learned = c.get(kFormatsLearned);
  s.decoded = c.get(kDecoded);
  s.svc_requests = sh_.svc.requests_served();
  s.pauses = c.get(kPauses);
  s.resumes = c.get(kResumes);
  s.recv_syscalls = c.get(kRecvSyscalls);
  s.send_syscalls = c.get(kSendSyscalls);
  s.slow_frames = c.get(kSlowFrames);
  return s;
}

BufferPool::Stats Broker::pool_stats() const {
  BufferPool::Stats total;
  for (const auto& w : workers_) {
    const BufferPool::Stats s = w->pool_stats();
    total.hits += s.hits;
    total.misses += s.misses;
    total.oversize += s.oversize;
    total.recycled += s.recycled;
  }
  return total;
}

void Broker::dump_stats_file() {
  // Atomic replace: a --watch reader never sees a torn file.
  const std::string tmp = sh_.cfg.stats_file + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return;
  const std::string json = obs::to_json(obs::snapshot());
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::rename(tmp.c_str(), sh_.cfg.stats_file.c_str());
}

}  // namespace pbio::broker
