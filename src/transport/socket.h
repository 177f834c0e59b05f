// TCP transport: length-prefixed message framing over a stream socket.
// Used by the end-to-end integration tests and the distributed examples;
// equivalent to the paper's testbed socket layer minus the physical wire.
//
// Receive side: a FrameStream (framing.h) fills a pooled stream buffer
// with one large recv() and slices every complete frame out of it, so
// small-message traffic amortizes to well under one syscall (and zero heap
// allocations) per frame. recv_buf() and poll_buf() are one pull loop that
// differs only in whether its recv() may wait.
#pragma once

#include <sys/uio.h>

#include <cstdint>
#include <memory>
#include <string>

#include "obs/obs.h"
#include "transport/channel.h"
#include "transport/framing.h"

namespace pbio::transport {

/// Where a SocketChannel counts each recv() and sendmsg() (EAGAIN included),
/// each frame it pulls or send_frames() sends (writev_some()'s caller counts
/// its own), and its wire bytes in and out: socket_counters() is the
/// process-wide transport.socket.*.
struct SocketCounters {
  obs::CounterBlock* block;
  std::size_t recv, send, frames_in, frames_out, bytes_in, bytes_out;
};
SocketCounters socket_counters();

class SocketChannel final : public Channel, public WireSink {
 public:
  /// Adopt a connected stream socket file descriptor. `pool` backs the
  /// receive-side FrameStream — event-loop servers pass a per-worker pool
  /// so frames never bounce between cores on the hot path. `stream_chunk`
  /// sizes the stream buffer each fill targets: point-to-point channels
  /// want the big default (few connections, deep coalescing); a
  /// many-connection server passes a small chunk so 10k idle connections
  /// don't pin 10k large blocks (frames larger than the chunk still fit —
  /// the stream grows a window to the frame's size on demand).
  explicit SocketChannel(int fd, BufferPool& pool = BufferPool::shared(),
                         std::size_t stream_chunk = kStreamChunk,
                         SocketCounters counters = socket_counters());
  ~SocketChannel() override;

  SocketChannel(const SocketChannel&) = delete;
  SocketChannel& operator=(const SocketChannel&) = delete;

  Status send_frames(std::span<const FrameSegments> frames) override;
  Result<FrameBuf> recv_buf() override;
  Result<FrameBuf> poll_buf() override;
  std::uint64_t bytes_sent() const override { return bytes_sent_; }

  /// Switch the socket to (or from) non-blocking mode. In non-blocking
  /// mode recv_buf() returns kWouldBlock instead of waiting (poll_buf()
  /// is unchanged — it never waited), and writev_some() is the send
  /// surface: the blocking send_frames() must not be used, since a
  /// mid-frame EAGAIN would leave the stream torn.
  Status set_nonblocking(bool on);
  bool nonblocking() const { return nonblocking_; }

  /// WireSink: one gathered write of whatever the kernel will take.
  /// Returns bytes written, kWouldBlock when the socket buffer is full.
  Result<std::size_t> writev_some(std::span<const iovec> iov) override;

  int fd() const { return fd_; }

  /// Edge-triggered input readiness, for event-loop servers. fill()
  /// records "drained" when recv() returned less than its window (TCP
  /// keeps copying while its queue holds data, so the queue was empty at
  /// that moment) or EAGAIN; a byte or FIN arriving later raises a new
  /// EPOLLET edge, which the caller reports with rearm(). While this is
  /// false, poll_buf() could only return kWouldBlock.
  bool may_have_input() const;
  /// An epoll edge arrived. `hangup` (EPOLLRDHUP/HUP/ERR): a FIN queued
  /// behind data raises no further edge, so short reads stop counting as
  /// drained until recv() returns 0 or EAGAIN.
  void rearm(bool hangup) {
    drained_ = false;
    eof_pending_ = eof_pending_ || hangup;
  }

  void close();

 private:
  // Slice the next buffered frame, fill()ing the stream with recv(flags)
  // until one is complete.
  Result<FrameBuf> pull(int flags);
  Status fill(int flags);

  int fd_;
  bool nonblocking_ = false;
  bool drained_ = false;
  bool eof_pending_ = false;
  FrameStream stream_;
  std::uint64_t bytes_sent_ = 0;
  SocketCounters counters_;
  std::vector<iovec> iov_scratch_;
};

/// Listening endpoint bound to 127.0.0.1 on an OS-chosen port (`port` 0)
/// or a fixed one. `backlog` bounds the kernel accept queue — the first
/// line of admission control for a server (SYN floods past it are
/// dropped, not buffered without bound).
class SocketListener {
 public:
  explicit SocketListener(int backlog = 8, std::uint16_t port = 0);
  ~SocketListener();

  SocketListener(const SocketListener&) = delete;
  SocketListener& operator=(const SocketListener&) = delete;

  std::uint16_t port() const { return port_; }
  int fd() const { return fd_; }

  /// Make accept_fd() return kWouldBlock instead of waiting when the
  /// accept queue is empty (for event-loop servers that epoll the
  /// listener).
  Status set_nonblocking(bool on);

  /// Accept one connection (blocking).
  Result<std::unique_ptr<SocketChannel>> accept();

  /// Accept one connection as a raw fd. The accepted socket starts in
  /// non-blocking mode when `nonblocking_conn` is set (SOCK_NONBLOCK at
  /// accept4, no extra fcntl). kWouldBlock when the listener is
  /// non-blocking and the queue is empty.
  Result<int> accept_fd(bool nonblocking_conn);

 private:
  int fd_;
  std::uint16_t port_ = 0;
};

/// Connect to 127.0.0.1:port.
Result<std::unique_ptr<SocketChannel>> socket_connect(std::uint16_t port);

}  // namespace pbio::transport
