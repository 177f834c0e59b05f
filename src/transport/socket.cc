#include "transport/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "transport/io_retry.h"

namespace pbio::transport {

namespace {

Status errno_status(const char* what) {
  // strerror_r, not strerror: channels fail on many worker threads at
  // once and glibc's strerror uses a shared static buffer.
  char buf[128] = "unknown error";
#if defined(__GLIBC__) && defined(_GNU_SOURCE)
  const char* msg = ::strerror_r(errno, buf, sizeof buf);  // GNU: may return a static immutable string
#else
  const char* msg = ::strerror_r(errno, buf, sizeof buf) == 0 ? buf : "unknown error";
#endif
  return Status(Errc::kIo, std::string(what) + ": " + msg);
}

bool errno_would_block() { return errno == EAGAIN || errno == EWOULDBLOCK; }

}  // namespace

SocketCounters socket_counters() {
  // Leaked, like the registry: a channel may count during static teardown.
  static obs::CounterBlock* const block = new obs::CounterBlock{
      "transport.socket.read_calls", "transport.socket.send_calls",
      "transport.socket.msgs_in",    "transport.socket.msgs_out",
      "transport.socket.bytes_in",   "transport.socket.bytes_out"};
  return {block, 0, 1, 2, 3, 4, 5};
}

SocketChannel::SocketChannel(int fd, BufferPool& pool,
                             std::size_t stream_chunk, SocketCounters counters)
    : fd_(fd), stream_(pool, stream_chunk), counters_(counters) {
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int flags = ::fcntl(fd_, F_GETFL);
  nonblocking_ = flags >= 0 && (flags & O_NONBLOCK) != 0;
}

Status SocketChannel::set_nonblocking(bool on) {
  const int flags = ::fcntl(fd_, F_GETFL);
  if (flags < 0) return errno_status("fcntl(F_GETFL)");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && ::fcntl(fd_, F_SETFL, want) != 0) {
    return errno_status("fcntl(F_SETFL)");
  }
  nonblocking_ = on;
  return Status::ok();
}

Result<std::size_t> SocketChannel::writev_some(std::span<const iovec> iov) {
  if (iov.empty()) return std::size_t{0};
  const ssize_t w =
      io::retry_sendv(fd_, iov.data(), static_cast<int>(iov.size()));
  counters_.block->add(counters_.send, 1);
  if (w < 0) {
    if (errno_would_block()) {
      return Status(Errc::kWouldBlock, "would block");
    }
    return errno_status("sendmsg");
  }
  bytes_sent_ += static_cast<std::size_t>(w);
  counters_.block->add(counters_.bytes_out, static_cast<std::uint64_t>(w));
  return static_cast<std::size_t>(w);
}

SocketChannel::~SocketChannel() { close(); }

void SocketChannel::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status SocketChannel::send_frames(std::span<const FrameSegments> frames) {
  // Check every length before the first byte goes out: a refused frame
  // leaves the stream untouched. Then one gathered send covers up to
  // kMaxPerCall frames: per-frame length prefix plus the frame's segments,
  // no concatenation copy. Headers live in a stack block; the iovec
  // scratch is a reused member, so steady-state sends allocate nothing
  // either.
  for (const FrameSegments& f : frames) {
    Status st = check_frame_len(f.size());
    if (!st.is_ok()) return st;
  }
  constexpr std::size_t kMaxPerCall = 64;
  std::size_t at = 0;
  while (at < frames.size()) {
    const std::size_t n = std::min(kMaxPerCall, frames.size() - at);
    std::uint8_t headers[kMaxPerCall][kFrameHeaderLen];
    iov_scratch_.clear();
    std::size_t payload = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const FrameSegments& f = frames[at + i];
      const std::size_t frame_len = f.size();
      encode_frame_header(frame_len, headers[i]);
      iov_scratch_.push_back({headers[i], kFrameHeaderLen});
      for (const auto& s : f.segments) {
        if (!s.empty()) {
          iov_scratch_.push_back(
              {const_cast<std::uint8_t*>(s.data()), s.size()});
        }
      }
      payload += frame_len;
    }
    std::size_t done = 0;
    const std::size_t want = payload + n * kFrameHeaderLen;
    auto* iov = iov_scratch_.data();
    std::size_t iov_left = iov_scratch_.size();
    while (done < want) {
      const ssize_t w = io::retry_sendv(fd_, iov, static_cast<int>(iov_left));
      counters_.block->add(counters_.send, 1);
      if (w < 0) {
        return errno_status("sendmsg");
      }
      counters_.block->add(counters_.bytes_out, static_cast<std::uint64_t>(w));
      done += static_cast<std::size_t>(w);
      if (done >= want) break;
      // Short write: advance the iovec view.
      std::size_t skip = static_cast<std::size_t>(w);
      while (iov_left > 0 && skip >= iov->iov_len) {
        skip -= iov->iov_len;
        ++iov;
        --iov_left;
      }
      if (iov_left > 0) {
        iov->iov_base = static_cast<std::uint8_t*>(iov->iov_base) + skip;
        iov->iov_len -= skip;
      }
    }
    bytes_sent_ += payload;
    counters_.block->add(counters_.frames_out, n);
    at += n;
  }
  return Status::ok();
}

/// One recv() into the stream buffer. `flags` 0 waits on a blocking
/// socket; MSG_DONTWAIT takes only what the kernel already has. A
/// non-blocking empty kernel buffer is kWouldBlock, end of stream is
/// kChannelClosed. A short read or EAGAIN marks the channel drained.
Status SocketChannel::fill(int flags) {
  auto window = stream_.write_window(stream_.fill_hint());
  const ssize_t r = io::retry_recv(fd_, window.data(), window.size(), flags);
  counters_.block->add(counters_.recv, 1);
  if (r < 0) {
    if (errno_would_block()) {
      drained_ = true;
      eof_pending_ = false;
      // Short literal on purpose: fits in the SSO buffer, so draining a
      // batch to empty costs no heap allocation.
      return Status(Errc::kWouldBlock, "would block");
    }
    return errno_status("recv");
  }
  if (r == 0) {
    return Status(Errc::kChannelClosed,
                  stream_.buffered_bytes() == 0 ? "end of stream"
                                                : "truncated frame");
  }
  drained_ = !eof_pending_ && static_cast<std::size_t>(r) < window.size();
  stream_.commit(static_cast<std::size_t>(r));
  return Status::ok();
}

Result<FrameBuf> SocketChannel::pull(int flags) {
  while (true) {
    FrameBuf frame;
    Status err;
    switch (stream_.next_frame(&frame, &err)) {
      case FrameStream::Pull::kFrame:
        counters_.block->add(counters_.frames_in, 1);
        counters_.block->add(counters_.bytes_in,
                             kFrameHeaderLen + frame.size());
        return frame;
      case FrameStream::Pull::kBad:
        return err;
      case FrameStream::Pull::kNeedMore:
        break;
    }
    Status st = fill(flags);
    if (!st.is_ok()) return st;
  }
}

bool SocketChannel::may_have_input() const {
  return !drained_ || stream_.has_complete_frame();
}

Result<FrameBuf> SocketChannel::recv_buf() { return pull(0); }

Result<FrameBuf> SocketChannel::poll_buf() { return pull(MSG_DONTWAIT); }

SocketListener::SocketListener(int backlog, std::uint16_t port) : fd_(-1) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw PbioError("socket() failed");
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd_);
    throw PbioError("bind() failed");
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd_);
    throw PbioError("getsockname() failed");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(fd_, backlog) != 0) {
    ::close(fd_);
    throw PbioError("listen() failed");
  }
}

SocketListener::~SocketListener() {
  if (fd_ >= 0) ::close(fd_);
}

Status SocketListener::set_nonblocking(bool on) {
  const int flags = ::fcntl(fd_, F_GETFL);
  if (flags < 0) return errno_status("fcntl(F_GETFL)");
  const int want = on ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && ::fcntl(fd_, F_SETFL, want) != 0) {
    return errno_status("fcntl(F_SETFL)");
  }
  return Status::ok();
}

Result<std::unique_ptr<SocketChannel>> SocketListener::accept() {
  auto fd = accept_fd(/*nonblocking_conn=*/false);
  if (!fd.is_ok()) return fd.status();
  return std::make_unique<SocketChannel>(fd.value());
}

Result<int> SocketListener::accept_fd(bool nonblocking_conn) {
  const int fd = io::retry_accept(fd_, nonblocking_conn ? SOCK_NONBLOCK : 0);
  if (fd >= 0) return fd;
  if (errno_would_block()) {
    return Status(Errc::kWouldBlock, "accept queue empty");
  }
  return errno_status("accept");
}

Result<std::unique_ptr<SocketChannel>> socket_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return errno_status("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  while (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
         0) {
    if (errno == EINTR) continue;
    ::close(fd);
    return errno_status("connect");
  }
  return std::make_unique<SocketChannel>(fd);
}

}  // namespace pbio::transport
