// EINTR-consistent raw I/O wrappers.
//
// Every raw read / recv / gathered send / accept the transports
// make goes through these helpers, so the retry-on-EINTR policy lives in
// exactly one place (historically each call site open-coded its own loop;
// an audit found them consistent but the duplication invited drift). The
// helpers retry the syscall while it fails with EINTR and otherwise return
// the raw result with errno intact — callers still decide what EAGAIN,
// EOF, or hard errors mean for their protocol state.
//
// Gathered socket writes use sendmsg with MSG_NOSIGNAL rather than
// writev, so writing to a peer that has reset the connection fails with
// EPIPE instead of raising SIGPIPE and killing the process.
//
// connect(2) is deliberately NOT wrapped: after an EINTR the connection
// attempt continues asynchronously and re-calling connect() yields
// EALREADY/EISCONN, so its one call site handles interruption itself.
#pragma once

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>

namespace pbio::transport::io {

inline ssize_t retry_read(int fd, void* buf, std::size_t n) {
  for (;;) {
    const ssize_t r = ::read(fd, buf, n);
    if (r >= 0 || errno != EINTR) return r;
  }
}

inline ssize_t retry_recv(int fd, void* buf, std::size_t n, int flags) {
  for (;;) {
    const ssize_t r = ::recv(fd, buf, n, flags);
    if (r >= 0 || errno != EINTR) return r;
  }
}

/// writev for sockets, with MSG_NOSIGNAL (see the header comment).
inline ssize_t retry_sendv(int fd, const iovec* iov, int iovcnt) {
  msghdr msg{};
  msg.msg_iov = const_cast<iovec*>(iov);
  msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
  for (;;) {
    const ssize_t r = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (r >= 0 || errno != EINTR) return r;
  }
}

/// accept4 so accepted sockets can start life non-blocking without a second
/// fcntl round trip (`flags` takes SOCK_NONBLOCK / SOCK_CLOEXEC).
inline int retry_accept(int fd, int flags) {
  for (;;) {
    const int r = ::accept4(fd, nullptr, nullptr, flags);
    if (r >= 0 || errno != EINTR) return r;
  }
}

}  // namespace pbio::transport::io
