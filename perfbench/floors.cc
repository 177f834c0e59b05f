#include "floors.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cstring>
#include <thread>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kFloorBudgetNs = 250'000'000;  // per floor

/// A connected loopback TCP pair with Nagle off on both ends; fds are
/// closed by the destructor.
struct TcpPair {
  int a = -1;
  int b = -1;
  TcpPair() {
    const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    auto* sa = reinterpret_cast<sockaddr*>(&addr);  // wire-lint: ok BSD socket API
    if (lfd < 0 || ::bind(lfd, sa, sizeof(addr)) != 0 ||
        ::listen(lfd, 1) != 0 || ::getsockname(lfd, sa, &len) != 0) {
      if (lfd >= 0) ::close(lfd);
      return;
    }
    a = ::socket(AF_INET, SOCK_STREAM, 0);
    if (a >= 0 && ::connect(a, sa, sizeof(addr)) == 0) {
      b = ::accept(lfd, nullptr, nullptr);
    }
    ::close(lfd);
    const int one = 1;
    for (int fd : {a, b}) {
      if (fd >= 0) {
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      }
    }
  }
  ~TcpPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
  TcpPair(const TcpPair&) = delete;
  TcpPair& operator=(const TcpPair&) = delete;
  bool ok() const { return a >= 0 && b >= 0; }
};

bool read_exact(int fd, std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::read(fd, p, n);
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

bool write_exact(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::write(fd, p, n);
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

double floor_memcpy_ns(std::size_t bytes) {
  std::vector<std::uint8_t> src(bytes, 0x5a), dst(bytes, 0);
  // Enough copies per sample that one sample takes a few microseconds.
  const std::size_t reps = 1 + 16384 / (bytes / 64 + 1);
  std::vector<double> per_copy;
  const std::uint64_t end = now_ns() + kFloorBudgetNs;
  while (now_ns() < end) {
    const std::uint64_t t0 = now_ns();
    for (std::size_t i = 0; i < reps; ++i) {
      src[i % bytes] = static_cast<std::uint8_t>(i);
      std::memcpy(dst.data(), src.data(), bytes);
      asm volatile("" : : "r"(dst.data()) : "memory");
    }
    per_copy.push_back(static_cast<double>(now_ns() - t0) /
                       static_cast<double>(reps));
  }
  return median(std::move(per_copy));
}

double floor_writev_ns(std::size_t frame_bytes) {
  TcpPair tcp;
  if (!tcp.ok() || frame_bytes < 20) return 0.0;
  std::vector<std::uint8_t> frame(frame_bytes, 0x11), sink(64 * frame_bytes);
  const iovec iov[3] = {{frame.data(), 4},
                        {frame.data() + 4, 16},
                        {frame.data() + 20, frame_bytes - 20}};
  std::vector<double> per_call;
  const std::uint64_t end = now_ns() + kFloorBudgetNs;
  while (now_ns() < end) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < 64; ++i) {
      if (::writev(tcp.a, iov, 3) != static_cast<ssize_t>(frame_bytes)) {
        return 0.0;
      }
    }
    per_call.push_back(static_cast<double>(now_ns() - t0) / 64.0);
    if (!read_exact(tcp.b, sink.data(), sink.size())) return 0.0;
  }
  return median(std::move(per_call));
}

double floor_tcp_rtt_us(std::size_t frame_bytes) {
  TcpPair tcp;
  if (!tcp.ok()) return 0.0;
  std::thread echo([fd = tcp.b, frame_bytes] {
    std::vector<std::uint8_t> buf(frame_bytes);
    while (read_exact(fd, buf.data(), buf.size()) &&
           write_exact(fd, buf.data(), buf.size())) {
    }
  });
  std::vector<std::uint8_t> out(frame_bytes, 0x22), in(frame_bytes);
  std::vector<double> rtt;
  const std::uint64_t end = now_ns() + kFloorBudgetNs;
  while (now_ns() < end) {
    const std::uint64_t t0 = now_ns();
    if (!write_exact(tcp.a, out.data(), out.size()) ||
        !read_exact(tcp.a, in.data(), in.size())) {
      break;
    }
    rtt.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  ::shutdown(tcp.a, SHUT_WR);  // echo thread sees EOF and exits
  echo.join();
  return median(std::move(rtt));
}

}  // namespace perfbench
