#include "transport/socket.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include "obs/obs.h"
#include "transport/io_retry.h"

namespace pbio::transport {
namespace {

/// Raw AF_UNIX stream pair: [0] stays a bare fd for hand-crafted writes,
/// [1] is wrapped in a SocketChannel under test.
struct RawPair {
  int sender_fd;
  std::unique_ptr<SocketChannel> receiver;

  RawPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    sender_fd = fds[0];
    receiver = std::make_unique<SocketChannel>(fds[1]);
  }
  ~RawPair() {
    if (sender_fd >= 0) ::close(sender_fd);
  }
};

std::vector<std::uint8_t> framed(const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> out(kFrameHeaderLen + body.size());
  encode_frame_header(body.size(), out.data());
  std::copy(body.begin(), body.end(), out.begin() + kFrameHeaderLen);
  return out;
}

void write_all(int fd, std::span<const std::uint8_t> bytes,
               std::size_t step) {
  std::size_t at = 0;
  while (at < bytes.size()) {
    const std::size_t n = std::min(step, bytes.size() - at);
    ASSERT_EQ(::write(fd, bytes.data() + at, n), static_cast<ssize_t>(n));
    at += n;
  }
}

TEST(Socket, ConnectSendReceive) {
  SocketListener listener;
  std::thread client([port = listener.port()] {
    auto ch = socket_connect(port);
    ASSERT_TRUE(ch.is_ok()) << ch.status().to_string();
    const std::uint8_t msg[] = {10, 20, 30};
    ASSERT_TRUE(ch.value()->send(msg).is_ok());
  });
  auto server = listener.accept();
  ASSERT_TRUE(server.is_ok());
  auto m = server.value()->recv();
  ASSERT_TRUE(m.is_ok());
  EXPECT_EQ(m.value(), (std::vector<std::uint8_t>{10, 20, 30}));
  client.join();
}

TEST(Socket, EmptyMessageRoundTrips) {
  SocketListener listener;
  std::thread client([port = listener.port()] {
    auto ch = socket_connect(port);
    ASSERT_TRUE(ch.is_ok());
    ASSERT_TRUE(ch.value()->send({}).is_ok());
    ASSERT_TRUE(ch.value()->send({}).is_ok());
  });
  auto server = listener.accept();
  ASSERT_TRUE(server.is_ok());
  EXPECT_TRUE(server.value()->recv().is_ok());
  EXPECT_TRUE(server.value()->recv().is_ok());
  client.join();
}

TEST(Socket, LargeMessagePreservesBytes) {
  SocketListener listener;
  std::vector<std::uint8_t> big(1 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  std::thread client([port = listener.port(), &big] {
    auto ch = socket_connect(port);
    ASSERT_TRUE(ch.is_ok());
    ASSERT_TRUE(ch.value()->send(big).is_ok());
  });
  auto server = listener.accept();
  ASSERT_TRUE(server.is_ok());
  auto m = server.value()->recv();
  ASSERT_TRUE(m.is_ok());
  EXPECT_EQ(m.value(), big);
  client.join();
}

TEST(Socket, GatherSendFramesOnce) {
  SocketListener listener;
  std::thread client([port = listener.port()] {
    auto ch = socket_connect(port);
    ASSERT_TRUE(ch.is_ok());
    const std::uint8_t a[] = {1};
    const std::uint8_t b[] = {2, 3};
    std::vector<std::uint8_t> c(100000, 7);
    const std::span<const std::uint8_t> segs[] = {a, b, c};
    ASSERT_TRUE(ch.value()->send_gather(segs).is_ok());
  });
  auto server = listener.accept();
  ASSERT_TRUE(server.is_ok());
  auto m = server.value()->recv();
  ASSERT_TRUE(m.is_ok());
  ASSERT_EQ(m.value().size(), 100003u);
  EXPECT_EQ(m.value()[0], 1);
  EXPECT_EQ(m.value()[1], 2);
  EXPECT_EQ(m.value()[2], 3);
  EXPECT_EQ(m.value()[3], 7);
  EXPECT_EQ(m.value().back(), 7);
  client.join();
}

TEST(Socket, PeerCloseYieldsChannelClosed) {
  SocketListener listener;
  std::thread client([port = listener.port()] {
    auto ch = socket_connect(port);
    ASSERT_TRUE(ch.is_ok());
    ch.value()->close();
  });
  auto server = listener.accept();
  ASSERT_TRUE(server.is_ok());
  auto m = server.value()->recv();
  EXPECT_FALSE(m.is_ok());
  EXPECT_EQ(m.status().code(), Errc::kChannelClosed);
  client.join();
}

TEST(Socket, ManySmallMessages) {
  SocketListener listener;
  constexpr int kCount = 2000;
  std::thread client([port = listener.port()] {
    auto ch = socket_connect(port);
    ASSERT_TRUE(ch.is_ok());
    for (int i = 0; i < kCount; ++i) {
      std::uint8_t m[4];
      std::memcpy(m, &i, 4);
      ASSERT_TRUE(ch.value()->send(m).is_ok());
    }
  });
  auto server = listener.accept();
  ASSERT_TRUE(server.is_ok());
  for (int i = 0; i < kCount; ++i) {
    auto m = server.value()->recv();
    ASSERT_TRUE(m.is_ok());
    int got;
    std::memcpy(&got, m.value().data(), 4);
    ASSERT_EQ(got, i);
  }
  client.join();
}

TEST(SocketFraming, ByteAtATimeDribbleReassembles) {
  RawPair pair;
  std::vector<std::vector<std::uint8_t>> sent;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 10; ++i) {
    std::vector<std::uint8_t> body(3 * i + 1, static_cast<std::uint8_t>(i));
    sent.push_back(body);
    const auto f = framed(body);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  std::thread dribbler(
      [fd = pair.sender_fd, &stream] { write_all(fd, stream, 1); });
  for (const auto& body : sent) {
    auto m = pair.receiver->recv();
    ASSERT_TRUE(m.is_ok()) << m.status().to_string();
    EXPECT_EQ(m.value(), body);
  }
  dribbler.join();
}

TEST(SocketFraming, AdversarialSplitPointsReassemble) {
  // Splits landing inside the length prefix, exactly on frame boundaries,
  // and inside the body must all reassemble identically.
  std::vector<std::vector<std::uint8_t>> sent;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 6; ++i) {
    std::vector<std::uint8_t> body(11 * i + 2);
    for (std::size_t j = 0; j < body.size(); ++j) {
      body[j] = static_cast<std::uint8_t>(j * 31 + i);
    }
    sent.push_back(body);
    const auto f = framed(body);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  for (std::size_t step : {2u, 3u, 4u, 5u, 7u, 13u}) {
    RawPair pair;
    std::thread writer(
        [fd = pair.sender_fd, &stream, step] { write_all(fd, stream, step); });
    for (const auto& body : sent) {
      auto m = pair.receiver->recv();
      ASSERT_TRUE(m.is_ok()) << "step " << step;
      EXPECT_EQ(m.value(), body) << "step " << step;
    }
    writer.join();
  }
}

TEST(SocketFraming, FrameLargerThanStreamBufferCarriesOver) {
  RawPair pair;
  std::vector<std::uint8_t> big(kStreamChunk * 2 + 999);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 2654435761u >> 24);
  }
  const auto f = framed(big);
  std::thread writer(
      [fd = pair.sender_fd, &f] { write_all(fd, f, 8192); });
  auto m = pair.receiver->recv();
  ASSERT_TRUE(m.is_ok());
  EXPECT_EQ(m.value(), big);
  writer.join();
}

TEST(SocketFraming, TruncatedMidFrameReportsClosed) {
  RawPair pair;
  const auto f = framed(std::vector<std::uint8_t>(100, 9));
  // Send the header and half the body, then hang up.
  write_all(pair.sender_fd, std::span(f.data(), 54), 54);
  ::close(pair.sender_fd);
  pair.sender_fd = -1;
  auto m = pair.receiver->recv();
  ASSERT_FALSE(m.is_ok());
  EXPECT_EQ(m.status().code(), Errc::kChannelClosed);
}

TEST(SocketFraming, PollBufWouldBlockOnEmptySocket) {
  RawPair pair;
  auto m = pair.receiver->poll_buf();
  ASSERT_FALSE(m.is_ok());
  EXPECT_EQ(m.status().code(), Errc::kWouldBlock);
}

TEST(SocketFraming, PollBufDrainsWithoutBlocking) {
  RawPair pair;
  std::vector<std::uint8_t> stream;
  for (int i = 0; i < 5; ++i) {
    const auto f = framed({static_cast<std::uint8_t>(i)});
    stream.insert(stream.end(), f.begin(), f.end());
  }
  write_all(pair.sender_fd, stream, stream.size());
  for (int i = 0; i < 5; ++i) {
    auto m = pair.receiver->poll_buf();
    ASSERT_TRUE(m.is_ok()) << i;
    ASSERT_EQ(m.value().size(), 1u);
    EXPECT_EQ(m.value().data()[0], i);
  }
  auto empty = pair.receiver->poll_buf();
  ASSERT_FALSE(empty.is_ok());
  EXPECT_EQ(empty.status().code(), Errc::kWouldBlock);
}

std::uint64_t socket_series(const char* name) {
  const obs::Snapshot snap = obs::snapshot();
  const obs::CounterSample* c = snap.find_counter(name);
  return c == nullptr ? 0 : c->value;
}

TEST(SocketSyscalls, CoalescedReceiveAmortizesReads) {
  // 100 small frames written in one burst must cost far fewer than the
  // legacy two reads per frame.
  const std::uint64_t bytes_in = socket_series("transport.socket.bytes_in");
  const std::uint64_t read_calls =
      socket_series("transport.socket.read_calls");
  RawPair pair;
  std::vector<std::uint8_t> stream;
  constexpr int kFrames = 100;
  for (int i = 0; i < kFrames; ++i) {
    const auto f = framed({static_cast<std::uint8_t>(i), 0, 1, 2});
    stream.insert(stream.end(), f.begin(), f.end());
  }
  write_all(pair.sender_fd, stream, stream.size());
  for (int i = 0; i < kFrames; ++i) {
    auto m = pair.receiver->recv_buf();
    ASSERT_TRUE(m.is_ok()) << i;
    EXPECT_EQ(m.value().data()[0], i);
  }
  EXPECT_LT(socket_series("transport.socket.read_calls") - read_calls,
            kFrames)
      << "buffered framing should need far fewer reads than frames";
  EXPECT_EQ(socket_series("transport.socket.bytes_in") - bytes_in,
            stream.size());
}

TEST(SocketSyscalls, SendFramesBatchesManyFramesPerWritev) {
  SocketListener listener;
  constexpr int kFrames = 100;
  std::thread client([port = listener.port()] {
    auto ch = socket_connect(port);
    ASSERT_TRUE(ch.is_ok());
    const std::uint64_t send_calls =
        socket_series("transport.socket.send_calls");
    std::vector<std::array<std::uint8_t, 4>> bodies(kFrames);
    std::vector<std::span<const std::uint8_t>> segs(kFrames);
    std::vector<FrameSegments> frames(kFrames);
    for (int i = 0; i < kFrames; ++i) {
      std::memcpy(bodies[i].data(), &i, 4);
      segs[i] = bodies[i];
      frames[i] = FrameSegments{{&segs[i], 1}};
    }
    ASSERT_TRUE(ch.value()->send_frames(frames).is_ok());
    // 100 frames, 64 per writev: exactly two kernel crossings.
    EXPECT_EQ(socket_series("transport.socket.send_calls") - send_calls, 2u);
  });
  auto server = listener.accept();
  ASSERT_TRUE(server.is_ok());
  for (int i = 0; i < kFrames; ++i) {
    auto m = server.value()->recv();
    ASSERT_TRUE(m.is_ok()) << i;
    int got;
    std::memcpy(&got, m.value().data(), 4);
    EXPECT_EQ(got, i);
  }
  client.join();
}

TEST(SocketNonblocking, RecvBufWouldBlockInsteadOfWaiting) {
  RawPair pair;
  ASSERT_TRUE(pair.receiver->set_nonblocking(true).is_ok());
  EXPECT_TRUE(pair.receiver->nonblocking());
  auto empty = pair.receiver->recv_buf();
  ASSERT_FALSE(empty.is_ok());
  EXPECT_EQ(empty.status().code(), Errc::kWouldBlock);
  // A frame arriving later is still delivered intact.
  const auto f = framed({5, 6, 7});
  write_all(pair.sender_fd, f, f.size());
  auto m = pair.receiver->recv_buf();
  ASSERT_TRUE(m.is_ok()) << m.status().to_string();
  EXPECT_EQ(m.value().size(), 3u);
  EXPECT_EQ(m.value().data()[0], 5);
  // Back to blocking mode restores the waiting recv path.
  ASSERT_TRUE(pair.receiver->set_nonblocking(false).is_ok());
  EXPECT_FALSE(pair.receiver->nonblocking());
}

TEST(SocketNonblocking, WritevSomeFillsBufferThenWouldBlocks) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  SocketChannel writer(fds[0]);
  ASSERT_TRUE(writer.set_nonblocking(true).is_ok());
  std::vector<std::uint8_t> chunk(64 * 1024, 0xAB);
  const iovec iov[] = {{chunk.data(), chunk.size()}};
  std::size_t written = 0;
  bool blocked = false;
  for (int i = 0; i < 1000 && !blocked; ++i) {
    auto n = writer.writev_some(iov);
    if (n.is_ok()) {
      written += n.value();
      continue;
    }
    ASSERT_EQ(n.status().code(), Errc::kWouldBlock);
    blocked = true;
  }
  EXPECT_TRUE(blocked) << "an un-drained socket must eventually would-block";
  EXPECT_GT(written, 0u);
  // Drain the peer side; the sink accepts bytes again.
  std::vector<std::uint8_t> sink(chunk.size());
  while (::recv(fds[1], sink.data(), sink.size(), MSG_DONTWAIT) > 0) {
  }
  auto again = writer.writev_some(iov);
  ASSERT_TRUE(again.is_ok());
  EXPECT_GT(again.value(), 0u);
  ::close(fds[1]);
}

TEST(SocketNonblocking, ListenerAcceptFdWouldBlockOnEmptyQueue) {
  SocketListener listener;
  ASSERT_TRUE(listener.set_nonblocking(true).is_ok());
  auto none = listener.accept_fd(true);
  ASSERT_FALSE(none.is_ok());
  EXPECT_EQ(none.status().code(), Errc::kWouldBlock);

  auto client = socket_connect(listener.port());
  ASSERT_TRUE(client.is_ok());
  // Loopback handshake completes quickly but not instantly: poll briefly.
  int fd = -1;
  for (int i = 0; i < 2000 && fd < 0; ++i) {
    auto got = listener.accept_fd(true);
    if (got.is_ok()) {
      fd = got.value();
      break;
    }
    ASSERT_EQ(got.status().code(), Errc::kWouldBlock);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(fd, 0) << "connection never surfaced on the listener";
  // accept_fd(true) promised a socket born non-blocking.
  const int flags = ::fcntl(fd, F_GETFL);
  EXPECT_NE(flags & O_NONBLOCK, 0);
  ::close(fd);
}

TEST(IoRetry, ReadRetriesAcrossSignalInterruption) {
  // A signal handler installed without SA_RESTART makes blocking reads
  // fail with EINTR; the retry helpers must hide that from callers.
  struct sigaction sa {};
  struct sigaction old {};
  sa.sa_handler = [](int) {};
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  int p[2];
  ASSERT_EQ(::pipe(p), 0);
  std::atomic<bool> entered{false};
  std::thread reader([&] {
    entered.store(true);
    char c = 0;
    const ssize_t r = io::retry_read(p[0], &c, 1);
    EXPECT_EQ(r, 1);
    EXPECT_EQ(c, 'x');
  });
  while (!entered.load()) {
  }
  // Pepper the blocked reader with signals, then satisfy the read.
  for (int i = 0; i < 5; ++i) {
    pthread_kill(reader.native_handle(), SIGUSR1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(::write(p[1], "x", 1), 1);
  reader.join();
  ::close(p[0]);
  ::close(p[1]);
  sigaction(SIGUSR1, &old, nullptr);
}

TEST(IoRetry, HelpersPassThroughNormalResults) {
  int p[2];
  ASSERT_EQ(::pipe(p), 0);
  const char msg[] = "abc";
  ASSERT_EQ(::write(p[1], msg, 3), 3);
  char buf[8];
  EXPECT_EQ(io::retry_read(p[0], buf, sizeof(buf)), 3);
  EXPECT_EQ(std::memcmp(buf, msg, 3), 0);
  ::close(p[1]);
  // Writer closed: EOF, not an error.
  EXPECT_EQ(io::retry_read(p[0], buf, sizeof(buf)), 0);
  ::close(p[0]);

  int s[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, s), 0);
  const iovec iov[] = {{const_cast<char*>(msg), 2},
                       {const_cast<char*>(msg) + 2, 1}};
  EXPECT_EQ(io::retry_sendv(s[1], iov, 2), 3);
  EXPECT_EQ(io::retry_read(s[0], buf, sizeof(buf)), 3);
  EXPECT_EQ(std::memcmp(buf, msg, 3), 0);
  ::close(s[0]);
  ::close(s[1]);
}

TEST(IoRetry, SendvToClosedPeerFailsWithEpipeInsteadOfSignalling) {
  // Without MSG_NOSIGNAL this write raises SIGPIPE and ends the process.
  int s[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, s), 0);
  ::close(s[0]);
  char c = 'x';
  const iovec iov[] = {{&c, 1}};
  EXPECT_EQ(io::retry_sendv(s[1], iov, 1), -1);
  EXPECT_EQ(errno, EPIPE);
  ::close(s[1]);
}

}  // namespace
}  // namespace pbio::transport
