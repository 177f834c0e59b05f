// The Channel contract: a transport implements send_frames, recv_buf and
// bytes_sent (plus poll_buf when it buffers); send, send_gather and recv
// are the base class's adapters over them. Also: every sender refuses a
// frame no receiver would accept, before writing any byte of the call.
#include "transport/channel.h"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <deque>
#include <filesystem>
#include <string>
#include <vector>

#include "pbio/pbio.h"
#include "transport/file.h"
#include "transport/framing.h"
#include "transport/loopback.h"
#include "transport/socket.h"
#include "util/endian.h"

namespace pbio {
namespace {

using transport::FrameSegments;

/// A Channel with only the contract's pure virtuals: each frame becomes a
/// copied lease in a FIFO that the same object receives from.
class MinimalChannel final : public transport::Channel {
 public:
  Status send_frames(std::span<const FrameSegments> frames) override {
    ++send_calls_;
    for (const FrameSegments& f : frames) {
      FrameBuf buf = BufferPool::shared().lease(f.size());
      std::size_t at = 0;
      for (const auto& s : f.segments) {
        if (!s.empty()) std::memcpy(buf.data() + at, s.data(), s.size());
        at += s.size();
      }
      bytes_sent_ += f.size();
      queue_.push_back(std::move(buf));
    }
    return Status::ok();
  }
  Result<FrameBuf> recv_buf() override {
    if (queue_.empty()) return Status(Errc::kChannelClosed, "drained");
    FrameBuf f = std::move(queue_.front());
    queue_.pop_front();
    return f;
  }
  std::uint64_t bytes_sent() const override { return bytes_sent_; }

  std::size_t send_calls() const { return send_calls_; }
  std::size_t pending() const { return queue_.size(); }

 private:
  std::deque<FrameBuf> queue_;
  std::size_t send_calls_ = 0;
  std::uint64_t bytes_sent_ = 0;
};

struct Sample {
  int id;
  double mass;
  float vel[3];
};

const NativeField kSampleFields[] = {
    PBIO_FIELD(Sample, id, arch::CType::kInt),
    PBIO_FIELD(Sample, mass, arch::CType::kDouble),
    PBIO_ARRAY(Sample, vel, arch::CType::kFloat, 3),
};

std::vector<std::uint8_t> to_vector(const FrameBuf& f) {
  return {f.data(), f.data() + f.size()};
}

TEST(ChannelContract, MinimalChannelCarriesWriterToReader) {
  Context ctx;
  const auto id = ctx.register_format(
      native_format("sample", kSampleFields, sizeof(Sample)));
  MinimalChannel ch;
  Writer w(ctx, ch);
  const Sample sent[2] = {{7, 1.5, {1.f, 2.f, 3.f}},
                          {8, -2.25, {4.f, 5.f, 6.f}}};
  ASSERT_TRUE(w.write(id, &sent[0]).is_ok());
  ASSERT_TRUE(w.write(id, &sent[1]).is_ok());
  EXPECT_EQ(ch.pending(), 3u);  // announcement + 2 data frames

  Reader r(ctx, ch);
  r.expect(id);
  for (const Sample& want : sent) {
    auto msg = r.next();
    ASSERT_TRUE(msg.is_ok()) << msg.status().to_string();
    Sample got{};
    const Status st = msg.value().decode_into(&got, sizeof(got));
    ASSERT_TRUE(st.is_ok()) << st.to_string();
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.mass, want.mass);
    EXPECT_EQ(got.vel[2], want.vel[2]);
  }
  EXPECT_EQ(r.next().status().code(), Errc::kChannelClosed);
}

TEST(ChannelContract, WriterMakesOneChannelCallPerWriteOrAnnouncement) {
  Context ctx;
  const auto a = ctx.register_format(
      native_format("sample", kSampleFields, sizeof(Sample)));
  const auto b = ctx.register_format(
      native_format("sample_b", kSampleFields, sizeof(Sample)));
  MinimalChannel ch;
  Writer w(ctx, ch);
  const Sample s{1, 2.0, {3.f, 4.f, 5.f}};

  ASSERT_TRUE(w.announce(a).is_ok());  // the announcement alone
  EXPECT_EQ(ch.send_calls(), 1u);
  EXPECT_EQ(ch.pending(), 1u);
  ASSERT_TRUE(w.write(a, &s).is_ok());  // data only
  EXPECT_EQ(ch.send_calls(), 2u);
  EXPECT_EQ(ch.pending(), 2u);
  ASSERT_TRUE(w.write(b, &s).is_ok());  // announcement + data, one call
  EXPECT_EQ(ch.send_calls(), 3u);
  EXPECT_EQ(ch.pending(), 4u);
  ASSERT_TRUE(w.write_image(b, {reinterpret_cast<const std::uint8_t*>(&s),
                                sizeof(s)})
                  .is_ok());
  EXPECT_EQ(ch.send_calls(), 4u);
  EXPECT_EQ(ch.pending(), 5u);
}

/// Send the same bytes through send, send_gather (split in three) and
/// send_frames, then receive them through recv, recv_buf and recv.
void check_adapters_agree(transport::Channel& tx, transport::Channel& rx) {
  std::vector<std::uint8_t> body(300);
  for (std::size_t i = 0; i < body.size(); ++i) {
    body[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const std::span<const std::uint8_t> all(body);
  const std::span<const std::uint8_t> split[] = {
      all.first(1), all.subspan(1, 0), all.subspan(1)};
  const FrameSegments frame{split};

  const std::uint64_t before = tx.bytes_sent();
  ASSERT_TRUE(tx.send(all).is_ok());
  ASSERT_TRUE(tx.send_gather(split).is_ok());
  ASSERT_TRUE(tx.send_frames({&frame, 1}).is_ok());
  EXPECT_EQ(tx.bytes_sent() - before, 3 * body.size());

  auto first = rx.recv();
  auto second = rx.recv_buf();
  auto third = rx.recv();
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  ASSERT_TRUE(third.is_ok());
  EXPECT_EQ(first.value(), body);
  EXPECT_EQ(to_vector(second.value()), body);
  EXPECT_EQ(third.value(), body);
}

TEST(ChannelContract, AdaptersSendByteIdenticalFrames) {
  MinimalChannel ch;
  check_adapters_agree(ch, ch);
  EXPECT_EQ(ch.send_calls(), 3u);  // each adapter is one send_frames call
  EXPECT_EQ(ch.recv().status().code(), Errc::kChannelClosed);
  EXPECT_EQ(ch.poll_buf().status().code(), Errc::kWouldBlock);
}

TEST(ChannelContract, AdaptersAgreeOverLoopbackAndSocket) {
  auto [a, b] = transport::make_loopback_pair();
  check_adapters_agree(*a, *b);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  transport::SocketChannel tx(fds[0]);
  transport::SocketChannel rx(fds[1]);
  check_adapters_agree(tx, rx);
}

TEST(ChannelContract, LoopbackSendFramesArriveAsFramesInOrder) {
  // More frames than one queue-lock batch, of mixed segment shapes,
  // including an empty frame and a frame of empty segments.
  constexpr std::size_t kFrames = 11;
  std::vector<std::vector<std::uint8_t>> bodies(kFrames);
  std::vector<std::vector<std::span<const std::uint8_t>>> segs(kFrames);
  std::vector<FrameSegments> frames(kFrames);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kFrames; ++i) {
    bodies[i].resize(i == 3 || i == 4 ? 0 : i * 37 + 5);
    for (std::size_t j = 0; j < bodies[i].size(); ++j) {
      bodies[i][j] = static_cast<std::uint8_t>(i + j);
    }
    const std::span<const std::uint8_t> body(bodies[i]);
    const std::size_t cut = body.size() / 2;
    if (i == 3) {
      // No segments at all.
    } else if (i % 2 == 0) {
      segs[i] = {body};
    } else {
      segs[i] = {body.first(cut), body.subspan(cut, 0), body.subspan(cut)};
    }
    frames[i] = {segs[i]};
    total += body.size();
  }

  auto [a, b] = transport::make_loopback_pair();
  ASSERT_TRUE(a->send_frames(frames).is_ok());
  EXPECT_EQ(b->pending(), kFrames);
  EXPECT_EQ(a->bytes_sent(), total);
  for (std::size_t i = 0; i < kFrames; ++i) {
    auto got = b->recv_buf();
    ASSERT_TRUE(got.is_ok()) << i;
    EXPECT_EQ(to_vector(got.value()), bodies[i]) << i;
  }
  EXPECT_EQ(b->poll_buf().status().code(), Errc::kWouldBlock);
}

TEST(ChannelContract, LoopbackSendFramesToClosedPeerFails) {
  auto [a, b] = transport::make_loopback_pair();
  b->close();
  const std::uint8_t byte[] = {1};
  EXPECT_EQ(a->send(byte).code(), Errc::kChannelClosed);
  EXPECT_EQ(a->bytes_sent(), 0u);
}

// --- Oversized frames ----------------------------------------------------

/// kMaxFrameLen + 1 bytes of address space that no page backs: a sender
/// that touched a byte of it would fault.
class HugeFrame {
 public:
  HugeFrame()
      : size_(kMaxFrameLen + 1),
        base_(::mmap(nullptr, size_, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0)) {}
  ~HugeFrame() {
    if (ok()) ::munmap(base_, size_);
  }
  HugeFrame(const HugeFrame&) = delete;
  HugeFrame& operator=(const HugeFrame&) = delete;

  bool ok() const { return base_ != MAP_FAILED; }
  std::span<const std::uint8_t> bytes() const {
    return {static_cast<const std::uint8_t*>(base_), size_};
  }

 private:
  std::size_t size_;
  void* base_;
};

TEST(OversizedFrame, LengthCheckRefusesPastTheLimit) {
  ASSERT_TRUE(transport::check_frame_len(kMaxFrameLen).is_ok());
  std::uint8_t h[kFrameHeaderLen] = {0xAA, 0xAA, 0xAA, 0xAA};
  encode_frame_header(kMaxFrameLen, h);
  EXPECT_EQ(load_uint(h, kFrameHeaderLen, ByteOrder::kLittle),
            kMaxFrameLen);
  for (const std::size_t len :
       {kMaxFrameLen + 1, std::size_t{1} << 32,
        (std::size_t{1} << 32) + 5}) {
    EXPECT_EQ(transport::check_frame_len(len).code(), Errc::kMalformed)
        << len;
  }
}

TEST(OversizedFrame, SocketRefusesBeforeAnyByte) {
  HugeFrame huge;
  ASSERT_TRUE(huge.ok());
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  transport::SocketChannel tx(fds[0]);
  transport::SocketChannel rx(fds[1]);
  const transport::SocketCounters calls = transport::socket_counters();
  const std::uint64_t send_calls = calls.block->get(calls.send);

  const std::uint8_t small[] = {1, 2, 3};
  const std::span<const std::uint8_t> small_seg[] = {small};
  const std::span<const std::uint8_t> huge_seg[] = {huge.bytes()};
  const FrameSegments frames[] = {{small_seg}, {huge_seg}};
  EXPECT_EQ(tx.send_frames(frames).code(), Errc::kMalformed);
  EXPECT_EQ(calls.block->get(calls.send), send_calls);
  EXPECT_EQ(tx.bytes_sent(), 0u);

  // The stream is intact: the next frame is the first the peer sees.
  const std::uint8_t next[] = {9};
  ASSERT_TRUE(tx.send(next).is_ok());
  auto got = rx.recv_buf();
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(to_vector(got.value()), std::vector<std::uint8_t>{9});
}

TEST(OversizedFrame, FileLogRefusesBeforeAnyByte) {
  HugeFrame huge;
  ASSERT_TRUE(huge.ok());
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("pbio_oversized_" + std::to_string(::getpid()) + ".log"))
          .string();
  {
    auto w = transport::FileWriteChannel::open(path);
    ASSERT_TRUE(w.is_ok());
    const std::uint8_t small[] = {1, 2, 3};
    const std::span<const std::uint8_t> small_seg[] = {small};
    const std::span<const std::uint8_t> huge_seg[] = {huge.bytes()};
    const FrameSegments frames[] = {{small_seg}, {huge_seg}};
    EXPECT_EQ(w.value()->send_frames(frames).code(), Errc::kMalformed);
    EXPECT_EQ(w.value()->bytes_sent(), 0u);
    const std::uint8_t next[] = {9};
    ASSERT_TRUE(w.value()->send(next).is_ok());
  }
  EXPECT_EQ(std::filesystem::file_size(path), kFrameHeaderLen + 1);
  auto r = transport::FileReadChannel::open(path);
  ASSERT_TRUE(r.is_ok());
  auto got = r.value()->recv_buf();
  ASSERT_TRUE(got.is_ok()) << got.status().to_string();
  EXPECT_EQ(to_vector(got.value()), std::vector<std::uint8_t>{9});
  EXPECT_EQ(r.value()->recv_buf().status().code(), Errc::kChannelClosed);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace pbio
