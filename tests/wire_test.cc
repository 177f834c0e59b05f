// The wire layouts of docs/wire.md, written out byte by byte and compared
// against what the library sends. This file spells every kind byte, offset
// and length as a literal and includes none of the library's wire
// definitions directly, so it checks the layout independently of the code
// that builds and parses it.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "obs/tracectx.h"
#include "pbio/pbio.h"

namespace pbio {
namespace {

using Bytes = std::vector<std::uint8_t>;

Bytes cat(std::initializer_list<Bytes> parts) {
  Bytes out;
  for (const Bytes& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

Bytes le64(std::uint64_t v) {
  Bytes out;
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  return out;
}

// docs/wire.md, "Format meta-information": a big-endian record "w" of one
// 4-byte signed integer "a" at offset 0, from an ABI named "t".
const Bytes kMeta = {
    0x01,                    // meta version
    0x01, 0x00, 'w',         // name
    0x01,                    // byte order: big
    0x08,                    // pointer size
    0x04, 0x00, 0x00, 0x00,  // fixed size
    0x01, 0x00, 't',         // arch name
    0x01, 0x00,              // field count
    0x01, 0x00, 'a',         //   field name
    0x00,                    //   base type: int
    0x00, 0x00,              //   subformat name
    0x04, 0x00, 0x00, 0x00,  //   element size
    0x01, 0x00, 0x00, 0x00,  //   static elements
    0x00, 0x00,              //   var-dim field name
    0x00, 0x00, 0x00, 0x00,  //   offset
    0x04, 0x00, 0x00, 0x00,  //   slot size
    0x00, 0x00,              // subformat count
};

// The format id: 64-bit FNV-1a over the meta encoding.
std::uint64_t spec_id(const Bytes& meta) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : meta) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

fmt::FormatDesc spec_format() {
  fmt::FormatDesc f;
  f.name = "w";
  f.byte_order = ByteOrder::kBig;
  f.pointer_size = 8;
  f.fixed_size = 4;
  f.arch_name = "t";
  fmt::FieldDesc a;
  a.name = "a";
  a.base = fmt::BaseType::kInt;
  a.elem_size = 4;
  a.static_elems = 1;
  a.offset = 0;
  a.slot_size = 4;
  f.fields.push_back(a);
  return f;
}

/// Records every frame sent through it and answers each receive with the
/// next canned reply.
class RecordingChannel final : public transport::Channel {
 public:
  Status send_frames(
      std::span<const transport::FrameSegments> frames) override {
    for (const transport::FrameSegments& f : frames) {
      Bytes frame;
      for (const auto& s : f.segments) {
        frame.insert(frame.end(), s.begin(), s.end());
      }
      sent_ += frame.size();
      frames_.push_back(std::move(frame));
    }
    return Status::ok();
  }
  Result<FrameBuf> recv_buf() override {
    if (replies_.empty()) return Status(Errc::kChannelClosed, "no reply");
    FrameBuf buf = BufferPool::shared().lease(replies_.front().size());
    std::memcpy(buf.data(), replies_.front().data(), replies_.front().size());
    replies_.pop_front();
    return buf;
  }
  std::uint64_t bytes_sent() const override { return sent_; }

  std::vector<Bytes> frames_;
  std::deque<Bytes> replies_;

 private:
  std::uint64_t sent_ = 0;
};

bool read_exact(int fd, std::uint8_t* out, std::size_t n) {
  while (n > 0) {
    const ssize_t r = ::recv(fd, out, n, 0);
    if (r <= 0) return false;
    out += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

TEST(Wire, LayoutsMatchTheSpec) {
  const fmt::FormatDesc f = spec_format();
  const std::uint64_t id = spec_id(kMeta);
  ASSERT_EQ(fmt::encode_meta(f), kMeta);

  // A Writer's first sampled write: announcement, trace sidecar, data.
  {
    Context ctx;
    ASSERT_EQ(ctx.register_format(f), id);
    RecordingChannel ch;
    Writer w(ctx, ch);
    const Bytes image = {0x12, 0x34, 0x56, 0x78};
    const std::uint32_t sampling = obs::trace_sampling();
    obs::set_trace_sampling(1000);
    obs::clear_recent_traces();
    ASSERT_TRUE(w.write_image(id, image).is_ok());
    obs::set_trace_sampling(sampling);
    obs::TraceCtx t;
    for (const obs::TraceRecord& r : obs::recent_traces()) {
      if (std::string(r.name) == "pbio.trace.encode") {
        t = {r.trace_id, r.span_id, r.start_ns};
      }
    }
    ASSERT_TRUE(t.valid());
    ASSERT_EQ(ch.frames_.size(), 3u);
    EXPECT_EQ(ch.frames_[0], cat({{0x01}, kMeta}));
    EXPECT_EQ(ch.frames_[1],
              cat({{0x40, 0, 0, 0, 0, 0, 0, 0}, le64(t.trace_id),
                   le64(t.span_id), le64(t.origin_ns)}));
    EXPECT_EQ(ch.frames_[2],
              cat({{0x02, 0, 0, 0, 0, 0, 0, 0}, le64(id), image}));
  }

  // A broker ack, read off the socket with its length prefix.
  {
    Context ctx;
    broker::Config cfg;
    cfg.on_data = broker::OnData::kAck;
    broker::Broker b(ctx, cfg);
    ASSERT_TRUE(b.start().is_ok());
    auto conn = transport::socket_connect(b.port());
    ASSERT_TRUE(conn.is_ok());
    const int fd = conn.value()->fd();
    const Bytes data = cat(
        {{20, 0, 0, 0}, {0x02, 0, 0, 0, 0, 0, 0, 0}, le64(id), {1, 2, 3, 4}});
    ASSERT_EQ(::send(fd, data.data(), data.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(data.size()));
    Bytes ack(20);
    ASSERT_TRUE(read_exact(fd, ack.data(), ack.size()));
    EXPECT_EQ(ack, cat({{16, 0, 0, 0}, {0x30, 0, 0, 0, 0, 0, 0, 0}, le64(id)}));
    b.stop();
  }

  // FormatServiceClient's lookup and register requests.
  {
    RecordingChannel ch;
    FormatServiceClient client(ch);
    ch.replies_ = {{0x2F}, cat({{0x21}, le64(id)})};
    EXPECT_EQ(client.lookup(id).status().code(), Errc::kUnknownFormat);
    auto published = client.publish(f);
    ASSERT_TRUE(published.is_ok());
    EXPECT_EQ(published.value(), id);
    ASSERT_EQ(ch.frames_.size(), 2u);
    EXPECT_EQ(ch.frames_[0], cat({{0x10}, le64(id)}));
    EXPECT_EQ(ch.frames_[1], cat({{0x11}, kMeta}));
  }

  // FormatServiceServer::handle's found, registered and miss replies.
  {
    Context ctx;
    FormatServiceServer server(ctx);
    ByteBuffer reply;
    const auto view = [&reply] {
      return Bytes(reply.view().begin(), reply.view().end());
    };
    ASSERT_TRUE(server.handle(cat({{0x11}, kMeta}), reply).is_ok());
    EXPECT_EQ(view(), cat({{0x21}, le64(id)}));
    ASSERT_TRUE(server.handle(cat({{0x10}, le64(id)}), reply).is_ok());
    EXPECT_EQ(view(), cat({{0x20}, kMeta}));
    ASSERT_TRUE(server.handle(cat({{0x10}, le64(id ^ 1)}), reply).is_ok());
    EXPECT_EQ(view(), Bytes{0x2F});
  }
}

}  // namespace
}  // namespace pbio
