#include "baselines/mpilite/comm.h"

#include "util/endian.h"

namespace pbio::mpilite {

Status Comm::send(const Datatype& t, const void* buf, std::uint32_t count,
                  std::uint32_t tag) {
  pack_buf_.clear();
  pack_buf_.append_uint(tag, 4, ByteOrder::kBig);
  pack_buf_.append_uint(count, 4, ByteOrder::kBig);
  Status st = pack(t, buf, count, pack_buf_);
  if (!st.is_ok()) return st;
  return channel_.send(pack_buf_.view());
}

Status Comm::recv(const Datatype& t, void* buf, std::size_t buf_size,
                  std::uint32_t count, std::uint32_t expected_tag) {
  auto msg = channel_.recv_buf();
  if (!msg.is_ok()) return msg.status();
  const auto bytes = msg.value().view();
  if (bytes.size() < 8) {
    return Status(Errc::kTruncated, "mpilite: short envelope");
  }
  const std::uint64_t tag = load_uint(bytes.data(), 4, ByteOrder::kBig);
  const std::uint64_t n = load_uint(bytes.data() + 4, 4, ByteOrder::kBig);
  if (tag != expected_tag) {
    return Status(Errc::kTypeMismatch, "mpilite: tag mismatch");
  }
  if (n != count) {
    return Status(Errc::kTypeMismatch, "mpilite: count mismatch");
  }
  return unpack(t, bytes.subspan(8), buf, buf_size, count);
}

}  // namespace pbio::mpilite
