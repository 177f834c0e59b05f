#include "transport/channel.h"

namespace pbio::transport {

Result<FrameBuf> Channel::poll_buf() {
  return Status(Errc::kWouldBlock, "transport does not buffer frames");
}

Status Channel::send(std::span<const std::uint8_t> bytes) {
  return send_gather({&bytes, 1});
}

Status Channel::send_gather(
    std::span<const std::span<const std::uint8_t>> segments) {
  const FrameSegments frame{segments};
  return send_frames({&frame, 1});
}

Result<std::vector<std::uint8_t>> Channel::recv() {
  auto buf = recv_buf();
  if (!buf.is_ok()) return buf.status();
  const FrameBuf& f = buf.value();
  return std::vector<std::uint8_t>(f.data(), f.data() + f.size());
}

}  // namespace pbio::transport
