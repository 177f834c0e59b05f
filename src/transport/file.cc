#include "transport/file.h"

#include "obs/span.h"

namespace pbio::transport {

Result<std::unique_ptr<FileWriteChannel>> FileWriteChannel::open(
    const std::string& path, bool append) {
  std::FILE* f = std::fopen(path.c_str(), append ? "ab" : "wb");
  if (f == nullptr) {
    return Status(Errc::kIo, "cannot open '" + path + "' for writing");
  }
  return std::unique_ptr<FileWriteChannel>(new FileWriteChannel(f));
}

FileWriteChannel::~FileWriteChannel() {
  if (file_ != nullptr) std::fclose(file_);
}

Status FileWriteChannel::send_frames(std::span<const FrameSegments> frames) {
  // Check every length before the first fwrite: a refused frame leaves
  // the log as it was.
  for (const FrameSegments& f : frames) {
    Status st = check_frame_len(f.size());
    if (!st.is_ok()) return st;
  }
  for (const FrameSegments& f : frames) {
    const std::size_t len = f.size();
    std::uint8_t header[kFrameHeaderLen];
    encode_frame_header(len, header);
    if (std::fwrite(header, 1, kFrameHeaderLen, file_) != kFrameHeaderLen) {
      return Status(Errc::kIo, "short write to frame log");
    }
    for (const auto& s : f.segments) {
      if (!s.empty() &&
          std::fwrite(s.data(), 1, s.size(), file_) != s.size()) {
        return Status(Errc::kIo, "short write to frame log");
      }
    }
    bytes_sent_ += len;
    OBS_COUNT("transport.file.msgs_out", 1);
    OBS_COUNT("transport.file.bytes_out", kFrameHeaderLen + len);
  }
  return Status::ok();
}

Result<FrameBuf> FileWriteChannel::recv_buf() {
  return Status(Errc::kUnsupported, "write-only channel");
}

Status FileWriteChannel::flush() {
  if (std::fflush(file_) != 0) {
    return Status(Errc::kIo, "flush failed");
  }
  return Status::ok();
}

Result<std::unique_ptr<FileReadChannel>> FileReadChannel::open(
    const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status(Errc::kIo, "cannot open '" + path + "' for reading");
  }
  return std::unique_ptr<FileReadChannel>(new FileReadChannel(f));
}

FileReadChannel::~FileReadChannel() {
  if (file_ != nullptr) std::fclose(file_);
}

Status FileReadChannel::send_frames(std::span<const FrameSegments>) {
  return Status(Errc::kUnsupported, "read-only channel");
}

Result<FrameBuf> FileReadChannel::recv_buf() {
  while (true) {
    FrameBuf frame;
    Status err;
    switch (stream_.next_frame(&frame, &err)) {
      case FrameStream::Pull::kFrame:
        OBS_COUNT("transport.file.msgs_in", 1);
        OBS_COUNT("transport.file.bytes_in", kFrameHeaderLen + frame.size());
        return frame;
      case FrameStream::Pull::kBad:
        // Preserve the log-specific diagnostics of the unbuffered reader.
        return err.code() == Errc::kMalformed
                   ? Status(Errc::kMalformed, "oversized frame in log")
                   : err;
      case FrameStream::Pull::kNeedMore:
        break;
    }
    auto window = stream_.write_window(stream_.fill_hint());
    const std::size_t r = std::fread(window.data(), 1, window.size(), file_);
    if (r == 0) {
      if (stream_.buffered_bytes() == 0) {
        return Status(Errc::kChannelClosed, "end of frame log");
      }
      return stream_.buffered_bytes() < kFrameHeaderLen
                 ? Status(Errc::kTruncated, "truncated frame header")
                 : Status(Errc::kTruncated, "truncated frame body");
    }
    stream_.commit(r);
    OBS_COUNT("transport.file.read_calls", 1);
  }
}

Result<FrameBuf> FileReadChannel::poll_buf() {
  // A log never blocks: every frame is available until the file ends, so
  // polling degrades to the blocking read (batch drains walk the log in
  // stream-buffer strides).
  return recv_buf();
}

}  // namespace pbio::transport
