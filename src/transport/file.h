// File-based channels: length-prefixed frame logs on disk.
//
// PBIO stands for *Portable Binary I/O* — its original use was writing
// self-describing binary records to files that any machine could read
// later. A FileWriteChannel appends frames to a log; a FileReadChannel
// replays them. The same Writer/Reader stack runs unchanged on top.
//
// Replay uses the same buffered FrameStream as the socket transport: one
// fread fills a pooled stream buffer and every complete frame is sliced
// out of it, so log replay is allocation-free in steady state and
// Reader::next_batch can drain a log in large strides.
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "transport/channel.h"
#include "transport/framing.h"

namespace pbio::transport {

class FileWriteChannel final : public Channel {
 public:
  /// Open (truncate or append) a frame log.
  static Result<std::unique_ptr<FileWriteChannel>> open(
      const std::string& path, bool append = false);
  ~FileWriteChannel() override;

  FileWriteChannel(const FileWriteChannel&) = delete;
  FileWriteChannel& operator=(const FileWriteChannel&) = delete;

  /// One fwrite per length prefix and per segment, into stdio's buffer.
  Status send_frames(std::span<const FrameSegments> frames) override;
  Result<FrameBuf> recv_buf() override;  // always fails
  std::uint64_t bytes_sent() const override { return bytes_sent_; }

  Status flush();

 private:
  explicit FileWriteChannel(std::FILE* f) : file_(f) {}
  std::FILE* file_;
  std::uint64_t bytes_sent_ = 0;
};

class FileReadChannel final : public Channel {
 public:
  static Result<std::unique_ptr<FileReadChannel>> open(
      const std::string& path);
  ~FileReadChannel() override;

  FileReadChannel(const FileReadChannel&) = delete;
  FileReadChannel& operator=(const FileReadChannel&) = delete;

  Status send_frames(
      std::span<const FrameSegments> frames) override;  // always fails
  Result<FrameBuf> recv_buf() override;
  Result<FrameBuf> poll_buf() override;
  std::uint64_t bytes_sent() const override { return 0; }

 private:
  explicit FileReadChannel(std::FILE* f) : file_(f) {}
  std::FILE* file_;
  FrameStream stream_;
};

}  // namespace pbio::transport
