// Bench-side tracing for the traced run: a timing Channel decorator and an
// in-memory span log. Nothing here reaches into the library; every span
// wraps a call into a public pbio function.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "obs/obs.h"
#include "transport/channel.h"

namespace perfbench {

/// Layers a span can belong to, named after the repository's modules.
enum class Layer : std::uint8_t {
  kWriter,     // pbio: Writer::write / write_image (includes kSend)
  kSend,       // transport: Channel send_gather / send_frames / send
  kReader,     // pbio: Reader::next_batch (includes kRecv)
  kRecv,       // transport: Channel recv_buf / poll_buf / recv
  kDecode,     // pbio/convert/vcode: Message::decode_into
  kVerify,     // bench: reference compare
  kCount
};

const char* layer_name(Layer l);

/// Spans of a traced run. Time per layer is summed for every span; the
/// first `capacity` spans are also kept and written out at the end as a
/// Chrome trace (chrome://tracing, Perfetto), one track per layer. Spans
/// are stamped in TSC ticks (obs::ticks), a few ns per read, because the
/// stream workloads' messages cost well under a microsecond.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity) {
    spans_.reserve(capacity);
    pbio::obs::calibrate();
  }

  static std::uint64_t now() { return pbio::obs::ticks(); }

  /// Spans added from now on belong to a new burst (one id per burst).
  void begin_burst() { ++burst_; }

  void add(Layer l, std::uint64_t start, std::uint64_t end) {
    total_[static_cast<int>(l)] += end - start;
    if (spans_.size() < spans_.capacity()) {
      spans_.push_back({start, end - start, burst_, l});
    }
  }

  /// Close the span of `l` that began at `t`; `t` becomes its end, where
  /// the next span begins. Back-to-back spans leave no untimed gap.
  void lap(Layer l, std::uint64_t& t) {
    const std::uint64_t end = now();
    add(l, t, end);
    t = end;
  }

  /// Forget everything recorded so far (keeps the capacity).
  void reset();
  std::uint64_t total_ns(Layer l) const {
    return pbio::obs::ticks_to_ns(total_[static_cast<int>(l)]);
  }

  /// Write the kept spans to `path`; false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t start;  // ticks
    std::uint64_t dur;    // ticks
    std::uint32_t burst;  // spans of one burst share this id
    Layer layer;
  };
  std::vector<Span> spans_;
  std::uint64_t total_[static_cast<int>(Layer::kCount)] = {};  // ticks
  std::uint32_t burst_ = 0;
};

/// Channel decorator timing every send into Layer::kSend and every receive
/// into Layer::kRecv of `log`.
class TimedChannel final : public pbio::transport::Channel {
 public:
  TimedChannel(pbio::transport::Channel& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  pbio::Status send(std::span<const std::uint8_t> bytes) override;
  pbio::Status send_gather(
      std::span<const std::span<const std::uint8_t>> segments) override;
  pbio::Status send_frames(
      std::span<const pbio::transport::FrameSegments> frames) override;
  pbio::Result<std::vector<std::uint8_t>> recv() override;
  pbio::Result<pbio::FrameBuf> recv_buf() override;
  pbio::Result<pbio::FrameBuf> poll_buf() override;
  std::uint64_t bytes_sent() const override { return inner_.bytes_sent(); }

 private:
  pbio::transport::Channel& inner_;
  SpanLog& log_;
};

}  // namespace perfbench
