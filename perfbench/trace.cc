#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

namespace perfbench {

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kWriter: return "pbio.writer";
    case Layer::kSend: return "transport.send";
    case Layer::kReader: return "pbio.reader";
    case Layer::kRecv: return "transport.recv";
    case Layer::kDecode: return "pbio.decode";
    case Layer::kVerify: return "bench.verify";
    case Layer::kCount: break;
  }
  return "?";
}

void SpanLog::reset() {
  spans_.clear();
  std::fill(std::begin(total_), std::end(total_), 0);
  burst_ = 0;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Spans are logged when they end, so an outer span follows its children.
  std::uint64_t origin = UINT64_MAX;
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  const auto ns = [](std::uint64_t ticks) {
    return static_cast<double>(pbio::obs::ticks_to_ns(ticks));
  };
  std::fputs("{\"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"burst\": %u}}%s\n",
                 layer_name(s.layer), static_cast<int>(s.layer),
                 ns(s.start - origin) / 1e3, ns(s.dur) / 1e3,
                 s.burst,
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

namespace {

template <typename F>
auto timed(SpanLog& log, Layer l, F&& f) {
  const std::uint64_t t0 = SpanLog::now();
  auto r = f();
  log.add(l, t0, SpanLog::now());
  return r;
}

}  // namespace

pbio::Status TimedChannel::send(std::span<const std::uint8_t> bytes) {
  return timed(log_, Layer::kSend, [&] { return inner_.send(bytes); });
}

pbio::Status TimedChannel::send_gather(
    std::span<const std::span<const std::uint8_t>> segments) {
  return timed(log_, Layer::kSend,
               [&] { return inner_.send_gather(segments); });
}

pbio::Status TimedChannel::send_frames(
    std::span<const pbio::transport::FrameSegments> frames) {
  return timed(log_, Layer::kSend,
               [&] { return inner_.send_frames(frames); });
}

pbio::Result<std::vector<std::uint8_t>> TimedChannel::recv() {
  return timed(log_, Layer::kRecv, [&] { return inner_.recv(); });
}

pbio::Result<pbio::FrameBuf> TimedChannel::recv_buf() {
  return timed(log_, Layer::kRecv, [&] { return inner_.recv_buf(); });
}

pbio::Result<pbio::FrameBuf> TimedChannel::poll_buf() {
  return timed(log_, Layer::kRecv, [&] { return inner_.poll_buf(); });
}

}  // namespace perfbench
