// Text-table output for the figure reproductions, in the spirit of the
// paper's figures: one row per message size, one column per system or cost
// component. Every bench binary prints these tables to stdout; EXPERIMENTS.md
// records the paper-vs-measured comparison.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "transport/channel.h"
#include "util/stopwatch.h"

namespace pbio::bench {

/// A channel that discards everything — isolates sender-side CPU cost from
/// any transport work when measuring encode times.
class NullChannel final : public transport::Channel {
 public:
  Status send_frames(
      std::span<const transport::FrameSegments> frames) override {
    for (const auto& f : frames) bytes_sent_ += f.size();
    messages_ += frames.size();
    return Status::ok();
  }
  Result<FrameBuf> recv_buf() override {
    return Status(Errc::kChannelClosed, "null channel");
  }
  std::uint64_t bytes_sent() const override { return bytes_sent_; }
  std::uint64_t messages() const { return messages_; }

 private:
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t messages_ = 0;
};

class Table {
 public:
  Table(std::string title, std::vector<std::string> columns)
      : title_(std::move(title)), columns_(std::move(columns)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print(std::ostream& os = std::cout) const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Milliseconds with sensible precision ("0.003", "12.4").
std::string fmt_ms(double ms);
/// Microseconds ("3.2us").
std::string fmt_us(double us);
/// Ratio ("5.2x").
std::string fmt_ratio(double r);
/// Byte counts ("102400").
std::string fmt_bytes(std::uint64_t n);

/// Measure `fn`, returning median milliseconds per call.
template <typename Fn>
double measure_ms(Fn&& fn) {
  return time_operation(std::forward<Fn>(fn)).median_ns / 1e6;
}

/// Shared preamble: prints what figure this binary reproduces.
void print_header(const std::string& figure, const std::string& summary);

}  // namespace pbio::bench
