// Text-table output for the figure reproductions, in the spirit of the
// paper's figures: one row per message size, one column per system or cost
// component. Every bench binary prints these tables to stdout; EXPERIMENTS.md
// records the paper-vs-measured comparison.
#pragma once

#include <algorithm>
#include <array>
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
/// Microseconds to four decimals, unitless ("0.0274").
std::string fmt_us4(double us);
/// Ratio ("5.2x").
std::string fmt_ratio(double r);
/// Byte counts ("102400").
std::string fmt_bytes(std::uint64_t n);

/// Measure `fn`, returning median milliseconds per call.
template <typename Fn>
double measure_ms(Fn&& fn) {
  return time_operation(std::forward<Fn>(fn)).median_ns / 1e6;
}

/// ns per call of `fn`, over `reps` back-to-back calls.
template <typename Fn>
double per_call_ns(Fn& fn, std::size_t reps) {
  Stopwatch sw;
  for (std::size_t i = 0; i < reps; ++i) fn();
  return static_cast<double>(sw.elapsed_ns()) / static_cast<double>(reps);
}

/// Median of `v` (the upper middle value for an even count).
double median(std::vector<double> v);

/// Median over rounds of num[r] / den[r], for two series of
/// alternating_rounds_ns(): each ratio pairs times from the same round.
double median_ratio(const std::vector<double>& num,
                    const std::vector<double>& den);

/// Rounds of alternating_rounds_ns(), and the length of one batch.
inline constexpr int kRounds = 21;
inline constexpr double kBatchNs = 200'000;

/// Times `fns` against each other in alternating rounds: a round is one
/// batch of back-to-back calls per function, each batch long enough
/// (kBatchNs, sized from a warm-up) to dwarf the clock's resolution, and
/// the order of the batches reverses every round so any drift spreads
/// over all of them. Returns ns per call, one per-round vector per
/// function in argument order; take medians over the rounds to shed
/// scheduler noise.
template <typename... Fns>
std::array<std::vector<double>, sizeof...(Fns)> alternating_rounds_ns(
    Fns&... fns) {
  constexpr std::size_t n = sizeof...(Fns);
  std::array<std::size_t, n> reps{};
  std::size_t at = 0;
  ((reps[at++] = static_cast<std::size_t>(std::max(
        1.0, kBatchNs / std::max(per_call_ns(fns, 64), 1.0)))),
   ...);
  std::array<std::vector<double>, n> ns;
  for (int r = 0; r < kRounds; ++r) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t k = r % 2 == 0 ? j : n - 1 - j;
      at = 0;
      ((at++ == k ? ns[k].push_back(per_call_ns(fns, reps[k])) : void()),
       ...);
    }
  }
  return ns;
}

/// Shared preamble: prints what figure this binary reproduces.
void print_header(const std::string& figure, const std::string& summary);

}  // namespace pbio::bench
