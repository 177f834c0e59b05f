// The figure reproductions' harness: the one timer (alternating rounds),
// text tables in the spirit of the paper's figures (one row per message
// size, one column per system or cost component) with one time format,
// and one BENCH_*.json writer. EXPERIMENTS.md records the
// paper-vs-measured comparison.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "transport/channel.h"

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

/// A time given in ns, printed in µs in fixed notation with at least
/// three significant digits ("0.0274", "3.21", "1234"); a positive time
/// never prints as zero.
std::string fmt_us(double ns);
/// Ratio ("5.2x").
std::string fmt_ratio(double r);
/// Byte counts ("102400").
std::string fmt_bytes(std::uint64_t n);

/// One JSON object's fields in order, each value already rendered as
/// JSON (std::to_string, json_num, json_str, "true"/"false", a document).
using JsonFields = std::vector<std::pair<std::string, std::string>>;
std::string json_num(double v, int decimals);
std::string json_str(std::string_view s);

/// Writes `path` as {"bench", "host": {cpu_model, nproc, build_type},
/// <params>, "rows": [...]}; false when the file cannot be written.
bool write_bench_json(const std::string& path, std::string_view bench,
                      const JsonFields& params,
                      const std::vector<JsonFields>& rows);

/// Monotonic stopwatch: the harness's one clock.
class Stopwatch {
 public:
  void reset() { start_ = clock::now(); }
  std::uint64_t elapsed_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                             start_)
            .count());
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_ = clock::now();
};

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
/// scheduler noise, and median_ratio() for a ratio between two of them.
/// This is the one timer behind every figure, table and perf invariant.
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
