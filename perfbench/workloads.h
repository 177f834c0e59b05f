// The workloads. Each builds its inputs from the seed, sets the system up
// several times (setup_s is the median), warms up, runs the timed phase
// and, in a traced run, a second phase with bench-side spans.
#pragma once

#include <utility>
#include <vector>

#include "common.h"
#include "fmt/format.h"
#include "util/pool.h"

namespace perfbench {

/// Set-ups per run; setup_s reports their median. Set-up is about half a
/// millisecond of CPU, and the host's speed shifts by up to a third every
/// few tens of milliseconds, so set-ups made back to back all see one host
/// state. An untraced run therefore splits its timed phase into kSetupReps
/// slices and times one set-up after each, so the median sees the host as
/// the rates do. A traced run reports no setup_s and runs its phase whole,
/// so the counters read around it count only the workload.
inline constexpr int kSetupReps = 41;

RunResult run_hetero_bulk(const Options& opt);
RunResult run_broker_echo(const Options& opt);

/// Length of one timed phase: all of --seconds, or half of it in a traced
/// run, whose other half runs traced.
inline std::uint64_t phase_ns(const Options& opt) {
  return static_cast<std::uint64_t>(opt.seconds * 1e9 / (opt.trace ? 2 : 1));
}

/// Slices of the timed phase, each followed by one timed set-up.
inline int setup_slices(const Options& opt) {
  return opt.trace ? 1 : kSetupReps;
}

/// Shares of leases served from a freelist between two pool snapshots.
double hit_rate(const pbio::BufferPool::Stats& before,
                const pbio::BufferPool::Stats& after);

/// The end-to-end metrics every workload reports from its timed phase
/// (peak_rss_mb and verified_share are added by main()).
void report_end_to_end(RunResult& res, const Chunks& chunks,
                       const Latency& lat, const std::vector<double>& setup_s);

/// (wire format, native format)
using FormatPair = std::pair<pbio::fmt::FormatDesc, pbio::fmt::FormatDesc>;

/// Median over three fresh Contexts of the mean µs of the first
/// try_conversion per (wire, native) pair: plan + verify + JIT + tval.
double compile_us_per_pair(const std::vector<FormatPair>& pairs);

}  // namespace perfbench
