// Wire-path observability: a process-wide metrics registry with per-thread
// lock-free counters and power-of-2-ns histograms, aggregated on snapshot.
//
// Hot-path contract: recording a counter or histogram sample touches only
// this thread's slab — no atomics RMW, no locks, no allocation. The
// registration side (naming a metric, first use on a thread) takes a mutex
// once and is strictly cold. Snapshots aggregate the retired totals plus
// every live thread slab under the same mutex; in-flight increments may or
// may not be visible (monotonic counters, torn-free via relaxed
// std::atomic_ref), so a snapshot taken after the producing threads joined
// is exact.
//
// Counters owned by one object (a pool, a cache, a broker) live in a
// CounterBlock: one store behind both its stats() view and snapshot().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pbio::obs {

using MetricId = std::uint32_t;

/// "No metric": callers with an optional histogram/counter hook pass this
/// to mean "don't record" (recording APIs must never see it).
inline constexpr MetricId kInvalidMetric = ~MetricId{0} - 1;

inline constexpr std::uint32_t kMaxCounters = 256;
inline constexpr std::uint32_t kMaxHistograms = 64;
/// Bucket 0 holds the value 0; bucket i (i >= 1) holds values in
/// [2^(i-1), 2^i). 64 buckets cover the full uint64 ns range.
inline constexpr std::uint32_t kHistBuckets = 64;

/// Register (or look up) a counter / histogram by name. Idempotent; the
/// returned id is stable for the process lifetime. Exceeding kMaxCounters /
/// kMaxHistograms aliases everything onto a sink slot (never crashes).
MetricId counter(std::string_view name);
MetricId histogram(std::string_view name);

/// Hot-path recording. `counter_add` bumps this thread's slot; `
/// histogram_record` files `ns` into its power-of-2 bucket and maintains
/// per-metric count and sum.
void counter_add(MetricId id, std::uint64_t v);
void histogram_record(MetricId id, std::uint64_t ns);

/// Bucket index for a nanosecond value (exposed for tests).
constexpr std::uint32_t hist_bucket(std::uint64_t ns) {
  if (ns == 0) return 0;
  std::uint32_t b = 0;
  while (ns != 0) {
    ns >>= 1;
    ++b;
  }
  return b < kHistBuckets ? b : kHistBuckets - 1;
}

/// Inclusive upper bound of a bucket, for percentile reporting.
constexpr std::uint64_t hist_bucket_upper(std::uint32_t bucket) {
  if (bucket == 0) return 0;
  if (bucket >= 64) return ~std::uint64_t{0};
  return (std::uint64_t{1} << bucket) - 1;
}

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct HistogramSample {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum_ns = 0;
  std::array<std::uint64_t, kHistBuckets> buckets{};

  double mean_ns() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum_ns) / static_cast<double>(count);
  }
  /// Percentile estimate (0 < p <= 1): linear interpolation within the
  /// power-of-2 bucket where the cumulative count crosses p, assuming the
  /// samples inside a bucket are uniformly spread over its [2^(b-1), 2^b)
  /// range. Exact for bucket boundaries; bounded by the bucket's own
  /// bounds otherwise (the old upper-bound report could read up to 2x
  /// high for a p99 sitting at the bottom of its bucket).
  std::uint64_t percentile_ns(double p) const;
};

/// A consistent, name-sorted view of every registered metric.
struct Snapshot {
  std::vector<CounterSample> counters;
  std::vector<HistogramSample> histograms;

  const CounterSample* find_counter(std::string_view name) const;
  const HistogramSample* find_histogram(std::string_view name) const;
};

Snapshot snapshot();

/// Zero every slot (live slabs, live counter blocks and retired totals),
/// so the stats() views over counter blocks restart from zero too. Racy
/// against concurrent writers by design — tools and tests call it between
/// quiescent phases.
void reset();

/// A fixed set of monotonic counters owned by one object: the single store
/// behind that owner's stats() view and behind the series of the same
/// names in snapshot(). Owners index it with a local enum in name order.
///
/// add() is one relaxed fetch_add, callable from any thread. snapshot()
/// adds every live block to its names' totals; a destroyed block's values
/// move into the retired totals (as an exited thread's slab does), so a
/// series keeps counting across owner lifetimes while get() reads only
/// this owner's share. Construction and destruction take the registry
/// mutex once. Names past kMaxCounters alias onto the sink slot.
// thread-domain: any
class CounterBlock {
 public:
  CounterBlock(std::initializer_list<std::string_view> names);
  ~CounterBlock();

  CounterBlock(const CounterBlock&) = delete;
  CounterBlock& operator=(const CounterBlock&) = delete;

  void add(std::size_t i, std::uint64_t v) {
    slots_[i].fetch_add(v, std::memory_order_relaxed);  // mo: independent monotonic counter; readers promise no cross-counter consistency
  }
  std::uint64_t get(std::size_t i) const {
    return slots_[i].load(std::memory_order_relaxed);  // mo: see add()
  }

 private:
  friend Snapshot snapshot();
  friend void reset();

  std::vector<MetricId> ids_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots_;
};

/// JSON exporter: {"counters": {...}, "histograms": {...}}. Histogram
/// bucket arrays are trimmed after the last non-zero bucket.
std::string to_json(const Snapshot& snap);

/// Inverse of to_json for the exact shape it emits (the `pbio_stat
/// --watch --from <file>` channel reading a live broker's periodic dumps
/// — not a general JSON parser). Escaped characters in metric names are
/// limited to to_json's repertoire. Returns false on malformed input,
/// leaving *out unspecified.
bool snapshot_from_json(std::string_view json, Snapshot* out);

/// Small dense id (1, 2, ...) for the calling thread — used as the trace
/// "tid" and stable for the thread's lifetime.
std::uint32_t thread_tid();

/// Name the calling thread for trace exports (the Perfetto thread_name
/// metadata event). Cold path; idempotent, last call wins. Names survive
/// the thread itself so an end-of-process trace flush can still label it.
void set_thread_name(std::string_view name);

/// Name recorded for dense thread id `tid`, empty if never named.
std::string thread_name(std::uint32_t tid);

// --- timing -----------------------------------------------------------------

/// Raw timestamp: rdtsc on x86-64, steady_clock ns elsewhere.
std::uint64_t ticks();

/// Convert a tick *delta* to nanoseconds. Calibrated lazily (first span
/// site or first explicit calibrate() call).
std::uint64_t ticks_to_ns(std::uint64_t delta);

/// One-time TSC-vs-steady_clock calibration (~2 ms busy measurement).
/// Idempotent and thread-safe; span sites call it from their cold
/// constructor so the record path never checks.
void calibrate();

}  // namespace pbio::obs
