// Shared pieces of the benchmark driver: clocks, the chunked-rate and
// latency accumulators, the metric list printed at the end, the global
// allocation counter and the host record.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command line of one run (see main.cc for the flags).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

std::uint64_t now_ns();          // steady clock
std::uint64_t process_cpu_ns();  // user + sys of the whole process
std::uint64_t thread_cpu_ns();   // user + sys of the calling thread

/// Heap allocations made by any thread since start (global operator new).
std::uint64_t allocs();

double median(std::vector<double> v);
/// a / b, or 0 when b is 0.
inline double per(double a, double b) { return b == 0 ? 0.0 : a / b; }
/// Value at quantile `q` in [0, 1] of `v` (nearest rank on a sorted copy).
double quantile(std::vector<double> v, double q);

/// Latency samples in nanoseconds, taken in fixed-size segments of
/// consecutive samples. Percentiles are computed within each segment and
/// reported as their medians over the segments, so a few disturbed
/// seconds of a run (host noise hits tails first) do not move the figure;
/// every segment has 20 samples beyond its p99. Memory stays constant.
class Latency {
 public:
  static constexpr std::size_t kSegment = 2000;
  Latency() { cur_.reserve(kSegment); }
  void add(std::uint64_t ns);
  std::uint64_t count() const { return count_; }
  double p50_us() const;
  double p95_us() const;
  double p99_us() const;

 private:
  std::vector<double> cur_;
  std::vector<double> p50_, p95_, p99_;
  std::uint64_t count_ = 0;
};

/// Rates over equal chunks of the timed phase. The caller closes a chunk
/// every fixed number of messages; each chunk yields one msgs/s, MB/s and
/// CPU-per-message reading and the end-to-end figures are their medians.
class Chunks {
 public:
  void begin(std::uint64_t cpu_ns);
  void close(std::uint64_t msgs, std::uint64_t native_bytes,
             std::uint64_t cpu_ns);
  std::size_t size() const { return rate_.size(); }
  double msgs_per_s() const { return median(rate_); }
  double mb_per_s() const { return median(mb_); }
  double cpu_us_per_msg() const { return median(cpu_); }

 private:
  std::uint64_t t0_ = 0;
  std::uint64_t cpu0_ = 0;
  std::vector<double> rate_, mb_, cpu_;
};

/// What a workload run hands back to main(): metric values by name (main
/// owns the list of names and units), operation counts and notes.
struct RunResult {
  std::map<std::string, double> values;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  // printed as "# ..." lines
};

/// Path of `file` in the directory that holds this binary.
std::string beside_binary(const std::string& file);

/// ru_maxrss of this process in MB.
double peak_rss_mb();

/// CPU model, nproc, build type and the PBIO_OBS / PBIO_TVAL switches of
/// this binary, as one JSON object.
std::string host_record(const Options& opt);

/// Sum of on-CPU nanoseconds of the given threads of this process
/// (first field of /proc/self/task/<tid>/schedstat).
std::uint64_t threads_cpu_ns(const std::vector<int>& tids);
/// Thread ids of this process, from /proc/self/task.
std::vector<int> thread_ids();

/// Pin thread `tid` (0: the caller) to the `nth` CPU this process may run
/// on, so runs do not differ by where the scheduler happens to place or
/// migrate the measured threads. No-op when fewer than nth + 1 CPUs are
/// allowed.
void pin_thread(int tid, int nth);

}  // namespace perfbench
