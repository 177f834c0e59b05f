#include "common.h"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <new>

// Every heap allocation of the process goes through these replacements, so
// alloc.per_msg counts library, broker and bench allocations alike.
namespace {

std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(n != 0 ? n : 1);
  } else if (posix_memalign(&p, align, n != 0 ? n : 1) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, 0);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return operator new(n, t);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {
std::uint64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
}  // namespace

std::uint64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::uint64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

std::uint64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto k =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(k, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

void Latency::add(std::uint64_t ns) {
  ++count_;
  cur_.push_back(static_cast<double>(ns) / 1e3);
  if (cur_.size() < kSegment) return;
  p50_.push_back(quantile(cur_, 0.50));
  p95_.push_back(quantile(cur_, 0.95));
  p99_.push_back(quantile(cur_, 0.99));
  cur_.clear();
}

// A run too short for one whole segment reports its partial segment.
double Latency::p50_us() const {
  return p50_.empty() ? quantile(cur_, 0.50) : median(p50_);
}

double Latency::p95_us() const {
  return p95_.empty() ? quantile(cur_, 0.95) : median(p95_);
}

double Latency::p99_us() const {
  return p99_.empty() ? quantile(cur_, 0.99) : median(p99_);
}

void Chunks::begin(std::uint64_t cpu_ns) {
  t0_ = now_ns();
  cpu0_ = cpu_ns;
}

void Chunks::close(std::uint64_t msgs, std::uint64_t native_bytes,
                   std::uint64_t cpu_ns) {
  const std::uint64_t t = now_ns();
  const double secs = static_cast<double>(t - t0_) / 1e9;
  if (msgs > 0 && secs > 0) {
    rate_.push_back(static_cast<double>(msgs) / secs);
    mb_.push_back(static_cast<double>(native_bytes) / 1e6 / secs);
    cpu_.push_back(static_cast<double>(cpu_ns - cpu0_) / 1e3 /
                   static_cast<double>(msgs));
  }
  t0_ = t;
  cpu0_ = cpu_ns;
}

std::string beside_binary(const std::string& file) {
  char self[4096];
  const ssize_t n = readlink("/proc/self/exe", self, sizeof self - 1);
  std::string dir = n > 0 ? std::string(self, static_cast<std::size_t>(n)) : "";
  const auto slash = dir.rfind('/');
  dir = slash == std::string::npos ? "." : dir.substr(0, slash);
  return dir + "/" + file;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string host_record(const Options& opt) {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        cpu = line.substr(colon + 1);
        cpu.erase(0, cpu.find_first_not_of(' '));
      }
      break;
    }
  }
  for (char& c : cpu) {
    if (c == '"' || c == '\\') c = ' ';
  }
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
                "\"trace\": %d, \"cpu_model\": \"%s\", \"nproc\": %ld, "
                "\"build_type\": \"%s\", \"PBIO_OBS\": %d, \"PBIO_TVAL\": %d}",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0, cpu.c_str(), sysconf(_SC_NPROCESSORS_ONLN),
                PERFBENCH_BUILD_TYPE, PERFBENCH_OBS, PERFBENCH_TVAL);
  return buf;
}

std::uint64_t threads_cpu_ns(const std::vector<int>& tids) {
  std::uint64_t sum = 0;
  for (int tid : tids) {
    char path[64];
    std::snprintf(path, sizeof path, "/proc/self/task/%d/schedstat", tid);
    std::FILE* f = std::fopen(path, "r");
    if (f == nullptr) continue;
    unsigned long long ns = 0;
    if (std::fscanf(f, "%llu", &ns) == 1) sum += ns;
    std::fclose(f);
  }
  return sum;
}

std::vector<int> thread_ids() {
  std::vector<int> ids;
  DIR* d = opendir("/proc/self/task");
  if (d == nullptr) return ids;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] >= '0' && e->d_name[0] <= '9') {
      ids.push_back(std::atoi(e->d_name));
    }
  }
  closedir(d);
  std::sort(ids.begin(), ids.end());
  return ids;
}

void pin_thread(int tid, int nth) {
  // The process's CPU set as it was before any pinning.
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    if (seen++ == nth) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      sched_setaffinity(tid, sizeof(one), &one);
      return;
    }
  }
}

}  // namespace perfbench
