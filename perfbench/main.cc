// Repository benchmark driver.
//
//   pbio_perfbench --workload hetero_bulk|broker_echo
//                  --seed N --seconds S --trace 0|1
//
// Prints every metric by name with its unit, a "# host" line recording the
// seed, CPU model, nproc, build type, PBIO_OBS and PBIO_TVAL, and as the
// last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones;
// a traced run also writes its spans to trace_<workload>.json beside the
// binary.
// Exits 1 when any operation failed or a reference compare mismatched.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <span>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"msgs_per_s", "msg/s"},      {"payload_mb_per_s", "MB/s"},
    {"cpu_us_per_msg", "us"},     {"lat_p50_us", "us"},
    {"lat_p95_us", "us"},         {"setup_s", "s"},
    {"peak_rss_mb", "MB"},        {"verified_share", "ratio"},
};

// A layer metric a workload does not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"pbio.writer.ns_per_msg", "ns"},
    {"transport.send_ns_per_msg", "ns"},
    {"transport.recv_ns_per_msg", "ns"},
    {"transport.send_floor_ratio", "ratio"},
    {"pbio.reader.ns_per_msg", "ns"},
    {"pbio.reader.msgs_per_batch", "count"},
    {"pbio.decode.ns_per_msg", "ns"},
    {"pbio.decode.memcpy_ratio", "ratio"},
    {"cache.compiles", "count"},
    {"cache.compile_us_per_pair", "us"},
    {"cache.l1_hits_per_msg", "count"},
    {"util.pool.hit_rate", "ratio"},
    {"alloc.per_msg", "count"},
    {"broker.syscalls_per_msg", "count"},
    {"broker.recv_syscalls_per_msg", "count"},
    {"broker.send_syscalls_per_msg", "count"},
    {"broker.worker_cpu_us_per_msg", "us"},
    {"broker.loadgen_cpu_us_per_msg", "us"},
    {"broker.decoded_share", "ratio"},
    {"broker.pool_hit_rate", "ratio"},
    {"broker.rtt_floor_ratio", "ratio"},
    {"floor.memcpy_mb_per_s", "MB/s"},
    {"floor.writev_ns", "ns"},
    {"floor.tcp_rtt_us", "us"},
    {"bench.lat_p99_us", "us"},
    {"bench.verify_ns_per_msg", "ns"},
    {"bench.residual_share", "ratio"},
    {"bench.trace_overhead_share", "ratio"},
};

int usage() {
  std::fprintf(stderr,
               "usage: pbio_perfbench --workload hetero_bulk|broker_echo "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

int run(const Options& opt) {
  RunResult r;
  if (opt.workload == "hetero_bulk") {
    r = run_hetero_bulk(opt);
  } else if (opt.workload == "broker_echo") {
    r = run_broker_echo(opt);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
    return 2;
  }
  if (!opt.trace) {
    r.values["peak_rss_mb"] = peak_rss_mb();
    r.values["verified_share"] =
        per(static_cast<double>(r.attempted - r.failed), r.attempted);
  }
  std::printf("# host %s\n", host_record(opt).c_str());
  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  std::string json = "{";
  bool first = true;
  const std::span<const MetricDef> defs =
      opt.trace ? std::span<const MetricDef>(kPerLayer)
                : std::span<const MetricDef>(kEndToEnd);
  for (const MetricDef& m : defs) {
    const double v = r.values.count(m.name) != 0 ? r.values[m.name] : 0.0;
    std::printf("%-34s %18.6f %s\n", m.name, v, m.unit);
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, v, m.unit);
    json += buf;
    first = false;
  }
  json += "}";
  const bool correct = r.failed == 0 && r.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* k = argv[i];
    const char* v = argv[i + 1];
    if (std::strcmp(k, "--workload") == 0) {
      opt.workload = v;
    } else if (std::strcmp(k, "--seed") == 0) {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (std::strcmp(k, "--seconds") == 0) {
      opt.seconds = std::strtod(v, nullptr);
    } else if (std::strcmp(k, "--trace") == 0) {
      opt.trace = std::strcmp(v, "0") != 0;
    } else {
      return perfbench::usage();
    }
  }
  if (argc % 2 != 1 || opt.workload.empty() || !(opt.seconds > 0)) {
    return perfbench::usage();
  }
  // The measured thread stays on one CPU for the whole run; threads it
  // starts inherit that CPU.
  perfbench::pin_thread(0, 1);
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pbio_perfbench: %s\n", e.what());
    return 1;
  }
}
