// pbio_stat — observability snapshot viewer.
//
// Default mode runs a canned loopback workload through the full wire path
// (announce, encode, transport, decode via both engines, identity fast
// path) and prints the observability snapshot. Doubles as the exporters'
// smoke test: --json emits the obs::to_json snapshot, and setting
// PBIO_TRACE=<file> in the environment records a chrome://tracing /
// Perfetto trace of the run.
//
// With --from it instead renders a snapshot dumped by another process —
// a running broker (Config::stats_file) rewrites its obs::to_json
// periodically, and `pbio_stat --watch 2 --from /tmp/broker.json` tails it
// from a second terminal, refreshing every 2 seconds with derived
// pbio.broker.* gauges (live connections, per-interval message rate).
//
//   pbio_stat [--json] [--prom] [--messages N] [--from FILE] [--watch SEC]
//     --json        print the JSON snapshot instead of the human tables
//     --prom        print the Prometheus text exposition (what a broker's
//                   /metrics endpoint serves) instead of the human tables
//     --messages N  messages per (size, direction) cell (default 64)
//     --from FILE   render FILE (an obs::to_json dump) instead of running
//                   the canned workload
//     --watch SEC   with --from: clear the screen and re-render every SEC
//                   seconds until interrupted
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_support/harness.h"
#include "bench_support/workload.h"
#include "obs/obs.h"
#include "obs/prom.h"
#include "pbio/pbio.h"
#include "transport/loopback.h"

namespace pbio {
namespace {

void run_cell(bench::Size s, const arch::Abi& src, const arch::Abi& dst,
              int messages) {
  Context ctx;
  auto [wch, rch] = transport::make_loopback_pair();
  bench::Workload w = bench::make_workload(s, src, dst);
  const auto wire_id = ctx.register_format(w.src_fmt);
  const auto native_id = ctx.register_format(w.dst_fmt);
  Writer writer(ctx, *wch);
  Reader reader(ctx, *rch);
  reader.expect(native_id);

  std::vector<std::uint8_t> out(w.dst_fmt.fixed_size);
  for (int i = 0; i < messages; ++i) {
    if (!writer.write_image(wire_id, w.src_image).is_ok()) return;
    auto msg = reader.next();
    if (!msg.is_ok()) return;
    // The pair's first message interprets and later ones run generated
    // code, so the snapshot shows both engines (identity pairs count
    // fast-path hits instead).
    (void)msg.value().decode_into(out.data(), out.size());
  }
}

std::uint64_t counter_or_zero(const obs::Snapshot& snap, const char* name) {
  const obs::CounterSample* c = snap.find_counter(name);
  return c == nullptr ? 0 : c->value;
}

/// A broker's snapshot carries monotonic pbio.broker.* counters; the live
/// gauges a watcher actually wants are derived pairs.
void render_broker(const obs::Snapshot& snap, const obs::Snapshot* prev,
                   double interval_s) {
  const std::uint64_t accepted = counter_or_zero(snap, "pbio.broker.accepted");
  if (accepted == 0 &&
      counter_or_zero(snap, "pbio.broker.frames_in") == 0) {
    return;  // no broker metrics in this snapshot
  }
  const std::uint64_t closed = counter_or_zero(snap, "pbio.broker.closed");
  const std::uint64_t shed =
      counter_or_zero(snap, "pbio.broker.shed_connections");
  const std::uint64_t live =
      accepted >= closed + shed ? accepted - closed - shed : 0;
  std::printf("\nBroker: %llu connections live (%llu accepted, %llu closed, "
              "%llu shed)\n",
              static_cast<unsigned long long>(live),
              static_cast<unsigned long long>(accepted),
              static_cast<unsigned long long>(closed),
              static_cast<unsigned long long>(shed));
  if (prev != nullptr && interval_s > 0) {
    const std::uint64_t df =
        counter_or_zero(snap, "pbio.broker.frames_in") -
        counter_or_zero(*prev, "pbio.broker.frames_in");
    const std::uint64_t db = counter_or_zero(snap, "pbio.broker.bytes_in") -
                             counter_or_zero(*prev, "pbio.broker.bytes_in");
    std::printf("        %.0f frames/s in, %.1f MB/s in (last interval)\n",
                static_cast<double>(df) / interval_s,
                static_cast<double>(db) / interval_s / 1e6);
  }
}

void render(const obs::Snapshot& snap, const obs::Snapshot* prev,
            double interval_s) {
  bench::Table counters("Counters", {"metric", "value"});
  for (const auto& c : snap.counters) {
    counters.add_row({c.name, std::to_string(c.value)});
  }
  counters.print();

  bench::Table spans("Span histograms (us)",
                     {"span", "count", "mean", "p50<=", "p99<=", "total"});
  for (const auto& h : snap.histograms) {
    if (h.count == 0) continue;
    spans.add_row({h.name, std::to_string(h.count),
                   bench::fmt_us(h.mean_ns()),
                   bench::fmt_us(static_cast<double>(h.percentile_ns(0.5))),
                   bench::fmt_us(static_cast<double>(h.percentile_ns(0.99))),
                   bench::fmt_us(static_cast<double>(h.sum_ns))});
  }
  spans.print();
  render_broker(snap, prev, interval_s);
}

int run_from_file(const std::string& path, bool json, bool prom,
                  int watch_sec) {
  obs::Snapshot prev;
  bool have_prev = false;
  while (true) {
    std::FILE* f = std::fopen(path.c_str(), "r");
    if (f == nullptr) {
      std::fprintf(stderr, "pbio_stat: cannot open %s\n", path.c_str());
      if (watch_sec <= 0) return 1;
      std::this_thread::sleep_for(std::chrono::seconds(watch_sec));
      continue;
    }
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);

    obs::Snapshot snap;
    if (!obs::snapshot_from_json(text, &snap)) {
      std::fprintf(stderr, "pbio_stat: %s is not an obs snapshot\n",
                   path.c_str());
      if (watch_sec <= 0) return 1;
      std::this_thread::sleep_for(std::chrono::seconds(watch_sec));
      continue;
    }
    if (json) {
      std::printf("%s\n", obs::to_json(snap).c_str());
    } else if (prom) {
      std::printf("%s", obs::to_prometheus(snap).c_str());
    } else {
      if (watch_sec > 0) std::printf("\x1b[2J\x1b[H");  // clear, home
      std::printf("%s (refresh %ds, ctrl-c to stop)\n", path.c_str(),
                  watch_sec);
      render(snap, have_prev ? &prev : nullptr,
             static_cast<double>(watch_sec));
      std::fflush(stdout);
    }
    if (watch_sec <= 0) return 0;
    prev = std::move(snap);
    have_prev = true;
    std::this_thread::sleep_for(std::chrono::seconds(watch_sec));
  }
}

int run_canned(bool json, bool prom, int messages) {
  // Canned workload: every size, a heterogeneous direction (x86 wire into
  // x86-64 native: swaps-free but size-changing conversion) and a
  // homogeneous one (identity, the zero-copy path).
  for (bench::Size s : bench::all_sizes()) {
    run_cell(s, arch::abi_x86(), arch::abi_x86_64(), messages);
    run_cell(s, arch::abi_x86_64(), arch::abi_x86_64(), messages);
  }

  const obs::Snapshot snap = obs::snapshot();
  if (json) {
    std::printf("%s\n", obs::to_json(snap).c_str());
    return 0;
  }
  if (prom) {
    std::printf("%s", obs::to_prometheus(snap).c_str());
    return 0;
  }

  render(snap, nullptr, 0.0);
  std::printf(
      "\np50/p99 interpolate within power-of-2 buckets. Set PBIO_TRACE=out.json "
      "to record\na chrome://tracing / Perfetto trace of this workload.\n");
  return 0;
}

}  // namespace
}  // namespace pbio

int main(int argc, char** argv) {
  bool json = false;
  bool prom = false;
  int messages = 64;
  int watch_sec = 0;
  std::string from;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--prom") == 0) {
      prom = true;
    } else if (std::strcmp(argv[i], "--messages") == 0 && i + 1 < argc) {
      messages = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
      if (messages <= 0) messages = 1;
    } else if (std::strcmp(argv[i], "--from") == 0 && i + 1 < argc) {
      from = argv[++i];
    } else if (std::strcmp(argv[i], "--watch") == 0 && i + 1 < argc) {
      watch_sec = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
      if (watch_sec <= 0) watch_sec = 1;
    } else {
      std::fprintf(stderr,
                   "usage: pbio_stat [--json] [--prom] [--messages N] "
                   "[--from FILE] [--watch SEC]\n");
      return 2;
    }
  }
  if (watch_sec > 0 && from.empty()) {
    std::fprintf(stderr, "pbio_stat: --watch needs --from FILE (a broker's "
                         "stats_file dump)\n");
    return 2;
  }
  if (!from.empty()) return pbio::run_from_file(from, json, prom, watch_sec);
  return pbio::run_canned(json, prom, messages);
}
