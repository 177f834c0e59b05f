#include "workloads.h"

#include "pbio/context.h"

namespace perfbench {

using pbio::Context;

double hit_rate(const pbio::BufferPool::Stats& before,
                const pbio::BufferPool::Stats& after) {
  const std::uint64_t hits = after.hits - before.hits;
  return per(static_cast<double>(hits),
             static_cast<double>(hits + (after.misses - before.misses) +
                                 (after.oversize - before.oversize)));
}

void report_end_to_end(RunResult& res, const Chunks& chunks,
                       const Latency& lat, const std::vector<double>& setup_s) {
  res.values["msgs_per_s"] = chunks.msgs_per_s();
  res.values["payload_mb_per_s"] = chunks.mb_per_s();
  res.values["cpu_us_per_msg"] = chunks.cpu_us_per_msg();
  res.values["lat_p50_us"] = lat.p50_us();
  res.values["lat_p95_us"] = lat.p95_us();
  res.values["setup_s"] = median(setup_s);
}

double compile_us_per_pair(const std::vector<FormatPair>& pairs) {
  std::vector<double> reps;
  for (int r = 0; r < 3; ++r) {
    Context ctx;
    std::vector<std::pair<Context::FormatId, Context::FormatId>> ids;
    for (const auto& [wire, native] : pairs) {
      ids.emplace_back(ctx.register_format(wire),
                       ctx.register_format(native));
    }
    const std::uint64_t t0 = now_ns();
    for (const auto& [w, n] : ids) {
      if (!ctx.try_conversion(w, n).is_ok()) return 0.0;
    }
    reps.push_back(static_cast<double>(now_ns() - t0) / 1e3 /
                   static_cast<double>(ids.size()));
  }
  return median(std::move(reps));
}

}  // namespace perfbench
