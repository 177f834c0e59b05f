// Scoped trace spans and counting macros — the instrumentation layer the
// wire path uses. Both are compiled into every build.
//
// The steady-state cost of an OBS_SPAN whose trace sink is idle is the
// site's initialized-static guard (a predicted branch), two rdtsc reads
// and one per-thread histogram bump: 44-48 ns on a 4-vCPU Xeon VM, where
// one rdtsc read alone takes ~23 ns. perf_invariants_test pins it under
// 2% of the fig3 100 KB interpreted decode; it read 1.55-1.58% there,
// 1.3x under the bound (docs/observability.md).
//
//   Status Writer::write_image(...) {
//     OBS_SPAN("pbio.encode", image.size());   // ns histogram + trace event
//     ...
//   }
// A span's sample count counts its scope's runs: no OBS_COUNT(x, 1) beside
// it (wire_lint R12).
#pragma once

#include "obs/obs.h"
#include "obs/trace.h"

namespace pbio::obs {

/// Cold per-callsite state: name + histogram id, plus the one-time clock
/// calibration so the span record path never has to check for it.
class SpanSite {
 public:
  explicit SpanSite(const char* name)
      : name_(name), hist_(histogram(name)) {
    calibrate();
  }

  const char* name() const { return name_; }
  MetricId hist() const { return hist_; }

 private:
  const char* name_;
  MetricId hist_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const SpanSite& site, std::uint64_t arg = 0,
                      MetricId also = kInvalidMetric)
      : site_(site), arg_(arg), also_(also), start_(ticks()) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    const std::uint64_t end = ticks();
    const std::uint64_t ns = ticks_to_ns(end - start_);
    histogram_record(site_.hist(), ns);
    if (also_ != kInvalidMetric) histogram_record(also_, ns);
    if (trace_enabled()) trace_emit(site_.name(), start_, end, arg_);
  }

 private:
  const SpanSite& site_;
  std::uint64_t arg_;
  MetricId also_;
  std::uint64_t start_;
};

}  // namespace pbio::obs

#define PBIO_OBS_CAT2(a, b) a##b
#define PBIO_OBS_CAT(a, b) PBIO_OBS_CAT2(a, b)

/// Time the rest of the enclosing scope into histogram `name`. Optional:
/// a byte/element count for the trace event, then a MetricId to file into.
#define OBS_SPAN(name, ...)                                              \
  static const ::pbio::obs::SpanSite PBIO_OBS_CAT(pbio_obs_site_,        \
                                                  __LINE__){name};       \
  const ::pbio::obs::ScopedSpan PBIO_OBS_CAT(pbio_obs_span_, __LINE__)(  \
      PBIO_OBS_CAT(pbio_obs_site_, __LINE__) __VA_OPT__(, ) __VA_ARGS__)

/// Bump counter `name` by `n`. The metric id resolves once per callsite.
#define OBS_COUNT(name, n)                                               \
  do {                                                                   \
    static const ::pbio::obs::MetricId pbio_obs_id_ =                    \
        ::pbio::obs::counter(name);                                      \
    ::pbio::obs::counter_add(pbio_obs_id_, (n));                         \
  } while (0)
