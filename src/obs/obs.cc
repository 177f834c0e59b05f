#include "obs/obs.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>

#include "util/mutex.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define PBIO_OBS_HAVE_RDTSC 1
#else
#define PBIO_OBS_HAVE_RDTSC 0
#endif

namespace pbio::obs {

namespace {

// Overflow slots: metric registrations past the fixed capacity all alias
// index kMax-1 so recording stays safe without bounds checks on every add.
constexpr std::uint32_t kCounterSink = kMaxCounters - 1;
constexpr std::uint32_t kHistSink = kMaxHistograms - 1;

struct HistSlot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t buckets[kHistBuckets] = {};
};

struct ThreadSlab {
  std::uint64_t counters[kMaxCounters] = {};
  HistSlot hists[kMaxHistograms];
  std::uint32_t tid = 0;
};

// Producer side: single-writer relaxed load+store (compiles to a plain
// add on x86). Snapshot side: relaxed loads, so concurrent reads are
// torn-free without perturbing the writer.
inline void slot_add(std::uint64_t& slot, std::uint64_t v) {
  std::atomic_ref<std::uint64_t> ref(slot);
  ref.store(ref.load(std::memory_order_relaxed) + v,  // mo: single-writer slab; atomic_ref only prevents torn reads by the snapshot thread
            std::memory_order_relaxed);  // mo: see load above — monotonic counter, snapshot tolerates in-flight increments
}

inline std::uint64_t slot_load(std::uint64_t& slot) {
  return std::atomic_ref<std::uint64_t>(slot).load(std::memory_order_relaxed);  // mo: snapshot-side torn-free read; exactness only promised after join
}

inline void slot_store(std::uint64_t& slot, std::uint64_t v) {
  std::atomic_ref<std::uint64_t>(slot).store(v, std::memory_order_relaxed);  // mo: reset path; racing increments may win or lose by design
}

// Transparent hashing so id lookups by string_view never materialize a
// temporary std::string: a call site's first hit of an already-registered
// name must stay allocation-free (the zero-alloc receive invariant counts
// it otherwise).
struct NameHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};
using NameMap =
    std::unordered_map<std::string, MetricId, NameHash, std::equal_to<>>;

struct Registry {
  Mutex mu;
  std::vector<std::string> counter_names PBIO_GUARDED_BY(mu);
  std::vector<std::string> hist_names PBIO_GUARDED_BY(mu);
  NameMap counter_ids PBIO_GUARDED_BY(mu);
  NameMap hist_ids PBIO_GUARDED_BY(mu);
  // The slab *pointers* are guarded; the slots they point at are updated
  // lock-free by their owner threads (see slot_add) — hence no
  // PT_GUARDED_BY, which would be a false claim.
  std::vector<ThreadSlab*> live PBIO_GUARDED_BY(mu);
  // Same split for counter blocks: the list is guarded, the slots are
  // relaxed atomics their owners bump without the lock.
  std::vector<CounterBlock*> blocks PBIO_GUARDED_BY(mu);
  // Merged totals of exited threads and destroyed counter blocks.
  ThreadSlab retired PBIO_GUARDED_BY(mu);
  std::uint32_t next_tid PBIO_GUARDED_BY(mu) = 1;
  std::unordered_map<std::uint32_t, std::string> thread_names
      PBIO_GUARDED_BY(mu);
};

// Intentionally leaked: thread_local slab destructors (including ones on
// threads that outlive main) and atexit hooks merge into the registry, so
// it must survive static destruction.
Registry& reg() {
  static Registry* r = new Registry;
  return *r;
}

struct SlabOwner {
  ThreadSlab* slab;
  SlabOwner() : slab(new ThreadSlab()) {
    Registry& r = reg();
    MutexLock lock(r.mu);
    slab->tid = r.next_tid++;
    r.live.push_back(slab);
  }
  ~SlabOwner() {
    Registry& r = reg();
    MutexLock lock(r.mu);
    for (std::uint32_t i = 0; i < kMaxCounters; ++i) {
      r.retired.counters[i] += slab->counters[i];
    }
    for (std::uint32_t i = 0; i < kMaxHistograms; ++i) {
      r.retired.hists[i].count += slab->hists[i].count;
      r.retired.hists[i].sum += slab->hists[i].sum;
      for (std::uint32_t b = 0; b < kHistBuckets; ++b) {
        r.retired.hists[i].buckets[b] += slab->hists[i].buckets[b];
      }
    }
    r.live.erase(std::find(r.live.begin(), r.live.end(), slab));
    delete slab;
  }
};

ThreadSlab& slab() {
  thread_local SlabOwner owner;
  return *owner.slab;
}

// Caller holds r.mu (expressed via REQUIRES so passing the guarded name
// tables by reference is provably under the lock). `r` exists only for
// that annotation — GCC erases the attribute, hence maybe_unused.
MetricId register_metric([[maybe_unused]] Registry& r,
                         std::vector<std::string>& names,
                         NameMap& ids, std::uint32_t capacity,
                         std::uint32_t sink, std::string_view name)
    PBIO_REQUIRES(r.mu) {
  auto it = ids.find(name);
  if (it != ids.end()) return it->second;
  if (names.size() >= capacity) return sink;
  const MetricId id = static_cast<MetricId>(names.size());
  names.emplace_back(name);
  ids.emplace(std::string(name), id);
  return id;
}

}  // namespace

MetricId counter(std::string_view name) {
  Registry& r = reg();
  MutexLock lock(r.mu);
  return register_metric(r, r.counter_names, r.counter_ids, kMaxCounters,
                         kCounterSink, name);
}

MetricId histogram(std::string_view name) {
  Registry& r = reg();
  MutexLock lock(r.mu);
  return register_metric(r, r.hist_names, r.hist_ids, kMaxHistograms,
                         kHistSink, name);
}

CounterBlock::CounterBlock(std::initializer_list<std::string_view> names)
    : slots_(std::make_unique<std::atomic<std::uint64_t>[]>(names.size())) {
  Registry& r = reg();
  MutexLock lock(r.mu);
  ids_.reserve(names.size());
  for (std::string_view name : names) {
    ids_.push_back(register_metric(r, r.counter_names, r.counter_ids,
                                   kMaxCounters, kCounterSink, name));
  }
  r.blocks.push_back(this);
}

CounterBlock::~CounterBlock() {
  Registry& r = reg();
  MutexLock lock(r.mu);
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    r.retired.counters[ids_[i]] += get(i);
  }
  r.blocks.erase(std::find(r.blocks.begin(), r.blocks.end(), this));
}

void counter_add(MetricId id, std::uint64_t v) {
  slot_add(slab().counters[id < kMaxCounters ? id : kCounterSink], v);
}

void histogram_record(MetricId id, std::uint64_t ns) {
  HistSlot& h = slab().hists[id < kMaxHistograms ? id : kHistSink];
  slot_add(h.count, 1);
  slot_add(h.sum, ns);
  slot_add(h.buckets[hist_bucket(ns)], 1);
}

std::uint32_t thread_tid() { return slab().tid; }

void set_thread_name(std::string_view name) {
  const std::uint32_t tid = thread_tid();
  Registry& r = reg();
  MutexLock lock(r.mu);
  r.thread_names[tid] = std::string(name);
}

std::string thread_name(std::uint32_t tid) {
  Registry& r = reg();
  MutexLock lock(r.mu);
  auto it = r.thread_names.find(tid);
  return it == r.thread_names.end() ? std::string() : it->second;
}

std::uint64_t HistogramSample::percentile_ns(double p) const {
  if (count == 0) return 0;
  const double want = p * static_cast<double>(count);
  std::uint64_t seen = 0;
  for (std::uint32_t b = 0; b < kHistBuckets; ++b) {
    if (buckets[b] == 0) continue;
    const double before = static_cast<double>(seen);
    seen += buckets[b];
    if (static_cast<double>(seen) < want) continue;
    if (b == 0) return 0;  // bucket 0 holds only the value 0
    const std::uint64_t lo = std::uint64_t{1} << (b - 1);
    const std::uint64_t hi = hist_bucket_upper(b);
    const double frac = (want - before) / static_cast<double>(buckets[b]);
    return lo + static_cast<std::uint64_t>(frac *
                                           static_cast<double>(hi - lo));
  }
  return hist_bucket_upper(kHistBuckets - 1);
}

const CounterSample* Snapshot::find_counter(std::string_view name) const {
  for (const auto& c : counters) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

const HistogramSample* Snapshot::find_histogram(std::string_view name) const {
  for (const auto& h : histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

Snapshot snapshot() {
  Registry& r = reg();
  MutexLock lock(r.mu);
  Snapshot s;
  s.counters.resize(r.counter_names.size());
  for (std::size_t i = 0; i < r.counter_names.size(); ++i) {
    CounterSample& c = s.counters[i];
    c.name = r.counter_names[i];
    c.value = r.retired.counters[i];
    for (ThreadSlab* t : r.live) c.value += slot_load(t->counters[i]);
  }
  for (CounterBlock* b : r.blocks) {
    for (std::size_t j = 0; j < b->ids_.size(); ++j) {
      s.counters[b->ids_[j]].value += b->get(j);
    }
  }
  s.histograms.reserve(r.hist_names.size());
  for (std::size_t i = 0; i < r.hist_names.size(); ++i) {
    HistogramSample h;
    h.name = r.hist_names[i];
    h.count = r.retired.hists[i].count;
    h.sum_ns = r.retired.hists[i].sum;
    for (std::uint32_t b = 0; b < kHistBuckets; ++b) {
      h.buckets[b] = r.retired.hists[i].buckets[b];
    }
    for (ThreadSlab* t : r.live) {
      h.count += slot_load(t->hists[i].count);
      h.sum_ns += slot_load(t->hists[i].sum);
      for (std::uint32_t b = 0; b < kHistBuckets; ++b) {
        h.buckets[b] += slot_load(t->hists[i].buckets[b]);
      }
    }
    s.histograms.push_back(std::move(h));
  }
  auto by_name = [](const auto& a, const auto& b) { return a.name < b.name; };
  std::sort(s.counters.begin(), s.counters.end(), by_name);
  std::sort(s.histograms.begin(), s.histograms.end(), by_name);
  return s;
}

void reset() {
  Registry& r = reg();
  MutexLock lock(r.mu);
  // Live slabs belong to running threads that update them with relaxed
  // atomic_ref stores outside the lock; zero them the same way so a
  // concurrent reset is torn-free (an increment racing the reset may win
  // or lose — that ambiguity is inherent to resetting a live system).
  auto zero = [](ThreadSlab& t) {
    for (auto& c : t.counters) slot_store(c, 0);
    for (auto& h : t.hists) {
      slot_store(h.count, 0);
      slot_store(h.sum, 0);
      for (auto& b : h.buckets) slot_store(b, 0);
    }
  };
  zero(r.retired);
  for (ThreadSlab* t : r.live) zero(*t);
  for (CounterBlock* b : r.blocks) {
    for (std::size_t j = 0; j < b->ids_.size(); ++j) {
      b->slots_[j].store(0, std::memory_order_relaxed);  // mo: reset path, same contract as slot_store
    }
  }
}

namespace {

void append_json_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (u < 0x20 || u >= 0x7F) {
      // Control bytes and anything past printable ASCII: metric names are
      // arbitrary bytes (a hostile peer's format name flows into
      // per-format metric names), and raw high bytes are not guaranteed
      // to be valid UTF-8 — a strict JSON consumer would reject the whole
      // snapshot. \u00XX round-trips byte-exactly through JsonCur::str.
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", u);
      out += buf;
    } else {
      out += c;
    }
  }
}

}  // namespace

std::string to_json(const Snapshot& snap) {
  std::string out = "{\n  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    append_json_escaped(out, snap.counters[i].name);
    out += "\": " + std::to_string(snap.counters[i].value);
  }
  out += snap.counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  bool first = true;
  for (const auto& h : snap.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    append_json_escaped(out, h.name);
    out += "\": {\"count\": " + std::to_string(h.count) +
           ", \"sum_ns\": " + std::to_string(h.sum_ns) + ", \"buckets\": [";
    std::uint32_t last = 0;
    for (std::uint32_t b = 0; b < kHistBuckets; ++b) {
      if (h.buckets[b] != 0) last = b + 1;
    }
    for (std::uint32_t b = 0; b < last; ++b) {
      if (b != 0) out += ", ";
      out += std::to_string(h.buckets[b]);
    }
    out += "]}";
  }
  out += first ? "}\n}" : "\n  }\n}";
  return out;
}

namespace {

// Cursor over the to_json shape. Whitespace-tolerant; names un-escape the
// \" \\ \uXXXX forms append_json_escaped produces.
struct JsonCur {
  std::string_view s;
  std::size_t i = 0;

  void ws() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' ||
                            s[i] == '\r')) {
      ++i;
    }
  }
  bool lit(char c) {
    ws();
    if (i < s.size() && s[i] == c) {
      ++i;
      return true;
    }
    return false;
  }
  char peek() {
    ws();
    return i < s.size() ? s[i] : '\0';
  }
  bool str(std::string* out) {
    if (!lit('"')) return false;
    out->clear();
    while (i < s.size() && s[i] != '"') {
      char c = s[i++];
      if (c == '\\') {
        if (i >= s.size()) return false;
        const char e = s[i++];
        if (e == 'u') {
          if (i + 4 > s.size()) return false;
          unsigned v = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s[i++];
            v <<= 4;
            if (h >= '0' && h <= '9') v |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') v |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') v |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          *out += static_cast<char>(v);
        } else {
          *out += e;
        }
      } else {
        *out += c;
      }
    }
    return lit('"');
  }
  bool uint(std::uint64_t* out) {
    ws();
    if (i >= s.size() || s[i] < '0' || s[i] > '9') return false;
    std::uint64_t v = 0;
    bool overflow = false;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
      const std::uint64_t d = static_cast<std::uint64_t>(s[i++] - '0');
      // Saturate instead of wrapping: a hand-edited or corrupt stats file
      // must not turn a huge literal into a small counter value.
      if (overflow || v > (~std::uint64_t{0} - d) / 10) {
        overflow = true;
        continue;
      }
      v = v * 10 + d;
    }
    *out = overflow ? ~std::uint64_t{0} : v;
    return true;
  }
};

}  // namespace

bool snapshot_from_json(std::string_view json, Snapshot* out) {
  out->counters.clear();
  out->histograms.clear();
  JsonCur c{json};
  std::string key;
  if (!c.lit('{')) return false;

  if (!c.str(&key) || key != "counters" || !c.lit(':') || !c.lit('{')) {
    return false;
  }
  if (c.peek() != '}') {
    do {
      CounterSample cs;
      if (!c.str(&cs.name) || !c.lit(':') || !c.uint(&cs.value)) return false;
      out->counters.push_back(std::move(cs));
    } while (c.lit(','));
  }
  if (!c.lit('}') || !c.lit(',')) return false;

  if (!c.str(&key) || key != "histograms" || !c.lit(':') || !c.lit('{')) {
    return false;
  }
  if (c.peek() != '}') {
    do {
      HistogramSample hs;
      if (!c.str(&hs.name) || !c.lit(':') || !c.lit('{')) return false;
      if (!c.str(&key) || key != "count" || !c.lit(':') || !c.uint(&hs.count) ||
          !c.lit(',')) {
        return false;
      }
      if (!c.str(&key) || key != "sum_ns" || !c.lit(':') ||
          !c.uint(&hs.sum_ns) || !c.lit(',')) {
        return false;
      }
      if (!c.str(&key) || key != "buckets" || !c.lit(':') || !c.lit('[')) {
        return false;
      }
      std::uint32_t b = 0;
      if (c.peek() != ']') {
        do {
          std::uint64_t v;
          if (b >= kHistBuckets || !c.uint(&v)) return false;
          hs.buckets[b++] = v;
        } while (c.lit(','));
      }
      if (!c.lit(']') || !c.lit('}')) return false;
      out->histograms.push_back(std::move(hs));
    } while (c.lit(','));
  }
  if (!c.lit('}') || !c.lit('}')) return false;
  c.ws();
  return c.i == json.size();
}

// --- timing -----------------------------------------------------------------

namespace {

// ns = ticks * mult >> 20, fixed point. 0 means "not yet calibrated".
std::atomic<std::uint64_t> g_tick_mult{0};

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::uint64_t ticks() {
#if PBIO_OBS_HAVE_RDTSC
  return __rdtsc();
#else
  return steady_ns();
#endif
}

void calibrate() {
#if PBIO_OBS_HAVE_RDTSC
  static std::once_flag once;
  std::call_once(once, [] {
    const std::uint64_t ns0 = steady_ns();
    const std::uint64_t c0 = __rdtsc();
    // ~2 ms busy wait: long enough to swamp clock granularity, short
    // enough to be invisible at process scale. Runs once per process.
    while (steady_ns() - ns0 < 2'000'000) {
    }
    const std::uint64_t ns1 = steady_ns();
    const std::uint64_t c1 = __rdtsc();
    const double ns_per_tick = static_cast<double>(ns1 - ns0) /
                               static_cast<double>(c1 - c0 ? c1 - c0 : 1);
    std::uint64_t mult =
        static_cast<std::uint64_t>(ns_per_tick * (1 << 20) + 0.5);
    if (mult == 0) mult = 1;
    g_tick_mult.store(mult, std::memory_order_relaxed);  // mo: single word; any thread reading 0 just recalibrates (idempotent via once_flag)
  });
#else
  g_tick_mult.store(1 << 20, std::memory_order_relaxed);  // mo: constant value; every store writes the same word
#endif
}

std::uint64_t ticks_to_ns(std::uint64_t delta) {
  std::uint64_t mult = g_tick_mult.load(std::memory_order_relaxed);  // mo: lone word, no dependent data; 0 falls through to calibrate()
  if (mult == 0) {
    calibrate();
    mult = g_tick_mult.load(std::memory_order_relaxed);  // mo: see above — call_once in calibrate() ordered the store
  }
  return static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(delta) * mult) >> 20);
}

}  // namespace pbio::obs
