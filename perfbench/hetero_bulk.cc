// hetero_bulk: a Writer and a Reader in one thread over a LoopbackChannel
// pair, in lockstep bursts of 16. The writer sends a burst; the reader
// drains it with next_batch and every message is decoded and compared with
// the reference host image built from the value model. No cross-thread
// wake-up sits in the measured path.
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "bench_support/workload.h"
#include "floors.h"
#include "pbio/pbio.h"
#include "trace.h"
#include "value/materialize.h"
#include "value/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using pbio::Context;
using pbio::Status;
namespace arch = pbio::arch;
namespace bench = pbio::bench;

/// Host-native variable-length record (string + variable double array),
/// sent with Writer::write so encode_native's gather runs.
struct NativeEvent {
  int seq;
  unsigned n;
  char* name;
  double* samples;
};

pbio::fmt::FormatDesc event_format() {
  const pbio::NativeField fields[] = {
      PBIO_FIELD(NativeEvent, seq, arch::CType::kInt),
      PBIO_FIELD(NativeEvent, n, arch::CType::kUInt),
      PBIO_STRING(NativeEvent, name),
      PBIO_VARARRAY(NativeEvent, samples, arch::CType::kDouble, "n"),
  };
  return pbio::native_format("event", fields, sizeof(NativeEvent));
}

/// Distinct seeded records per format. Consecutive messages of a format
/// mostly carry different values, so a decode that leaves an earlier
/// message's output in place fails the compare.
constexpr std::size_t kVariants = 4;

/// One host-native format a message decodes into.
struct Target {
  pbio::fmt::FormatDesc native;
  // Host image of each variant from the value model.
  std::vector<std::vector<std::uint8_t>> reference;
  std::vector<std::uint8_t> out;  // decode destination
};

/// One wire format a sender uses.
struct WireFormat {
  pbio::fmt::FormatDesc desc;
  // Wire image of each variant; empty for the var-length format.
  std::vector<std::vector<std::uint8_t>> images;
  std::size_t target = 0;
  std::size_t native_bytes = 0;  // host-native bytes one message delivers
};

/// One variant of the var-length record.
struct EventInput {
  std::string name;
  std::vector<double> samples;
  NativeEvent ev{};
};

/// A message to send: which format, carrying which variant.
struct Pick {
  std::uint16_t format = 0;
  std::uint16_t variant = 0;
};

constexpr std::size_t kBurst = 16;
constexpr std::uint64_t kChunkMsgs = kBurst * 64;

/// Everything the workload needs, generated from the seed before set-up.
struct StreamInputs {
  std::vector<Target> targets;
  std::vector<WireFormat> formats;
  std::vector<Pick> schedule;         // one per frame, cyclic
  std::size_t var_format = SIZE_MAX;  // index of the var-length format
  std::vector<EventInput> events;     // per variant
};

constexpr std::size_t kScheduleLen = 1 << 16;

void add_senders(StreamInputs& in, bench::Size size,
                 const std::vector<pbio::value::Record>& recs,
                 std::initializer_list<const arch::Abi*> abis) {
  Target t;
  t.native = bench::make_workload(size, arch::abi_x86_64(), arch::abi_x86_64())
                 .dst_fmt;
  for (const auto& rec : recs) {
    t.reference.push_back(pbio::value::materialize(t.native, rec));
  }
  t.out.assign(t.native.fixed_size, 0);
  in.targets.push_back(std::move(t));
  for (const arch::Abi* abi : abis) {
    WireFormat f;
    f.desc = bench::make_workload(size, *abi, arch::abi_x86_64()).src_fmt;
    for (const auto& rec : recs) {
      f.images.push_back(pbio::value::materialize(f.desc, rec));
    }
    f.target = in.targets.size() - 1;
    f.native_bytes = in.targets.back().native.fixed_size;
    in.formats.push_back(std::move(f));
  }
}

StreamInputs hetero_bulk_inputs(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  StreamInputs in;
  for (bench::Size s :
       {bench::Size::k1KB, bench::Size::k10KB, bench::Size::k100KB}) {
    std::vector<pbio::value::Record> recs;
    for (std::size_t v = 0; v < kVariants; ++v) {
      recs.push_back(pbio::value::random_record(bench::mech_spec(s), rng));
    }
    add_senders(in, s, recs,
                {&arch::abi_sparc_v8(), &arch::abi_x86(), &arch::abi_ppc64()});
  }
  // The var-length record: a seeded name length and sample count shared by
  // every variant, seeded values per variant.
  const std::size_t name_len = 24 + rng() % 16;
  const unsigned n = 1024 + static_cast<unsigned>(rng() % 64);
  std::uniform_real_distribution<double> val(-1e6, 1e6);
  in.events.resize(kVariants);
  for (EventInput& e : in.events) {
    for (std::size_t i = 0; i < name_len; ++i) {
      e.name.push_back(static_cast<char>('a' + rng() % 26));
    }
    for (unsigned i = 0; i < n; ++i) e.samples.push_back(val(rng));
    e.ev = NativeEvent{static_cast<int>(rng() % 100000), n, e.name.data(),
                       e.samples.data()};
  }
  Target t;
  t.native = event_format();
  in.targets.push_back(std::move(t));
  WireFormat f;
  f.desc = event_format();
  f.target = in.targets.size() - 1;
  f.native_bytes = sizeof(NativeEvent) + name_len + 1 + n * sizeof(double);
  in.var_format = in.formats.size();
  in.formats.push_back(std::move(f));
  for (std::size_t i = 0; i < kScheduleLen; ++i) {
    in.schedule.push_back(
        {static_cast<std::uint16_t>(rng() % in.formats.size()),
         static_cast<std::uint16_t>(rng() % kVariants)});
  }
  return in;
}

/// The system under test as set up once: contexts, channels, writer and
/// reader. For the traced phase the writer and reader are rebuilt over
/// timing decorators of the same channels; the contexts keep every
/// conversion compiled at set-up.
struct Session {
  Context wctx;
  Context rctx;
  std::unique_ptr<pbio::transport::LoopbackChannel> tx;
  std::unique_ptr<pbio::transport::LoopbackChannel> rx;
  std::unique_ptr<TimedChannel> timed_tx;
  std::unique_ptr<TimedChannel> timed_rx;
  std::vector<Context::FormatId> wire_ids;  // per format, in wctx
  std::unique_ptr<pbio::Writer> writer;
  std::unique_ptr<pbio::Reader> reader;
};

/// Counts and spans of one run over the stream.
struct Phase {
  std::uint64_t msgs = 0;
  std::uint64_t failed = 0;
  std::uint64_t batches = 0;
  std::uint64_t wall_ns = 0;
  std::vector<std::uint64_t> sent_per_format;
  std::vector<std::uint64_t> decoded_per_format;
  Chunks chunks;
  Latency lat;
};

class Stream {
 public:
  explicit Stream(StreamInputs& in) : in_(in), msgs_(kBurst), sent_(kBurst) {}

  /// Build a session and deliver the first message of every format.
  std::unique_ptr<Session> setup(Phase& ph) {
    auto s = std::make_unique<Session>();
    for (const WireFormat& f : in_.formats) {
      s->wire_ids.push_back(s->wctx.register_format(f.desc));
    }
    std::tie(s->tx, s->rx) = pbio::transport::make_loopback_pair();
    connect(*s, *s->tx, *s->rx);
    std::vector<Pick> all(in_.formats.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      all[i] = {static_cast<std::uint16_t>(i),
                static_cast<std::uint16_t>(i % kVariants)};
    }
    burst(*s, all, ph, nullptr);
    return s;
  }

  /// (Re)build the session's writer and reader over the given channels.
  void connect(Session& s, pbio::transport::Channel& tx,
               pbio::transport::Channel& rx) {
    s.writer = std::make_unique<pbio::Writer>(s.wctx, tx);
    s.reader = std::make_unique<pbio::Reader>(s.rctx, rx);
    for (const Target& t : in_.targets) {
      s.reader->expect(s.rctx.register_format(t.native));
    }
  }

  /// Run bursts until `duration_ns` has passed (or `bursts` bursts when
  /// non-zero), closing a chunk every kChunkMsgs messages.
  void run(Session& s, Phase& ph, std::uint64_t duration_ns,
           std::uint64_t bursts, SpanLog* log) {
    std::vector<Pick> order(kBurst);
    const std::uint64_t t_start = now_ns();
    std::uint64_t in_chunk = 0, bytes_in_chunk = 0;
    ph.chunks.begin(process_cpu_ns());
    for (std::uint64_t b = 0;; ++b) {
      if (bursts != 0 ? b >= bursts : now_ns() - t_start >= duration_ns) break;
      for (auto& o : order) o = in_.schedule[pos_++ % kScheduleLen];
      const std::uint64_t t0 = now_ns();
      bytes_in_chunk += burst(s, order, ph, log);
      ph.lat.add(now_ns() - t0);
      in_chunk += order.size();
      if (in_chunk >= kChunkMsgs) {
        ph.chunks.close(in_chunk, bytes_in_chunk, process_cpu_ns());
        in_chunk = bytes_in_chunk = 0;
      }
    }
    ph.wall_ns += now_ns() - t_start;
  }

 private:
  /// Write one message of each format in `order`, then receive, decode and
  /// verify them all. Returns the host-native bytes delivered. In a traced
  /// run the burst is one chain of back-to-back spans.
  std::uint64_t burst(Session& s, const std::vector<Pick>& order, Phase& ph,
                      SpanLog* log) {
    if (log != nullptr) log->begin_burst();
    std::uint64_t t = log != nullptr ? SpanLog::now() : 0;
    ph.sent_per_format.resize(in_.formats.size());
    ph.decoded_per_format.resize(in_.formats.size());
    std::size_t expected = 0;
    for (const Pick p : order) {
      const std::uint16_t idx = p.format;
      const Status st =
          idx == in_.var_format
              ? s.writer->write(s.wire_ids[idx], &in_.events[p.variant].ev)
              : s.writer->write_image(s.wire_ids[idx],
                                      in_.formats[idx].images[p.variant]);
      if (log != nullptr) log->lap(Layer::kWriter, t);
      ++ph.msgs;
      if (st.is_ok()) {
        sent_[expected++] = p;
        ++ph.sent_per_format[idx];
      } else {
        ++ph.failed;
      }
    }
    std::uint64_t bytes = 0;
    std::size_t got = 0;
    while (got < expected) {
      auto r = s.reader->next_batch(std::span(msgs_.data(), expected - got));
      if (log != nullptr) log->lap(Layer::kReader, t);
      if (!r.is_ok()) {
        ph.failed += expected - got;
        break;
      }
      ++ph.batches;
      for (std::size_t j = 0; j < r.value(); ++j) {
        const Pick p = sent_[got + j];
        if (check(s, msgs_[j], p, ph, log, t)) {
          bytes += in_.formats[p.format].native_bytes;
        } else {
          ++ph.failed;
        }
        msgs_[j] = pbio::Message();  // done with it: release the frame
        if (log != nullptr) log->lap(Layer::kReader, t);
      }
      got += r.value();
    }
    return bytes;
  }

  /// Decode `m` and compare it with the reference of the format and
  /// variant it was sent as. The destination is cleared first, so a decode
  /// that writes nothing fails the compare. In a traced run the decode and
  /// compare spans start at `t`, which ends up at the end of the last one.
  bool check(Session& s, pbio::Message& m, Pick p, Phase& ph, SpanLog* log,
             std::uint64_t& t) {
    const std::uint16_t idx = p.format;
    if (m.wire_id() != s.wire_ids[idx]) return false;
    Target& target = in_.targets[in_.formats[idx].target];
    bool ok = false;
    if (idx == in_.var_format) {
      NativeEvent out{};
      const Status st = m.decode_into(&out, sizeof(out));
      if (log != nullptr) log->lap(Layer::kDecode, t);
      ++ph.decoded_per_format[idx];
      const NativeEvent& ev = in_.events[p.variant].ev;
      ok = st.is_ok() && out.seq == ev.seq && out.n == ev.n &&
           out.name != nullptr && std::strcmp(out.name, ev.name) == 0 &&
           out.samples != nullptr &&
           std::memcmp(out.samples, ev.samples, ev.n * sizeof(double)) == 0;
    } else {
      std::memset(target.out.data(), 0, target.out.size());
      if (log != nullptr) log->lap(Layer::kVerify, t);
      const Status st = m.decode_into(target.out.data(), target.out.size());
      if (log != nullptr) log->lap(Layer::kDecode, t);
      ++ph.decoded_per_format[idx];
      const std::vector<std::uint8_t>& ref = target.reference[p.variant];
      ok = st.is_ok() &&
           std::memcmp(target.out.data(), ref.data(), ref.size()) == 0;
    }
    if (log != nullptr) log->lap(Layer::kVerify, t);
    return ok;
  }

  StreamInputs& in_;
  std::vector<pbio::Message> msgs_;
  std::vector<Pick> sent_;
  std::size_t pos_ = 0;
};

}  // namespace

RunResult run_hetero_bulk(const Options& opt) {
  StreamInputs in = hetero_bulk_inputs(opt.seed);
  RunResult res;
  Stream stream(in);
  Phase setup_ph;
  std::unique_ptr<Session> s = stream.setup(setup_ph);
  const std::uint64_t compiles = s->rctx.stats().conversions_compiled;

  Phase warm;
  stream.run(*s, warm, 0, 100, nullptr);

  // Timed phase, untraced. Counters read before and after it.
  const std::uint64_t dur = phase_ns(opt);
  Phase ph;
  std::vector<double> setup_s;
  const int slices = setup_slices(opt);
  const auto cstats0 = s->rctx.stats();
  const auto pool0 = pbio::BufferPool::shared().stats();
  const std::uint64_t allocs0 = allocs();
  for (int i = 0; i < slices; ++i) {
    stream.run(*s, ph, dur / slices, 0, nullptr);
    if (opt.trace) continue;
    const std::uint64_t t0 = now_ns();
    const auto spare = stream.setup(setup_ph);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  const std::uint64_t allocs1 = allocs();
  const auto pool1 = pbio::BufferPool::shared().stats();
  const auto cstats1 = s->rctx.stats();

  res.attempted = setup_ph.msgs + warm.msgs + ph.msgs;
  res.failed = setup_ph.failed + warm.failed + ph.failed;
  res.notes.push_back("chunks " + std::to_string(ph.chunks.size()) +
                      ", latency samples " + std::to_string(ph.lat.count()) +
                      " (bursts of " + std::to_string(kBurst) + ")");

  if (!opt.trace) {
    report_end_to_end(res, ph.chunks, ph.lat, setup_s);
    return res;
  }

  // Traced phase: the same stream through timing decorators.
  SpanLog tlog(1 << 16);
  s->timed_tx = std::make_unique<TimedChannel>(*s->tx, tlog);
  s->timed_rx = std::make_unique<TimedChannel>(*s->rx, tlog);
  stream.connect(*s, *s->timed_tx, *s->timed_rx);
  Phase warm2;
  stream.run(*s, warm2, 0, 50, nullptr);  // re-announces to the new reader
  tlog.reset();
  Phase tp;
  stream.run(*s, tp, dur, 0, &tlog);
  res.attempted += warm2.msgs + tp.msgs;
  res.failed += warm2.failed + tp.failed;
  tlog.write_chrome_trace(beside_binary("trace_hetero_bulk.json"));

  auto& v = res.values;
  const std::uint64_t n = tp.msgs;
  const std::uint64_t send = tlog.total_ns(Layer::kSend);
  const std::uint64_t recv = tlog.total_ns(Layer::kRecv);
  const std::uint64_t writer = tlog.total_ns(Layer::kWriter);
  const std::uint64_t reader = tlog.total_ns(Layer::kReader);
  const std::uint64_t decode = tlog.total_ns(Layer::kDecode);
  const std::uint64_t verify = tlog.total_ns(Layer::kVerify);
  v["pbio.writer.ns_per_msg"] = per(writer - send, n);
  v["transport.send_ns_per_msg"] = per(send, n);
  v["transport.recv_ns_per_msg"] = per(recv, n);
  v["pbio.reader.ns_per_msg"] = per(reader - recv, n);
  v["pbio.reader.msgs_per_batch"] = per(n, tp.batches);
  v["pbio.decode.ns_per_msg"] = per(decode, n);
  v["cache.compiles"] = static_cast<double>(compiles);
  std::vector<FormatPair> pairs;
  for (const WireFormat& f : in.formats) {
    pairs.emplace_back(f.desc, in.targets[f.target].native);
  }
  v["cache.compile_us_per_pair"] = compile_us_per_pair(pairs);
  v["cache.l1_hits_per_msg"] = per(
      cstats1.conversion_cache_hits - cstats0.conversion_cache_hits, ph.msgs);
  v["util.pool.hit_rate"] = hit_rate(pool0, pool1);
  v["alloc.per_msg"] = per(allocs1 - allocs0, ph.msgs);
  v["bench.lat_p99_us"] = ph.lat.p99_us();
  v["bench.verify_ns_per_msg"] = per(verify, n);
  v["bench.residual_share"] =
      1.0 - static_cast<double>(writer + reader + decode + verify) /
                static_cast<double>(tp.wall_ns);
  v["bench.trace_overhead_share"] =
      1.0 - tp.chunks.msgs_per_s() / ph.chunks.msgs_per_s();

  // Floors beside the workload, and the layers as ratios to them.
  std::vector<double> copy_ns(in.formats.size());
  double mix_bytes = 0, mix_ns = 0, floor_decode_ns = 0, floor_send_ns = 0;
  std::vector<std::uint64_t> uses(in.formats.size(), 0);
  for (const Pick p : in.schedule) ++uses[p.format];
  for (std::size_t i = 0; i < in.formats.size(); ++i) {
    copy_ns[i] = floor_memcpy_ns(in.formats[i].native_bytes);
    mix_bytes += static_cast<double>(uses[i] * in.formats[i].native_bytes);
    mix_ns += static_cast<double>(uses[i]) * copy_ns[i];
    floor_decode_ns +=
        static_cast<double>(tp.decoded_per_format[i]) * copy_ns[i];
    floor_send_ns += static_cast<double>(tp.sent_per_format[i]) * copy_ns[i];
  }
  v["floor.memcpy_mb_per_s"] = mix_ns > 0 ? mix_bytes / mix_ns * 1e3 : 0.0;
  v["pbio.decode.memcpy_ratio"] =
      floor_decode_ns > 0 ? static_cast<double>(decode) / floor_decode_ns : 0.0;
  // A loopback send copies each record once: its floor is that memcpy.
  v["transport.send_floor_ratio"] =
      per(static_cast<double>(send), floor_send_ns);
  return res;
}

}  // namespace perfbench
