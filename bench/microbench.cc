// google-benchmark microbenchmarks for the core primitives: conversion
// engines at each op granularity, plan compilation, DCG codegen, format
// meta codec, the XML SAX parser, the loopback send against its pooled
// memcpy floor, and the in-process message against a copy plus run.
// Complements the figure benches with statistically-managed
// per-op numbers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>
#include <tuple>
#include <utility>

#include "baselines/xmlwire/decode.h"
#include "baselines/xmlwire/encode.h"
#include "bench_support/workload.h"
#include "pbio/pbio.h"
#include "fmt/meta.h"
#include "obs/obs.h"
#include "transport/loopback.h"
#include "util/pool.h"
#include "vcode/jit_convert.h"

namespace pbio::bench {
namespace {

Workload& workload(Size s, const arch::Abi& src, const arch::Abi& dst) {
  static std::map<std::tuple<Size, const arch::Abi*, const arch::Abi*>,
                  Workload>
      cache;
  auto key = std::make_tuple(s, &src, &dst);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, make_workload(s, src, dst)).first;
  }
  return it->second;
}

void BM_InterpConvert(benchmark::State& state) {
  const Size s = static_cast<Size>(state.range(0));
  Workload& w = workload(s, arch::abi_x86(), arch::abi_sparc_v8());
  const convert::Plan plan = convert::compile_plan(w.src_fmt, w.dst_fmt);
  std::vector<std::uint8_t> out(w.dst_fmt.fixed_size);
  convert::ExecInput in;
  in.src = w.src_image.data();
  in.src_size = w.src_image.size();
  in.dst = out.data();
  in.dst_size = out.size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(convert::run_plan(plan, in));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          w.src_image.size());
}
BENCHMARK(BM_InterpConvert)->DenseRange(0, 3);

void BM_DcgConvert(benchmark::State& state) {
  const Size s = static_cast<Size>(state.range(0));
  Workload& w = workload(s, arch::abi_x86(), arch::abi_sparc_v8());
  const vcode::CompiledConvert dcg(
      convert::compile_plan(w.src_fmt, w.dst_fmt));
  std::vector<std::uint8_t> out(w.dst_fmt.fixed_size);
  convert::ExecInput in;
  in.src = w.src_image.data();
  in.src_size = w.src_image.size();
  in.dst = out.data();
  in.dst_size = out.size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dcg.run(in));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          w.src_image.size());
}
BENCHMARK(BM_DcgConvert)->DenseRange(0, 3);

void BM_Memcpy(benchmark::State& state) {
  const Size s = static_cast<Size>(state.range(0));
  Workload& w = workload(s, arch::abi_x86_64(), arch::abi_x86_64());
  std::vector<std::uint8_t> out(w.src_image.size());
  for (auto _ : state) {
    std::memcpy(out.data(), w.src_image.data(), w.src_image.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          w.src_image.size());
}
BENCHMARK(BM_Memcpy)->DenseRange(0, 3);

void BM_PlanCompile(benchmark::State& state) {
  const Size s = static_cast<Size>(state.range(0));
  Workload& w = workload(s, arch::abi_x86(), arch::abi_sparc_v8());
  for (auto _ : state) {
    benchmark::DoNotOptimize(convert::compile_plan(w.src_fmt, w.dst_fmt));
  }
}
BENCHMARK(BM_PlanCompile)->DenseRange(0, 3);

// Time is the whole CompiledConvert constructor (verify, emit, tval, seal);
// the counters are the mean µs of the library's own spans over the same
// builds: `compile_us` (vcode.jit.compile: emit + tval + seal) and
// `tval_us` (vcode.jit.tval, nested in it).
void BM_DcgCodegen(benchmark::State& state) {
  const Size s = static_cast<Size>(state.range(0));
  Workload& w = workload(s, arch::abi_x86(), arch::abi_sparc_v8());
  const convert::Plan plan = convert::compile_plan(w.src_fmt, w.dst_fmt);
  obs::reset();
  for (auto _ : state) {
    vcode::CompiledConvert cc(plan);
    benchmark::DoNotOptimize(cc.jitted());
  }
  const obs::Snapshot snap = obs::snapshot();
  for (const auto& [counter, span] :
       {std::pair{"compile_us", "vcode.jit.compile"},
        std::pair{"tval_us", "vcode.jit.tval"}}) {
    if (const obs::HistogramSample* h = snap.find_histogram(span)) {
      state.counters[counter] = h->mean_ns() / 1e3;
    }
  }
}
BENCHMARK(BM_DcgCodegen)->DenseRange(0, 3);

void BM_InplaceConvert(benchmark::State& state) {
  // Byte-swap conversion executed inside the receive buffer (no dst
  // allocation): sparc_v9 wire -> x86-64 native, identical geometry.
  const Size s = static_cast<Size>(state.range(0));
  Workload& w = workload(s, arch::abi_sparc_v9(), arch::abi_x86_64());
  const convert::Plan plan = convert::compile_plan(w.src_fmt, w.dst_fmt);
  const vcode::CompiledConvert dcg(plan);
  std::vector<std::uint8_t> buf = w.src_image;
  convert::ExecInput in;
  in.src = buf.data();
  in.src_size = buf.size();
  in.dst = buf.data();
  in.dst_size = buf.size();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dcg.run(in));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          buf.size());
}
BENCHMARK(BM_InplaceConvert)->DenseRange(0, 3);

void BM_GatherEncode(benchmark::State& state) {
  // Sender-side gather of a pointer-rich record (string + variable array).
  struct Ev {
    unsigned n;
    char* name;
    double* vals;
  };
  const NativeField fields[] = {
      PBIO_FIELD(Ev, n, arch::CType::kUInt),
      PBIO_STRING(Ev, name),
      PBIO_VARARRAY(Ev, vals, arch::CType::kDouble, "n"),
  };
  static Context ctx;
  const auto id = ctx.register_format(native_format("ev", fields,
                                                    sizeof(Ev)));
  const fmt::FormatDesc& f = *ctx.find(id);
  const auto count = static_cast<unsigned>(state.range(0));
  std::vector<double> vals(count, 1.5);
  char name[] = "gather-bench";
  Ev ev{count, name, vals.data()};
  ByteBuffer out;
  for (auto _ : state) {
    out.clear();
    benchmark::DoNotOptimize(encode_native(f, &ev, out));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          out.size());
}
BENCHMARK(BM_GatherEncode)->Arg(8)->Arg(128)->Arg(1024)->Arg(8192);

void BM_MetaEncodeDecode(benchmark::State& state) {
  Workload& w =
      workload(Size::k1KB, arch::abi_sparc_v8(), arch::abi_x86_64());
  for (auto _ : state) {
    const auto bytes = fmt::encode_meta(w.src_fmt);
    auto decoded = fmt::decode_meta(bytes);
    benchmark::DoNotOptimize(decoded.is_ok());
  }
}
BENCHMARK(BM_MetaEncodeDecode);

void BM_XmlEncode(benchmark::State& state) {
  const Size s = static_cast<Size>(state.range(0));
  Workload& w = workload(s, arch::abi_x86_64(), arch::abi_x86_64());
  std::string xml;
  for (auto _ : state) {
    xml.clear();
    benchmark::DoNotOptimize(xmlwire::encode_xml(w.src_fmt, w.src_image, xml));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          w.src_image.size());
}
BENCHMARK(BM_XmlEncode)->DenseRange(0, 3);

void BM_XmlDecode(benchmark::State& state) {
  const Size s = static_cast<Size>(state.range(0));
  Workload& w = workload(s, arch::abi_x86_64(), arch::abi_x86_64());
  std::string xml;
  (void)xmlwire::encode_xml(w.src_fmt, w.src_image, xml);
  std::vector<std::uint8_t> out(w.dst_fmt.fixed_size);
  for (auto _ : state) {
    benchmark::DoNotOptimize(xmlwire::decode_xml(w.dst_fmt, xml, out));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          xml.size());
}
BENCHMARK(BM_XmlDecode)->DenseRange(0, 3);

// The send floor: hetero_bulk's loopback send against a memcpy into a
// recycled pooled block. One iteration is one burst of kSendBurst frames,
// each a 16-byte data header plus a 1 KB, 10 KB or 100 KB image in turn,
// whose leases are released together as the workload's reader releases a
// batch. `per_msg` (seconds) compares across the two.
constexpr std::size_t kSendBurst = 16;

const std::vector<std::vector<std::uint8_t>>& send_images() {
  static const auto images = [] {
    std::vector<std::vector<std::uint8_t>> v;
    for (Size s : {Size::k1KB, Size::k10KB, Size::k100KB}) {
      v.push_back(
          workload(s, arch::abi_sparc_v8(), arch::abi_x86_64()).src_image);
    }
    return v;
  }();
  return images;
}

void set_per_msg(benchmark::State& state) {
  const auto msgs = static_cast<double>(state.iterations() * kSendBurst);
  state.counters["per_msg"] = benchmark::Counter(
      msgs, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

void BM_LoopbackSend(benchmark::State& state) {
  const auto& images = send_images();
  auto [tx, rx] = transport::make_loopback_pair();
  const std::uint8_t header[kDataHeaderSize] = {kFrameData};
  std::vector<FrameBuf> held(kSendBurst);
  for (auto _ : state) {
    for (std::size_t i = 0; i < kSendBurst; ++i) {
      const std::span<const std::uint8_t> segs[] = {
          header, images[i % images.size()]};
      if (!tx->send_gather(segs).is_ok()) state.SkipWithError("send");
    }
    for (FrameBuf& f : held) f = std::move(rx->recv_buf()).take();
    for (FrameBuf& f : held) f.reset();
  }
  set_per_msg(state);
}
BENCHMARK(BM_LoopbackSend);

void BM_PooledMemcpy(benchmark::State& state) {
  const auto& images = send_images();
  const std::uint8_t header[kDataHeaderSize] = {kFrameData};
  std::vector<FrameBuf> held(kSendBurst);
  for (auto _ : state) {
    for (std::size_t i = 0; i < kSendBurst; ++i) {
      const std::vector<std::uint8_t>& image = images[i % images.size()];
      FrameBuf f = BufferPool::shared().lease(kDataHeaderSize + image.size());
      std::memcpy(f.data(), header, kDataHeaderSize);
      std::memcpy(f.data() + kDataHeaderSize, image.data(), image.size());
      held[i] = std::move(f);
    }
    benchmark::ClobberMemory();
    for (FrameBuf& f : held) f.reset();
  }
  set_per_msg(state);
}
BENCHMARK(BM_PooledMemcpy);

// The in-process message's fixed cost: hetero_bulk's sparc_v8 mech record
// (range 1: 1 KB, 2: 10 KB) written with write_image, carried by a
// LoopbackChannel, received with next_batch and decoded with decode_into,
// in bursts of kSendBurst. BM_CopyThenRun is its floor: a memcpy of the
// same frame plus CompiledConvert::run on the same plan. `per_msg` is
// seconds per message; `hist_per_msg` counts histogram samples (one per
// span, two clock reads each) and `counter_per_msg` counter series moves,
// a series moving at most once per message, both from snapshot deltas.
void set_obs_per_msg(benchmark::State& state, const obs::Snapshot& before) {
  const obs::Snapshot after = obs::snapshot();
  const double msgs = static_cast<double>(state.iterations() * kSendBurst);
  double hist = 0;
  for (const obs::HistogramSample& h : after.histograms) {
    const obs::HistogramSample* b = before.find_histogram(h.name);
    hist += static_cast<double>(h.count - (b == nullptr ? 0 : b->count));
  }
  double moves = 0;
  for (const obs::CounterSample& c : after.counters) {
    const obs::CounterSample* b = before.find_counter(c.name);
    moves += std::min(
        msgs, static_cast<double>(c.value - (b == nullptr ? 0 : b->value)));
  }
  state.counters["hist_per_msg"] = hist / msgs;
  state.counters["counter_per_msg"] = moves / msgs;
}

void BM_InProcessMessage(benchmark::State& state) {
  const Workload& w = workload(static_cast<Size>(state.range(0)),
                               arch::abi_sparc_v8(), arch::abi_x86_64());
  Context wctx;
  Context rctx;
  auto [tx, rx] = transport::make_loopback_pair();
  Writer writer(wctx, *tx);
  Reader reader(rctx, *rx);
  const Context::FormatId wire = wctx.register_format(w.src_fmt);
  reader.expect(rctx.register_format(w.dst_fmt));
  std::vector<std::uint8_t> out(w.dst_fmt.fixed_size);
  std::vector<Message> msgs(kSendBurst);
  const auto burst = [&] {
    for (std::size_t i = 0; i < kSendBurst; ++i) {
      if (!writer.write_image(wire, w.src_image).is_ok()) {
        state.SkipWithError("write");
      }
    }
    for (std::size_t got = 0; got < kSendBurst;) {
      auto n = reader.next_batch(msgs);
      if (!n.is_ok()) return state.SkipWithError("next_batch");
      for (std::size_t i = 0; i < n.value(); ++i, ++got) {
        if (!msgs[i].decode_into(out.data(), out.size()).is_ok()) {
          state.SkipWithError("decode");
        }
      }
    }
  };
  burst();  // announces the format and tiers the pair up to generated code
  const obs::Snapshot before = obs::snapshot();
  for (auto _ : state) burst();
  set_per_msg(state);
  set_obs_per_msg(state, before);
}
BENCHMARK(BM_InProcessMessage)->DenseRange(1, 2);

void BM_CopyThenRun(benchmark::State& state) {
  const Workload& w = workload(static_cast<Size>(state.range(0)),
                               arch::abi_sparc_v8(), arch::abi_x86_64());
  const vcode::CompiledConvert dcg(
      convert::compile_plan(w.src_fmt, w.dst_fmt));
  const std::uint8_t header[kDataHeaderSize] = {kFrameData};
  std::vector<std::uint8_t> frame(kDataHeaderSize + w.src_image.size());
  std::vector<std::uint8_t> out(w.dst_fmt.fixed_size);
  Arena arena;
  convert::ExecInput in;
  in.src = frame.data() + kDataHeaderSize;
  in.src_size = w.src_image.size();
  in.dst = out.data();
  in.dst_size = out.size();
  in.mode = convert::VarMode::kPointers;
  in.arena = &arena;
  in.borrow_from_src = true;
  const obs::Snapshot before = obs::snapshot();
  for (auto _ : state) {
    for (std::size_t i = 0; i < kSendBurst; ++i) {
      std::memcpy(frame.data(), header, kDataHeaderSize);
      std::memcpy(frame.data() + kDataHeaderSize, w.src_image.data(),
                  w.src_image.size());
      benchmark::DoNotOptimize(dcg.run(in));
    }
    benchmark::ClobberMemory();
  }
  set_per_msg(state);
  set_obs_per_msg(state, before);
}
BENCHMARK(BM_CopyThenRun)->DenseRange(1, 2);

}  // namespace
}  // namespace pbio::bench

BENCHMARK_MAIN();
