// google-benchmark microbenchmarks for the core primitives: conversion
// engines at each op granularity, plan compilation, DCG codegen, format
// meta codec, the XML SAX parser, and the loopback send against its pooled
// memcpy floor. Complements the figure benches with statistically-managed
// per-op numbers.
#include <benchmark/benchmark.h>

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

}  // namespace
}  // namespace pbio::bench

BENCHMARK_MAIN();
