// Figure 5 companion: *real* round trips over kernel TCP (loopback), not
// the analytic network model — includes framing, syscalls and scheduler
// effects (the paper notes "most of the cost of receiving data is actually
// caused by the overhead of the kernel select() call" for small records).
//
// Three systems echo the same records through a server thread:
//  * PBIO: Writer/Reader + DCG decode into the native struct on each side,
//  * MPICH-style: mpilite pack -> send -> recv -> unpack on each side,
//  * raw: untyped byte echo (the transport floor).
#include <thread>

#include "baselines/mpilite/comm.h"
#include "bench_support/harness.h"
#include "bench_support/workload.h"
#include "pbio/pbio.h"
#include "transport/socket.h"

namespace pbio::bench {
namespace {

constexpr int kRoundTrips = 200;

double pbio_roundtrip_ms(Size s) {
  // Heterogeneous pair: "sparc" client record images, x86-64 server decode.
  Context ctx;
  Workload w = make_workload(s, arch::abi_sparc_v8(), arch::abi_x86_64());
  const auto wire_id = ctx.register_format(w.src_fmt);
  const auto native_id = ctx.register_format(w.dst_fmt);

  transport::SocketListener listener;
  std::thread server([&ctx, native_id, wire_id, &w,
                      port = listener.port()] {
    auto ch = transport::socket_connect(port);
    if (!ch.is_ok()) return;
    Reader r(ctx, *ch.value());
    r.expect(native_id);
    Writer reply(ctx, *ch.value());
    std::vector<std::uint8_t> native(w.dst_fmt.fixed_size);
    for (int i = 0; i < kRoundTrips + 1; ++i) {
      auto msg = r.next();
      if (!msg.is_ok()) return;
      // Decode (DCG) then echo the record back in server-native form.
      if (!msg.value().decode_into(native.data(), native.size()).is_ok()) {
        return;
      }
      if (!reply.write_image(native_id, native).is_ok()) return;
    }
  });

  auto accepted = listener.accept();
  if (!accepted.is_ok()) {
    server.join();
    return -1;
  }
  Writer wr(ctx, *accepted.value());
  Reader rd(ctx, *accepted.value());
  rd.expect(wire_id);
  // Warm-up round trip (announcements + conversion compile).
  (void)wr.write_image(wire_id, w.src_image);
  (void)rd.next();

  Stopwatch sw;
  for (int i = 0; i < kRoundTrips; ++i) {
    (void)wr.write_image(wire_id, w.src_image);
    auto msg = rd.next();
    if (!msg.is_ok()) break;
  }
  const double total = sw.elapsed_ms();
  server.join();
  return total / kRoundTrips;
}

double mpich_roundtrip_ms(Size s) {
  Workload w = make_workload(s, arch::abi_sparc_v8(), arch::abi_x86_64());
  const auto dt_client = datatype_for(w.src_fmt);
  const auto dt_server = datatype_for(w.dst_fmt);

  transport::SocketListener listener;
  std::thread server([&, port = listener.port()] {
    auto ch = transport::socket_connect(port);
    if (!ch.is_ok()) return;
    mpilite::Comm comm(*ch.value());
    std::vector<std::uint8_t> native(w.dst_fmt.fixed_size);
    for (int i = 0; i < kRoundTrips + 1; ++i) {
      if (!comm.recv(dt_server, native.data(), native.size(), 1, 1).is_ok()) {
        return;
      }
      if (!comm.send(dt_server, native.data(), 1, 1).is_ok()) return;
    }
  });

  auto accepted = listener.accept();
  if (!accepted.is_ok()) {
    server.join();
    return -1;
  }
  mpilite::Comm comm(*accepted.value());
  std::vector<std::uint8_t> back(w.src_fmt.fixed_size);
  (void)comm.send(dt_client, w.src_image.data(), 1, 1);
  (void)comm.recv(dt_client, back.data(), back.size(), 1, 1);

  Stopwatch sw;
  for (int i = 0; i < kRoundTrips; ++i) {
    if (!comm.send(dt_client, w.src_image.data(), 1, 1).is_ok()) break;
    if (!comm.recv(dt_client, back.data(), back.size(), 1, 1).is_ok()) break;
  }
  const double total = sw.elapsed_ms();
  server.join();
  return total / kRoundTrips;
}

double raw_roundtrip_ms(Size s) {
  Workload w = make_workload(s, arch::abi_sparc_v8(), arch::abi_x86_64());
  transport::SocketListener listener;
  std::thread server([&, port = listener.port()] {
    auto ch = transport::socket_connect(port);
    if (!ch.is_ok()) return;
    for (int i = 0; i < kRoundTrips + 1; ++i) {
      auto msg = ch.value()->recv_buf();
      if (!msg.is_ok()) return;
      if (!ch.value()->send(msg.value().view()).is_ok()) return;
    }
  });
  auto accepted = listener.accept();
  if (!accepted.is_ok()) {
    server.join();
    return -1;
  }
  (void)accepted.value()->send(w.src_image);
  (void)accepted.value()->recv_buf();
  Stopwatch sw;
  for (int i = 0; i < kRoundTrips; ++i) {
    if (!accepted.value()->send(w.src_image).is_ok()) break;
    auto msg = accepted.value()->recv_buf();
    if (!msg.is_ok()) break;
  }
  const double total = sw.elapsed_ms();
  server.join();
  return total / kRoundTrips;
}

int run() {
  print_header("Figure 5 (sockets)",
               "Real TCP-loopback round trips (incl. kernel path); mean ms "
               "over 200 round trips");
  Table table("Socket roundtrips (ms)",
              {"size", "raw_echo", "PBIO", "MPICH", "PBIO_overhead",
               "MPICH_overhead", "PBIO/MPICH"});
  for (Size s : all_sizes()) {
    const double raw = raw_roundtrip_ms(s);
    const double pbio = pbio_roundtrip_ms(s);
    const double mpich = mpich_roundtrip_ms(s);
    table.add_row({label(s), fmt_ms(raw), fmt_ms(pbio), fmt_ms(mpich),
                   fmt_ms(pbio - raw), fmt_ms(mpich - raw),
                   fmt_ratio(pbio / mpich)});
  }
  table.print();
  std::cout << "\n'overhead' = round trip minus the raw byte echo: the "
               "marshalling cost each\nsystem adds on a real kernel path.\n";
  return 0;
}

}  // namespace
}  // namespace pbio::bench

int main() { return pbio::bench::run(); }
