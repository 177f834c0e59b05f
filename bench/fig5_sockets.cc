// Figure 5 companion: *real* round trips over kernel TCP (loopback), not
// the analytic network model — includes framing, syscalls and scheduler
// effects (the paper notes "most of the cost of receiving data is actually
// caused by the overhead of the kernel select() call" for small records).
//
// Three systems echo the same records, each over its own live connection
// whose peer thread echoes until the connection closes:
//  * PBIO: Writer/Reader + DCG decode into the native struct on each side,
//  * MPICH-style: mpilite pack -> send -> recv -> unpack on each side,
//  * raw: untyped byte echo (the transport floor).
// The three round trips are timed against each other in alternating
// rounds (bench_support/harness.h); each cell is a median in µs. The
// client and every echo thread share one CPU, as in perfbench's
// broker_echo.
#include <sched.h>

#include <cstdio>
#include <memory>
#include <thread>

#include "baselines/mpilite/comm.h"
#include "bench_support/harness.h"
#include "bench_support/workload.h"
#include "pbio/pbio.h"
#include "transport/socket.h"

namespace pbio::bench {
namespace {

/// A live TCP-loopback connection; a peer thread runs `echo` on the other
/// end until the connection closes, which the destructor does.
class Link {
 public:
  template <typename Echo>
  explicit Link(Echo echo) {
    transport::SocketListener listener;
    peer_ = std::thread([echo, port = listener.port()]() mutable {
      auto ch = transport::socket_connect(port);
      if (ch.is_ok()) echo(*ch.value());
    });
    auto accepted = listener.accept();
    if (accepted.is_ok()) ch_ = std::move(accepted.value());
  }
  ~Link() {
    ch_.reset();
    peer_.join();
  }
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  bool ok() const { return ch_ != nullptr; }
  transport::SocketChannel& channel() { return *ch_; }

 private:
  std::unique_ptr<transport::SocketChannel> ch_;
  std::thread peer_;
};

/// Pin the calling thread to one CPU, the second it may run on (the only
/// one on a single-CPU host); threads it starts later inherit the pin.
/// With the echo threads free to wake on another CPU, the 100 B-1 KB round
/// trips were bimodal (~12 or ~26 µs) by where the scheduler put them.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  const int want = CPU_COUNT(&allowed) > 1 ? 1 : 0;
  for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || seen++ != want) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

/// Per-round differences a[r] - b[r].
std::vector<double> minus(const std::vector<double>& a,
                          const std::vector<double>& b) {
  std::vector<double> d(a.size());
  for (std::size_t r = 0; r < d.size(); ++r) d[r] = a[r] - b[r];
  return d;
}

int run() {
  pin_to_one_cpu();
  print_header("Figure 5 (sockets)",
               "Real TCP-loopback round trips (incl. kernel path); median "
               "us over alternating rounds");
  Table table("Socket roundtrips (us)",
              {"size", "raw_echo", "PBIO", "MPICH", "PBIO_overhead",
               "MPICH_overhead", "PBIO/MPICH"});
  for (Size s : all_sizes()) {
    // Heterogeneous pair: "sparc" client record images, x86-64 peer.
    Context ctx;
    const Workload w =
        make_workload(s, arch::abi_sparc_v8(), arch::abi_x86_64());
    const auto wire_id = ctx.register_format(w.src_fmt);
    const auto native_id = ctx.register_format(w.dst_fmt);
    const auto dt_client = mpilite::datatype_for(w.src_fmt);
    const auto dt_peer = mpilite::datatype_for(w.dst_fmt);

    Link raw_link([](transport::SocketChannel& ch) {
      for (auto m = ch.recv_buf(); m.is_ok(); m = ch.recv_buf()) {
        if (!ch.send(m.value().view()).is_ok()) return;
      }
    });
    Link pbio_link([&ctx, &w, native_id](transport::SocketChannel& ch) {
      Reader r(ctx, ch);
      r.expect(native_id);
      Writer reply(ctx, ch);
      std::vector<std::uint8_t> native(w.dst_fmt.fixed_size);
      // Decode (DCG) then echo the record back in peer-native form.
      for (auto m = r.next(); m.is_ok(); m = r.next()) {
        if (!m.value().decode_into(native.data(), native.size()).is_ok() ||
            !reply.write_image(native_id, native).is_ok()) {
          return;
        }
      }
    });
    Link mpich_link([&w, &dt_peer](transport::SocketChannel& ch) {
      mpilite::Comm comm(ch);
      std::vector<std::uint8_t> native(w.dst_fmt.fixed_size);
      while (comm.recv(dt_peer, native.data(), native.size(), 1, 1).is_ok() &&
             comm.send(dt_peer, native.data(), 1, 1).is_ok()) {
      }
    });
    if (!raw_link.ok() || !pbio_link.ok() || !mpich_link.ok()) {
      std::fprintf(stderr, "%s: connection set-up failed\n", label(s));
      return 1;
    }

    int failures = 0;
    auto raw = [&] {
      if (!raw_link.channel().send(w.src_image).is_ok() ||
          !raw_link.channel().recv_buf().is_ok()) {
        ++failures;
      }
    };
    Writer wr(ctx, pbio_link.channel());
    Reader rd(ctx, pbio_link.channel());
    rd.expect(wire_id);
    auto pbio = [&] {
      if (!wr.write_image(wire_id, w.src_image).is_ok() ||
          !rd.next().is_ok()) {
        ++failures;
      }
    };
    mpilite::Comm comm(mpich_link.channel());
    std::vector<std::uint8_t> back(w.src_fmt.fixed_size);
    auto mpich = [&] {
      if (!comm.send(dt_client, w.src_image.data(), 1, 1).is_ok() ||
          !comm.recv(dt_client, back.data(), back.size(), 1, 1).is_ok()) {
        ++failures;
      }
    };
    const auto [t_raw, t_pbio, t_mpich] =
        alternating_rounds_ns(raw, pbio, mpich);
    if (failures != 0) {
      std::fprintf(stderr, "%s: %d round trips failed\n", label(s),
                   failures);
      return 1;
    }
    table.add_row({label(s), fmt_us(median(t_raw)), fmt_us(median(t_pbio)),
                   fmt_us(median(t_mpich)),
                   fmt_us(median(minus(t_pbio, t_raw))),
                   fmt_us(median(minus(t_mpich, t_raw))),
                   fmt_ratio(median_ratio(t_pbio, t_mpich))});
  }
  table.print();
  std::cout << "\n'overhead' = round trip minus the raw byte echo in the "
               "same round: the\nmarshalling cost each system adds on a "
               "real kernel path.\n";
  return 0;
}

}  // namespace
}  // namespace pbio::bench

int main() { return pbio::bench::run(); }
