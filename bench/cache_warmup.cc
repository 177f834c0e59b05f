// cache_warmup — the fleet-scale conversion-artifact cache's reason to
// exist, measured: N "connections" (one conversion resolution each)
// sharing a handful of distinct format pairs.
//
//   private  — a Context per connection, so each owns its artifact
//              cache: compiles grow O(connections).
//   shared   — one Context for every connection (the broker's shape,
//              broker::Shared::ctx): one compile per distinct pair, no
//              matter how many connections resolve through it.
//
// Writes BENCH_cache.json.
//
//   cache_warmup [--connections N] [--pairs N] [--no-json]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "arch/layout.h"
#include "bench_support/harness.h"
#include "pbio/context.h"

namespace pbio::bench {
namespace {

/// Eight structurally distinct wire/native pairs (field mix varies per
/// pair), big-endian wire so every conversion carries real generated code.
std::vector<std::pair<fmt::FormatDesc, fmt::FormatDesc>> make_pairs(
    std::size_t n) {
  using arch::CType;
  std::vector<std::pair<fmt::FormatDesc, fmt::FormatDesc>> out;
  for (std::size_t i = 0; i < n; ++i) {
    arch::StructSpec s;
    s.name = "pair" + std::to_string(i);
    s.fields = {
        {.name = "seq", .type = CType::kInt},
        {.name = "vals",
         .type = CType::kDouble,
         .array_elems = 16 + static_cast<std::uint32_t>(8 * i)},
        {.name = "flags",
         .type = CType::kUInt,
         .array_elems = 4 + static_cast<std::uint32_t>(i)},
        {.name = "tag", .type = CType::kUShort},
    };
    out.emplace_back(arch::layout_format(s, arch::abi_sparc_v8()),
                     arch::layout_format(s, arch::abi_x86_64()));
  }
  return out;
}

struct RowResult {
  std::string mode;
  std::size_t connections = 0;
  std::size_t pairs = 0;
  std::uint64_t compiles = 0;
  double total_ms = 0.0;
  double us_per_conn = 0.0;
};

/// A connection's resolution of `pair` through `ctx`; returns the
/// compiles it caused.
std::uint64_t resolve(Context& ctx,
                      const std::pair<fmt::FormatDesc, fmt::FormatDesc>& pair) {
  const std::uint64_t before = ctx.stats().conversions_compiled;
  auto conv = ctx.try_conversion(ctx.register_format(pair.first),
                                 ctx.register_format(pair.second));
  if (!conv.is_ok()) {
    std::fprintf(stderr, "cache_warmup: %s\n",
                 conv.status().to_string().c_str());
    std::exit(1);
  }
  return ctx.stats().conversions_compiled - before;
}

/// One pass: every "connection" resolves its pair (round-robin over the
/// pair set), through a Context of its own or through the one `shared`.
RowResult run_pass(
    const std::string& mode, std::size_t connections,
    const std::vector<std::pair<fmt::FormatDesc, fmt::FormatDesc>>& pairs,
    bool shared) {
  RowResult row;
  row.mode = mode;
  row.connections = connections;
  row.pairs = pairs.size();

  Context fleet;
  Stopwatch sw;
  for (std::size_t c = 0; c < connections; ++c) {
    const auto& pair = pairs[c % pairs.size()];
    if (shared) {
      row.compiles += resolve(fleet, pair);
    } else {
      Context own;
      row.compiles += resolve(own, pair);
    }
  }
  row.total_ms = static_cast<double>(sw.elapsed_ns()) / 1e6;
  row.us_per_conn =
      connections > 0 ? row.total_ms * 1000.0 / static_cast<double>(connections)
                      : 0.0;
  return row;
}

int run(std::size_t connections, std::size_t npairs, bool write_json) {
  bench::print_header("Cache warmup",
                      "JIT compiles per fleet cold start: private vs shared");
  const auto pairs = make_pairs(npairs);

  std::vector<RowResult> rows;
  rows.push_back(run_pass("private", connections, pairs, false));
  rows.push_back(run_pass("shared", connections, pairs, true));

  bench::Table t("Fleet cold start (" + std::to_string(connections) +
                     " connections, " + std::to_string(npairs) +
                     " distinct pairs)",
                 {"mode", "compiles", "total_ms", "us/conn"});
  for (const RowResult& r : rows) {
    char total[32], per[32];
    std::snprintf(total, sizeof total, "%.1f", r.total_ms);
    std::snprintf(per, sizeof per, "%.1f", r.us_per_conn);
    t.add_row({r.mode, std::to_string(r.compiles), total, per});
  }
  t.print();

  const bool shared_ok = rows[1].compiles == npairs;
  std::printf("\nshared-context target (compiles == %zu pairs): %s\n",
              npairs, shared_ok ? "met" : "MISSED");

  if (write_json) {
    std::vector<JsonFields> json;
    for (const RowResult& r : rows) {
      json.push_back({{"mode", json_str(r.mode)},
                      {"connections", std::to_string(r.connections)},
                      {"pairs", std::to_string(r.pairs)},
                      {"compiles", std::to_string(r.compiles)},
                      {"total_ms", json_num(r.total_ms, 2)},
                      {"us_per_conn", json_num(r.us_per_conn, 2)}});
    }
    if (!write_bench_json(
            "BENCH_cache.json", "cache_warmup",
            {{"connections", std::to_string(connections)},
             {"pairs", std::to_string(npairs)}},
            json)) {
      return 1;
    }
  }

  return shared_ok ? 0 : 1;
}

}  // namespace
}  // namespace pbio::bench

int main(int argc, char** argv) {
  std::size_t connections = 10000;
  std::size_t pairs = 8;
  bool write_json = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--connections") == 0 && i + 1 < argc) {
      connections = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--pairs") == 0 && i + 1 < argc) {
      pairs = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--no-json") == 0) {
      write_json = false;
    } else {
      std::fprintf(stderr,
                   "usage: cache_warmup [--connections N] [--pairs N] "
                   "[--no-json]\n");
      return 2;
    }
  }
  if (pairs == 0) pairs = 1;
  return pbio::bench::run(connections, pairs, write_json);
}
