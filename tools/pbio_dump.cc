// pbio_dump — inspect a PBIO frame log without any a-priori format
// knowledge: every record prints through the reflection API.
//
//   pbio_dump <frame-log> [--formats] [--max N] [--disasm FORMAT]
//   pbio_dump --flight <dump-file>
//     --formats  also print each format description as it is announced
//     --max N    stop after N records
//     --flight   read a fault flight-recorder dump (obs::flight_dump, the
//                file a crashed/SIGUSR2'd broker wrote) instead of a frame
//                log: events merge-sorted by time, one line each
//     --disasm FORMAT
//                after reading the log, compile the conversion from wire
//                format FORMAT to this host's native layout and print the
//                generated code as a lifted instruction trace — annotated
//                with the emitter's macro ranges and label binds — plus the
//                translation-validation verdict for the buffer.
//
// Create a log with transport::FileWriteChannel + pbio::Writer (see
// tests/file_channel_test.cc or the visualization example).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <algorithm>
#include <vector>

#include "arch/layout.h"
#include "obs/flight.h"
#include "pbio/pbio.h"
#include "verify/tval/decode.h"
#include "verify/tval/tval.h"

namespace {

using pbio::arch::CType;
using pbio::fmt::BaseType;

/// Reverse of arch::layout_format: recover a portable struct spec from a
/// wire format description so it can be re-laid-out under the host ABI.
CType ctype_for(const pbio::fmt::FieldDesc& fd) {
  switch (fd.base) {
    case BaseType::kChar:
      return CType::kChar;
    case BaseType::kString:
      return CType::kString;
    case BaseType::kFloat:
      return fd.elem_size == 4 ? CType::kFloat : CType::kDouble;
    case BaseType::kInt:
      switch (fd.elem_size) {
        case 1: return CType::kSChar;
        case 2: return CType::kShort;
        case 4: return CType::kInt;
        default: return CType::kLongLong;
      }
    case BaseType::kUInt:
      switch (fd.elem_size) {
        case 1: return CType::kUChar;
        case 2: return CType::kUShort;
        case 4: return CType::kUInt;
        default: return CType::kULongLong;
      }
    case BaseType::kStruct:
      break;
  }
  return CType::kInt;
}

pbio::arch::StructSpec to_spec(const pbio::fmt::FormatDesc& f) {
  pbio::arch::StructSpec spec;
  spec.name = f.name;
  for (const auto& sub : f.subformats) {
    spec.subs.push_back(to_spec(sub));
  }
  for (const auto& fd : f.fields) {
    pbio::arch::SpecField sf;
    sf.name = fd.name;
    sf.array_elems = fd.static_elems;
    sf.var_dim_field = fd.var_dim_field;
    if (fd.is_struct()) {
      sf.subformat = fd.subformat;
    } else {
      sf.type = ctype_for(fd);
    }
    spec.fields.push_back(std::move(sf));
  }
  return spec;
}

/// Print the generated conversion code for `wire` -> host layout as a
/// decoded instruction listing with emission annotations, then the tval
/// verdict. Returns a process exit code.
int disassemble(const pbio::fmt::FormatDesc& wire) {
  namespace tval = pbio::verify::tval;
  const auto host =
      pbio::arch::layout_format(to_spec(wire), pbio::arch::abi_host());
  const auto plan = pbio::convert::compile_plan(wire, host);
  std::printf("%s", plan.describe().c_str());
  pbio::vcode::CompiledConvert cc(plan);
  if (cc.code_size() == 0) {
    std::printf("-- no native code generated on this host\n");
    return 0;
  }

  const auto dec = tval::decode(cc.code());
  const auto& notes = cc.macro_notes();
  const auto& labels = cc.label_offsets();
  std::size_t note_i = 0;
  for (const auto& inst : dec.insts) {
    while (note_i < notes.size() && notes[note_i].off <= inst.off) {
      if (notes[note_i].off == inst.off) {
        std::printf("              ; %s\n", notes[note_i].macro);
      }
      ++note_i;
    }
    for (std::size_t li = 0; li < labels.size(); ++li) {
      if (labels[li] == inst.off) std::printf("L%zu:\n", li);
    }
    std::printf("  +0x%04zx  %s\n", inst.off, tval::to_string(inst).c_str());
  }
  if (!dec.ok) {
    std::printf("  +0x%04zx  <decode failed: %s>\n", dec.fail_off,
                dec.error.c_str());
  }
  std::printf("-- %zu bytes, %zu instructions\n", cc.code_size(),
              dec.insts.size());
  std::printf("-- %s\n", cc.tval_report().to_string().c_str());
  return cc.tval_report().ok ? 0 : 1;
}

int usage() {
  std::fprintf(stderr, "usage: pbio_dump <frame-log> [--formats] [--max N] "
                       "[--disasm FORMAT] | pbio_dump --flight <dump-file>\n");
  return 2;
}

/// Render a flight-recorder dump as a single time-sorted event listing.
int dump_flight(const char* path) {
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) {
    std::fprintf(stderr, "pbio_dump: cannot open %s\n", path);
    return 1;
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);

  std::vector<pbio::obs::FlightEvent> events;
  if (!pbio::obs::flight_parse(text, &events)) {
    std::fprintf(stderr, "pbio_dump: %s is not a flight dump\n", path);
    return 1;
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const pbio::obs::FlightEvent& a,
                      const pbio::obs::FlightEvent& b) { return a.ns < b.ns; });
  const std::uint64_t t0 = events.empty() ? 0 : events.front().ns;
  for (const auto& e : events) {
    std::printf("+%12.6fms tid=%u %-14s a=%llu b=%llu\n",
                static_cast<double>(e.ns - t0) / 1e6, e.tid,
                pbio::obs::flight_kind_name(e.kind),
                static_cast<unsigned long long>(e.a),
                static_cast<unsigned long long>(e.b));
  }
  std::printf("-- %zu events\n", events.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const char* path = nullptr;
  const char* disasm_format = nullptr;
  bool show_formats = false;
  bool flight = false;
  long max_records = -1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--flight") == 0) {
      flight = true;
    } else if (std::strcmp(argv[i], "--formats") == 0) {
      show_formats = true;
    } else if (std::strcmp(argv[i], "--max") == 0 && i + 1 < argc) {
      max_records = std::strtol(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--disasm") == 0 && i + 1 < argc) {
      disasm_format = argv[++i];
    } else if (argv[i][0] != '-' && path == nullptr) {
      path = argv[i];
    } else {
      return usage();
    }
  }
  if (path == nullptr) {
    return usage();
  }
  if (flight) {
    return dump_flight(path);
  }

  auto ch = pbio::transport::FileReadChannel::open(path);
  if (!ch.is_ok()) {
    std::fprintf(stderr, "pbio_dump: %s\n", ch.status().to_string().c_str());
    return 1;
  }

  pbio::Context ctx;
  pbio::Reader reader(ctx, *ch.value());
  long count = 0;
  std::size_t formats_seen = 0;
  while (max_records < 0 || count < max_records) {
    auto msg = reader.next();
    if (!msg.is_ok()) {
      if (msg.status().code() == pbio::Errc::kChannelClosed) break;
      std::fprintf(stderr, "pbio_dump: %s\n",
                   msg.status().to_string().c_str());
      return 1;
    }
    if (show_formats && reader.formats_learned() != formats_seen) {
      formats_seen = reader.formats_learned();
      std::printf("%s", pbio::fmt::describe(msg.value().wire_format()).c_str());
    }
    if (disasm_format != nullptr) {
      ++count;
      continue;  // only the format announcements matter for --disasm
    }
    auto rec = msg.value().reflect();
    if (!rec.is_ok()) {
      std::fprintf(stderr, "pbio_dump: record %ld: %s\n", count,
                   rec.status().to_string().c_str());
      return 1;
    }
    std::printf("#%ld %s %s\n", count, msg.value().format_name().c_str(),
                pbio::value::Value(rec.value()).to_string().c_str());
    ++count;
  }
  if (disasm_format != nullptr) {
    const auto* wire = ctx.find_by_name(disasm_format);
    if (wire == nullptr) {
      std::fprintf(stderr, "pbio_dump: format '%s' not announced in %s\n",
                   disasm_format, path);
      return 1;
    }
    return disassemble(*wire);
  }
  std::printf("-- %ld records, %zu formats\n", count,
              reader.formats_learned());
  return 0;
}
