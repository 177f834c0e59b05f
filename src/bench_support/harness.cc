#include "bench_support/harness.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <utility>

namespace pbio::bench {

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    widths[c] = columns_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  os << "\n== " << title_ << " ==\n";
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      os << (c == 0 ? "" : "  ") << std::left << std::setw(static_cast<int>(widths[c]))
         << cell;
    }
    os << "\n";
  };
  print_row(columns_);
  std::string rule;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    rule += std::string(widths[c], '-');
    if (c + 1 != widths.size()) rule += "  ";
  }
  os << rule << "\n";
  for (const auto& row : rows_) print_row(row);
  os.flush();
}

std::string fmt_us(double ns) {
  const double us = ns / 1e3;
  // Two decimals at 1-10 µs and one more per decade below, so the third
  // significant digit always shows.
  const int decade =
      us == 0 ? 0 : static_cast<int>(std::floor(std::log10(std::fabs(us))));
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", std::max(0, 2 - decade), us);
  return buf;
}

std::string fmt_ratio(double r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fx", r);
  return buf;
}

std::string fmt_bytes(std::uint64_t n) { return std::to_string(n); }

std::string json_num(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

namespace {

std::string json_object(const JsonFields& fields) {
  std::string out = "{";
  for (const auto& [key, value] : fields) {
    if (out.size() > 1) out += ", ";
    out += json_str(key) + ": " + value;
  }
  return out + "}";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      std::string model = line.substr(colon + 1);
      model.erase(0, model.find_first_not_of(' '));
      return model;
    }
  }
  return "unknown";
}

}  // namespace

bool write_bench_json(const std::string& path, std::string_view bench,
                      const JsonFields& params,
                      const std::vector<JsonFields>& rows) {
  JsonFields doc = {
      {"bench", json_str(bench)},
      {"host", json_object({{"cpu_model", json_str(cpu_model())},
                            {"nproc", std::to_string(::sysconf(
                                          _SC_NPROCESSORS_ONLN))},
                            {"build_type", json_str(PBIO_BUILD_TYPE)}})}};
  doc.insert(doc.end(), params.begin(), params.end());
  std::string rows_json = "[";
  for (const JsonFields& row : rows) {
    rows_json += (rows_json.size() > 1 ? ",\n    " : "\n    ") +
                 json_object(row);
  }
  doc.emplace_back("rows", rows_json + "\n  ]");
  std::ofstream out(path);
  for (std::size_t i = 0; i < doc.size(); ++i) {
    out << (i == 0 ? "{\n  " : ",\n  ") << json_str(doc[i].first) << ": "
        << doc[i].second;
  }
  out << "\n}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s (%zu rows)\n", path.c_str(), rows.size());
  return true;
}

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

double median_ratio(const std::vector<double>& num,
                    const std::vector<double>& den) {
  std::vector<double> ratio(num.size());
  for (std::size_t r = 0; r < num.size(); ++r) ratio[r] = num[r] / den[r];
  return median(std::move(ratio));
}

void print_header(const std::string& figure, const std::string& summary) {
  std::cout << "################################################\n"
            << "# " << figure << "\n"
            << "# " << summary << "\n"
            << "################################################\n";
}

}  // namespace pbio::bench
