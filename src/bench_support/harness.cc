#include "bench_support/harness.h"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <sstream>
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

std::string fmt_ms(double ms) {
  char buf[32];
  if (ms < 0.01) {
    std::snprintf(buf, sizeof(buf), "%.4f", ms);
  } else if (ms < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.3f", ms);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f", ms);
  }
  return buf;
}

std::string fmt_us(double us) {
  char buf[32];
  if (us < 10.0) {
    std::snprintf(buf, sizeof(buf), "%.2fus", us);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fus", us);
  }
  return buf;
}

std::string fmt_us4(double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", us);
  return buf;
}

std::string fmt_ratio(double r) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1fx", r);
  return buf;
}

std::string fmt_bytes(std::uint64_t n) { return std::to_string(n); }

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
