#include "core/report.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace syclport::report {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

void Table::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size())
    throw std::invalid_argument("Table::add_row: arity mismatch");
  rows_.push_back(std::move(row));
}

void Table::render(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c)
    widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c])) << row[c];
      os << (c + 1 == row.size() ? "\n" : "  ");
    }
  };
  emit_row(header_);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << "\n";
  for (const auto& row : rows_) emit_row(row);
}

namespace {
std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}
}  // namespace

void Table::write_csv(std::ostream& os) const {
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << csv_escape(row[c]);
      os << (c + 1 == row.size() ? "\n" : ",");
    }
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
}

bool Table::save_csv(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write_csv(f);
  return static_cast<bool>(f);
}

void render_bars(std::ostream& os, const std::vector<BarGroup>& groups,
                 const std::string& unit, int width) {
  double vmax = 0.0;
  std::size_t lmax = 0;
  for (const auto& g : groups)
    for (const auto& b : g.bars) {
      vmax = std::max(vmax, b.value);
      lmax = std::max(lmax, b.label.size());
    }
  if (vmax <= 0.0) vmax = 1.0;

  for (const auto& g : groups) {
    os << g.title << "\n";
    for (const auto& b : g.bars) {
      os << "  " << std::left << std::setw(static_cast<int>(lmax)) << b.label
         << " |";
      if (b.value <= 0.0) {
        os << " (" << (b.note.empty() ? "n/a" : b.note) << ")\n";
        continue;
      }
      const int n = std::max(
          1, static_cast<int>(b.value / vmax * static_cast<double>(width)));
      os << std::string(static_cast<std::size_t>(n), '#') << " "
         << fmt(b.value) << " " << unit;
      if (!b.note.empty()) os << "  (" << b.note << ")";
      os << "\n";
    }
    os << "\n";
  }
}

std::string fmt(double v, int precision) {
  std::ostringstream ss;
  ss << std::fixed << std::setprecision(precision) << v;
  return ss.str();
}

std::string fmt_percent(double fraction, int precision) {
  return fmt(fraction * 100.0, precision) + "%";
}

std::string exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g (0x%016llx)", v,
                static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
  return buf;
}

}  // namespace syclport::report
