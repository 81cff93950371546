#pragma once
/// \file report.hpp
/// Plain-text reporting: aligned tables, horizontal ASCII bar charts
/// (the stand-in for the paper's figures), and CSV emission so the data
/// behind every figure can be re-plotted.

#include <iosfwd>
#include <string>
#include <vector>

namespace syclport::report {

/// A rectangular table of strings with a header row, rendered with
/// aligned columns.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Append one row; must have the same arity as the header.
  void add_row(std::vector<std::string> row);

  /// Number of data rows.
  [[nodiscard]] std::size_t rows() const { return rows_.size(); }

  /// Render with column alignment and a rule under the header.
  void render(std::ostream& os) const;

  /// Emit as CSV (RFC-4180 quoting for commas/quotes/newlines).
  void write_csv(std::ostream& os) const;

  /// Convenience: write CSV to `path`; returns false on I/O failure.
  bool save_csv(const std::string& path) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// One bar of a bar chart. `value <= 0` with a non-empty `note` renders
/// the note instead of a bar (used for failed/unsupported variants,
/// mirroring the gaps in the paper's figures).
struct Bar {
  std::string label;
  double value = 0.0;
  std::string note;
};

/// A group of bars under a common title (one application cluster in the
/// paper's runtime figures).
struct BarGroup {
  std::string title;
  std::vector<Bar> bars;
};

/// Render grouped horizontal bars scaled to `width` characters, with the
/// numeric value (formatted with `unit`) after each bar.
void render_bars(std::ostream& os, const std::vector<BarGroup>& groups,
                 const std::string& unit, int width = 48);

/// Format helpers.
[[nodiscard]] std::string fmt(double v, int precision = 2);
[[nodiscard]] std::string fmt_percent(double fraction, int precision = 1);
/// Exact rendering of a double: shortest round-trip-safe decimal
/// (%.17g) plus its IEEE-754 bit pattern, e.g.
/// "271.59744183417267 (0x4070f98eb1d123c5)". Two values print the same
/// iff they are bit-identical.
[[nodiscard]] std::string exact(double v);

}  // namespace syclport::report
