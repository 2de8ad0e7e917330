// Plain-text tables and CSV in one place.
//
// `rootstore report <name>` renders every table of the paper through
// TextTable::render, and the figure-data CSV exports (src/core/export.cpp,
// `rootstore report <name> --csv`) write theirs through render_csv.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace rs::util {

/// Column alignment for TextTable.
enum class Align { kLeft, kRight };

/// An aligned monospace table with a header row.
///
/// Usage:
///   TextTable t({"Root store", "Avg. Size"});
///   t.add_row({"NSS", "121.8"});
///   std::cout << t.render();
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  /// Sets the alignment of column `idx` (default left).
  void set_align(std::size_t idx, Align a);

  /// Appends a data row; missing cells render empty, extra cells are dropped.
  void add_row(std::vector<std::string> cells);

  /// Inserts a horizontal separator before the next added row.
  void add_separator();

  /// Renders with ASCII separators and 2-space padding.
  std::string render() const;

  /// Renders as RFC 4180 CSV: a cell holding a comma, quote, CR or LF is
  /// quoted, its quotes doubled.
  std::string render_csv() const;

  std::size_t row_count() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<Align> aligns_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::size_t> separators_;  // row indices preceded by a rule
};

/// Formats a double with `prec` decimals (fixed).
std::string fmt_double(double v, int prec);

/// Formats a percentage with one decimal ("77.0%").
std::string fmt_percent(double fraction);

}  // namespace rs::util
