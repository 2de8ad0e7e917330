#include "src/util/table.h"

#include <algorithm>
#include <cstdio>

namespace rs::util {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)), aligns_(header_.size(), Align::kLeft) {}

void TextTable::set_align(std::size_t idx, Align a) {
  if (idx < aligns_.size()) aligns_[idx] = a;
}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

void TextTable::add_separator() { separators_.push_back(rows_.size()); }

std::string TextTable::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t i = 0; i < header_.size(); ++i) widths[i] = header_[i].size();
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      widths[i] = std::max(widths[i], row[i].size());
    }
  }

  auto rule = [&] {
    std::string s;
    for (std::size_t i = 0; i < widths.size(); ++i) {
      if (i != 0) s += "-+-";
      s.append(widths[i], '-');
    }
    s += '\n';
    return s;
  };
  auto emit_row = [&](const std::vector<std::string>& row) {
    std::string s;
    for (std::size_t i = 0; i < widths.size(); ++i) {
      if (i != 0) s += " | ";
      const std::string& cell = i < row.size() ? row[i] : header_[i];
      const std::size_t pad = widths[i] - cell.size();
      if (aligns_[i] == Align::kRight) s.append(pad, ' ');
      s += cell;
      if (aligns_[i] == Align::kLeft) s.append(pad, ' ');
    }
    while (!s.empty() && s.back() == ' ') s.pop_back();
    s += '\n';
    return s;
  };

  std::string out = emit_row(header_);
  out += rule();
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (std::find(separators_.begin(), separators_.end(), r) !=
        separators_.end()) {
      out += rule();
    }
    out += emit_row(rows_[r]);
  }
  return out;
}

namespace {
std::string csv_cell(const std::string& cell) {
  if (cell.find_first_of(",\"\n\r") == std::string::npos) return cell;
  std::string out = "\"";
  for (char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}
}  // namespace

std::string TextTable::render_csv() const {
  std::string out;
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < header_.size(); ++i) {
      if (i != 0) out += ',';
      if (i < row.size()) out += csv_cell(row[i]);
    }
    out += '\n';
  };
  emit(header_);
  for (const auto& row : rows_) emit(row);
  return out;
}

std::string fmt_double(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

std::string fmt_percent(double fraction) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f%%", fraction * 100.0);
  return buf;
}

}  // namespace rs::util
