#include "util/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

namespace dtn::util {

std::string format_double(double v, int precision) {
  std::ostringstream oss;
  oss << std::fixed << std::setprecision(precision) << v;
  return oss.str();
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

TablePrinter& TablePrinter::new_row() {
  rows_.emplace_back();
  return *this;
}

TablePrinter& TablePrinter::add_cell(std::string value) {
  if (rows_.empty()) rows_.emplace_back();
  rows_.back().push_back(std::move(value));
  return *this;
}

TablePrinter& TablePrinter::add_cell(double value, int precision) {
  return add_cell(format_double(value, precision));
}

TablePrinter& TablePrinter::add_cell(long long value) {
  return add_cell(std::to_string(value));
}

void TablePrinter::render(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string{};
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << cell;
    }
    os << '\n';
  };
  emit_row(headers_);
  std::size_t rule_len = 0;
  for (const auto w : widths) rule_len += w + 2;
  os << std::string(rule_len, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
}

std::string TablePrinter::to_string() const {
  std::ostringstream oss;
  render(oss);
  return oss.str();
}

}  // namespace dtn::util
