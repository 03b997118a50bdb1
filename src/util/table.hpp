// Aligned plain-text tables: `dtnsim run` and `dtnsim sweep` print their
// results through them.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace dtn::util {

/// Column-aligned text table. Cells are strings; numeric helpers format
/// with a fixed precision. Rendered with a header rule, suitable for logs.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  /// Starts a new row; subsequent add_cell calls fill it left to right.
  TablePrinter& new_row();
  TablePrinter& add_cell(std::string value);
  TablePrinter& add_cell(double value, int precision = 4);
  TablePrinter& add_cell(long long value);

  /// Renders the table (header, rule, rows) to the stream.
  void render(std::ostream& os) const;
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision.
std::string format_double(double v, int precision);

}  // namespace dtn::util
