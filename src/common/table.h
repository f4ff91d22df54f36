// Text table rendering used by every bench binary to print the
// paper's tables and figure series in a uniform, aligned format.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace memcim {

/// A simple column-aligned text table.
///
/// Cells are stored as strings; numeric helpers format through
/// `si_string`/scientific notation so bench output stays readable.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Append a row; must have exactly as many cells as there are headers.
  void add_row(std::vector<std::string> cells);

  [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

  /// Render with aligned columns and a header rule.
  [[nodiscard]] std::string to_text() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Format in scientific notation with `precision` significant decimals,
/// e.g. 2.0210e-06 — the notation Table 2 of the paper uses.
[[nodiscard]] std::string sci_string(double value, int precision = 4);

/// Format with fixed decimals.
[[nodiscard]] std::string fixed_string(double value, int precision = 3);

}  // namespace memcim
