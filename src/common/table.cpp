#include "common/table.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/error.h"
#include "common/units.h"

namespace memcim {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  MEMCIM_CHECK_MSG(!headers_.empty(), "table needs at least one column");
}

void TextTable::add_row(std::vector<std::string> cells) {
  MEMCIM_CHECK_MSG(cells.size() == headers_.size(),
                   "row has " << cells.size() << " cells, table has "
                              << headers_.size() << " columns");
  rows_.push_back(std::move(cells));
}

std::string TextTable::to_text() const {
  std::vector<std::size_t> width(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(width[c])) << row[c];
      os << (c + 1 < row.size() ? "  " : "");
    }
    os << '\n';
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c)
    os << std::string(width[c], '-') << (c + 1 < headers_.size() ? "  " : "");
  os << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string sci_string(double value, int precision) {
  std::ostringstream os;
  os << std::scientific << std::setprecision(precision) << value;
  return os.str();
}

std::string fixed_string(double value, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << value;
  return os.str();
}

std::string si_string(double value, const std::string& unit, int precision) {
  static constexpr struct {
    double scale;
    const char* prefix;
  } kPrefixes[] = {
      {1e12, "T"}, {1e9, "G"}, {1e6, "M"}, {1e3, "k"},  {1.0, ""},
      {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"},
  };
  if (value == 0.0) return "0 " + unit;
  const double mag = std::abs(value);
  for (const auto& p : kPrefixes) {
    if (mag >= p.scale) {
      std::ostringstream os;
      os << std::setprecision(precision) << (value / p.scale) << ' ' << p.prefix
         << unit;
      return os.str();
    }
  }
  return sci_string(value) + ' ' + unit;
}

}  // namespace memcim
