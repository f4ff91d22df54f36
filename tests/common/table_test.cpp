#include "common/table.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace memcim {
namespace {

TEST(Table, AlignsColumnsAndAddsRule) {
  TextTable t({"Metric", "Value"});
  t.add_row({"energy", "1.5"});
  t.add_row({"delay-per-operation", "2"});
  const std::string text = t.to_text();
  // Header, rule, two rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
  EXPECT_NE(text.find("Metric"), std::string::npos);
  EXPECT_NE(text.find("-------"), std::string::npos);
  // All lines equally wide (aligned columns).
  std::size_t first_nl = text.find('\n');
  std::size_t second_nl = text.find('\n', first_nl + 1);
  EXPECT_EQ(first_nl, second_nl - first_nl - 1);
}

TEST(Table, RowArityEnforced) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), Error);
  EXPECT_EQ(t.row_count(), 0u);
}

TEST(Table, EmptyHeadersRejected) {
  EXPECT_THROW(TextTable{std::vector<std::string>{}}, Error);
}

}  // namespace
}  // namespace memcim
