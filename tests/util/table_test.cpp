#include "util/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace dtn::util {
namespace {

TEST(TablePrinter, RendersHeaderAndRows) {
  TablePrinter t({"name", "value"});
  t.new_row().add_cell(std::string("alpha")).add_cell(0.28, 2);
  t.new_row().add_cell(std::string("lambda")).add_cell(static_cast<long long>(10));
  const std::string out = t.to_string();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("0.28"), std::string::npos);
  EXPECT_NE(out.find("10"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TablePrinter, AddCellWithoutRowStartsOne) {
  TablePrinter t({"a"});
  t.add_cell(std::string("x"));
  EXPECT_EQ(t.rows(), 1u);
}

TEST(TablePrinter, ColumnsAligned) {
  TablePrinter t({"p", "q"});
  t.new_row().add_cell(std::string("longvalue")).add_cell(std::string("1"));
  t.new_row().add_cell(std::string("s")).add_cell(std::string("2"));
  std::istringstream lines(t.to_string());
  std::string header;
  std::string rule;
  std::string row1;
  std::string row2;
  std::getline(lines, header);
  std::getline(lines, rule);
  std::getline(lines, row1);
  std::getline(lines, row2);
  // The second column starts at the same offset in both rows.
  EXPECT_EQ(row1.find('1'), row2.find('2'));
}

TEST(FormatDouble, FixedPrecision) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 4), "1.0000");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace dtn::util
