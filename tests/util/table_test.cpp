#include "src/util/table.h"

#include <gtest/gtest.h>

#include <sstream>

namespace tc::util {
namespace {

TEST(AsciiTable, PrintsAlignedColumns) {
  AsciiTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("| name "), std::string::npos);
  EXPECT_NE(s.find("| longer-name "), std::string::npos);
  // Header separator lines present.
  EXPECT_NE(s.find("+--"), std::string::npos);
}

TEST(AsciiTable, ShortRowsArePadded) {
  AsciiTable t({"a", "b", "c"});
  t.add_row({"only-one"});
  std::ostringstream os;
  t.print(os);
  EXPECT_EQ(t.rows(), 1u);
}

TEST(AsciiTable, CsvEscapesNothingButIsStable) {
  AsciiTable t({"h1", "h2"});
  t.add_row({"v1", "v2"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "h1,h2\nv1,v2\n");
}

TEST(Format, Double) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(-0.5, 0), "-0");
}

}  // namespace
}  // namespace tc::util
