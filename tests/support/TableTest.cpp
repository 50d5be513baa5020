//===- tests/support/TableTest.cpp - Table printing and cell formats ------===//

#include "support/Table.h"

#include <gtest/gtest.h>

using namespace st;

namespace {

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter T({"A", "LongHeader"});
  T.addRow({"wide-cell", "x"});
  T.addRow({"y", "z"});
  // Print to a memstream and inspect alignment.
  char *Buf = nullptr;
  size_t Len = 0;
  FILE *F = open_memstream(&Buf, &Len);
  T.print(F);
  std::fclose(F);
  std::string Out(Buf, Len);
  free(Buf);
  EXPECT_NE(Out.find("A          LongHeader"), std::string::npos) << Out;
  EXPECT_NE(Out.find("wide-cell  x"), std::string::npos) << Out;
  EXPECT_NE(Out.find("---"), std::string::npos);
}

TEST(TableFormatTest, FormatFactor) {
  EXPECT_EQ(formatFactor(4.23), "4.2x");
  EXPECT_EQ(formatFactor(12.7), "13x");
  EXPECT_EQ(formatFactor(9.94), "9.9x");
  EXPECT_NE(formatFactor(4.2, 0.3).find("±"), std::string::npos);
}

TEST(TableFormatTest, FormatRaces) {
  EXPECT_EQ(formatRaces(6, 425515), "6 (425,515)");
  EXPECT_EQ(formatRaces(1, 1), "1 (1)");
  EXPECT_EQ(formatRaces(0, 0), "0 (0)");
  EXPECT_EQ(formatRaces(2, 1000), "2 (1,000)");
}

} // namespace
