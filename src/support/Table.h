//===- support/Table.h - Aligned table printing -----------------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal column-aligned table printer, plus the cell formats of the
/// paper's tables, for st-bench's paper views and the figure/example
/// programs that print tables on stdout.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_SUPPORT_TABLE_H
#define SMARTTRACK_SUPPORT_TABLE_H

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace st {

/// Collects rows of strings and prints them with aligned columns.
class TablePrinter {
public:
  explicit TablePrinter(std::vector<std::string> Header)
      : Header(std::move(Header)) {}

  void addRow(std::vector<std::string> Row) { Rows.push_back(std::move(Row)); }

  void print(FILE *Out = stdout) const {
    std::vector<size_t> Width(Header.size(), 0);
    auto Widen = [&Width](const std::vector<std::string> &Row) {
      for (size_t I = 0; I < Row.size(); ++I) {
        if (I >= Width.size())
          Width.resize(I + 1, 0);
        Width[I] = std::max(Width[I], Row[I].size());
      }
    };
    Widen(Header);
    for (const auto &Row : Rows)
      Widen(Row);

    auto PrintRow = [&](const std::vector<std::string> &Row) {
      for (size_t I = 0; I < Width.size(); ++I) {
        const std::string &Cell = I < Row.size() ? Row[I] : std::string();
        std::fprintf(Out, "%s%-*s", I ? "  " : "",
                     static_cast<int>(Width[I]), Cell.c_str());
      }
      std::fprintf(Out, "\n");
    };
    PrintRow(Header);
    size_t Total = 0;
    for (size_t W : Width)
      Total += W + 2;
    std::string Rule(Total > 2 ? Total - 2 : 0, '-');
    std::fprintf(Out, "%s\n", Rule.c_str());
    for (const auto &Row : Rows)
      PrintRow(Row);
  }

private:
  std::vector<std::string> Header;
  std::vector<std::vector<std::string>> Rows;
};

/// Formats "4.2x" / "12x" like the paper's tables (two significant digits),
/// with " ±h" when a confidence half-width is supplied.
inline std::string formatFactor(double Value, double CiHalfWidth = 0.0) {
  char Buf[64];
  if (Value >= 9.95)
    std::snprintf(Buf, sizeof(Buf), "%.0fx", Value);
  else
    std::snprintf(Buf, sizeof(Buf), "%.1fx", Value);
  std::string Out = Buf;
  if (CiHalfWidth > 0) {
    std::snprintf(Buf, sizeof(Buf), " ±%.2g", CiHalfWidth);
    Out += Buf;
  }
  return Out;
}

/// Formats "6 (425,515)": statically distinct races with the dynamic
/// count in parentheses.
inline std::string formatRaces(uint64_t Static, uint64_t Dynamic) {
  std::string Digits = std::to_string(Dynamic), Grouped;
  for (size_t I = 0; I != Digits.size(); ++I) {
    if (I && (Digits.size() - I) % 3 == 0)
      Grouped += ',';
    Grouped += Digits[I];
  }
  return std::to_string(Static) + " (" + Grouped + ")";
}

} // namespace st

#endif // SMARTTRACK_SUPPORT_TABLE_H
