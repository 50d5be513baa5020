//===- support/Json.h - Minimal append-only JSON writer ---------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one JSON writer every report, tool, and wire encoder shares: a few
/// appenders that format a value straight into the caller's std::string,
/// with no per-field allocation. Callers lay out objects themselves
/// (braces, commas, literal keys, any whitespace); these helpers only
/// guarantee that every string is escaped and every number is spelled the
/// same way everywhere. Also the scanner clients use to read an integer
/// field back out of a one-line report.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_SUPPORT_JSON_H
#define SMARTTRACK_SUPPORT_JSON_H

#include <cstdint>
#include <string>
#include <string_view>

namespace st {

/// Appends \p S as a double-quoted JSON string (quotes included),
/// escaping quotes, backslashes, and control characters.
void jsonAppendEscaped(std::string &Out, std::string_view S);

/// Appends \p V in decimal. Counters and event indices never round-trip
/// through double, which would corrupt values past 2^53.
void jsonAppendUInt(std::string &Out, uint64_t V);

/// Appends \p V as printf "%.9g" (timings, rates, ratios).
void jsonAppendNumber(std::string &Out, double V);

/// Finds \p Key (e.g. "\"total_dynamic_races\":") in the one-line JSON
/// object \p Line and parses the unsigned integer right after it into
/// \p Out. Returns false, leaving \p Out alone, when the key is absent or
/// not followed by a digit.
bool jsonScanUInt(std::string_view Line, std::string_view Key,
                  uint64_t &Out);

} // namespace st

#endif // SMARTTRACK_SUPPORT_JSON_H
