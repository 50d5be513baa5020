//===- report/ReportJson.h - RunReport JSON encoders ------------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place the NDJSON report schema is written: the per-analysis
/// "summary" line, the final "stream" line, lint "diag" lines, "error"
/// lines, and the Table 12 case_stats object they and st-analyze's JSON
/// report embed. st-analyze prints these lines itself for a local run and
/// st-serve ships the same bytes as SUMMARY/DIAG/ERROR frame payloads, so
/// a served run relays exactly what a local run prints (timings aside).
/// Race lines are NdjsonSink's (report/RaceSink.h).
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_REPORT_REPORTJSON_H
#define SMARTTRACK_REPORT_REPORTJSON_H

#include "lint/Diagnostics.h"
#include "report/Session.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace st {

/// Appends {"read_same_epoch":N,...,"write_shared":N}, the Table 12 case
/// frequencies in the paper's row order.
void jsonAppendCaseStats(std::string &Out, const CaseStats &S);

/// {"type":"summary","analysis":...,"events":...,...}\n — one per analysis
/// at end of run. case_stats is included when \p WithCaseStats and the
/// analysis tracks them (st-analyze asks for it with --stats; st-serve
/// always does).
std::string encodeSummaryLine(const AnalysisRunResult &A, uint64_t Events,
                              bool WithCaseStats = true);

/// {"type":"stream","events":...,...}\n — the final line of a run. A
/// nonzero \p ServiceNs appends "service_ns": the server-side duration
/// from first-EVENTS-frame receipt to this line being encoded, which is
/// what lets an open-loop client (st-loadgen) split queueing delay from
/// service time. Zero omits the field, so local runs that never served a
/// wire upload print the same line.
std::string encodeStreamLine(const RunReport &Rep, uint64_t ServiceNs = 0);

/// {"type":"diag","code":"STL001","severity":"error",...}\n
std::string encodeDiagLine(const LintDiagnostic &D);

/// {"type":"error","code":...,"message":...}\n. Stable codes:
/// "bad-hello", "bad-version", "protocol", "decode", "rejected",
/// "evicted-memory", "evicted-time", "internal".
std::string encodeErrorLine(std::string_view Code, std::string_view Message);

} // namespace st

#endif // SMARTTRACK_REPORT_REPORTJSON_H
