//===- report/ReportJson.cpp - RunReport JSON encoders --------------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "report/ReportJson.h"

using namespace st;

void st::jsonAppendCaseStats(std::string &Out, const CaseStats &S) {
  Out += "{\"read_same_epoch\":";
  jsonAppendUInt(Out, S.ReadSameEpoch);
  Out += ",\"shared_same_epoch\":";
  jsonAppendUInt(Out, S.SharedSameEpoch);
  Out += ",\"write_same_epoch\":";
  jsonAppendUInt(Out, S.WriteSameEpoch);
  Out += ",\"read_owned\":";
  jsonAppendUInt(Out, S.ReadOwned);
  Out += ",\"read_shared_owned\":";
  jsonAppendUInt(Out, S.ReadSharedOwned);
  Out += ",\"read_exclusive\":";
  jsonAppendUInt(Out, S.ReadExclusive);
  Out += ",\"read_share\":";
  jsonAppendUInt(Out, S.ReadShare);
  Out += ",\"read_shared\":";
  jsonAppendUInt(Out, S.ReadShared);
  Out += ",\"write_owned\":";
  jsonAppendUInt(Out, S.WriteOwned);
  Out += ",\"write_exclusive\":";
  jsonAppendUInt(Out, S.WriteExclusive);
  Out += ",\"write_shared\":";
  jsonAppendUInt(Out, S.WriteShared);
  Out += '}';
}

std::string st::encodeSummaryLine(const AnalysisRunResult &A,
                                  uint64_t Events, bool WithCaseStats) {
  std::string Out = "{\"type\":\"summary\",\"analysis\":";
  jsonAppendEscaped(Out, A.Name);
  Out += ",\"events\":";
  jsonAppendUInt(Out, Events);
  Out += ",\"dynamic_races\":";
  jsonAppendUInt(Out, A.DynamicRaces);
  Out += ",\"static_races\":";
  jsonAppendUInt(Out, A.StaticRaces);
  Out += ",\"seconds\":";
  jsonAppendNumber(Out, A.Seconds);
  if (WithCaseStats && A.HasCaseStats) {
    Out += ",\"case_stats\":";
    jsonAppendCaseStats(Out, A.Cases);
  }
  Out += "}\n";
  return Out;
}

std::string st::encodeStreamLine(const RunReport &Rep, uint64_t ServiceNs) {
  std::string Out = "{\"type\":\"stream\",\"events\":";
  jsonAppendUInt(Out, Rep.Stream.Events);
  Out += ",\"threads\":";
  jsonAppendUInt(Out, Rep.Stream.NumThreads);
  Out += ",\"vars\":";
  jsonAppendUInt(Out, Rep.Stream.NumVars);
  Out += ",\"locks\":";
  jsonAppendUInt(Out, Rep.Stream.NumLocks);
  Out += ",\"total_dynamic_races\":";
  jsonAppendUInt(Out, Rep.TotalDynamicRaces);
  Out += ",\"wall_seconds\":";
  jsonAppendNumber(Out, Rep.WallSeconds);
  if (ServiceNs) {
    Out += ",\"service_ns\":";
    jsonAppendUInt(Out, ServiceNs);
  }
  Out += "}\n";
  return Out;
}

std::string st::encodeDiagLine(const LintDiagnostic &D) {
  std::string Out = "{\"type\":\"diag\",\"code\":";
  jsonAppendEscaped(Out, lintCodeId(D.Code));
  Out += ",\"severity\":";
  jsonAppendEscaped(Out, lintSeverityName(D.Severity));
  if (!D.streamLevel()) {
    Out += ",\"event\":";
    jsonAppendUInt(Out, D.EventIdx);
  }
  if (D.Line) {
    Out += ",\"line\":";
    jsonAppendUInt(Out, D.Line);
  }
  if (D.Byte) {
    Out += ",\"byte\":";
    jsonAppendUInt(Out, D.Byte);
  }
  Out += ",\"message\":";
  jsonAppendEscaped(Out, D.Message);
  Out += "}\n";
  return Out;
}

std::string st::encodeErrorLine(std::string_view Code,
                                std::string_view Message) {
  std::string Out = "{\"type\":\"error\",\"code\":";
  jsonAppendEscaped(Out, Code);
  Out += ",\"message\":";
  jsonAppendEscaped(Out, Message);
  Out += "}\n";
  return Out;
}
