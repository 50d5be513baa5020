//===- report/RaceSink.cpp - Streaming race-report consumers --------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "report/RaceSink.h"

#include "trace/TraceText.h"

#include <cstdio>

using namespace st;

std::string st::raceSiteString(const RaceReport &R) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%s:%u",
                R.Provenance == SiteProvenance::Explicit ? "line" : "var",
                R.Site);
  return Buf;
}

namespace {

void appendSymbol(std::string &Out, const std::vector<std::string> *Names,
                  uint32_t Id, char Prefix) {
  jsonAppendEscaped(Out, symbolOrId(Names, Id, Prefix));
}

} // namespace

void NdjsonSink::onRace(const RaceReport &R) {
  if (WriteFailed)
    return;
  if (MaxPerAnalysis != SIZE_MAX) {
    size_t *Count = nullptr;
    for (auto &E : Emitted)
      if (E.first == R.AnalysisName)
        Count = &E.second;
    if (!Count) {
      Emitted.emplace_back(R.AnalysisName, 0);
      Count = &Emitted.back().second;
    }
    if (*Count >= MaxPerAnalysis)
      return;
    ++*Count;
  }

  std::string Line = "{\"type\":\"race\",\"analysis\":";
  jsonAppendEscaped(Line, R.AnalysisName);
  Line += ",\"event\":";
  jsonAppendUInt(Line, R.EventIdx);
  Line += R.IsWrite ? ",\"kind\":\"write\"" : ",\"kind\":\"read\"";
  Line += ",\"var\":";
  appendSymbol(Line, LiveVarNames ? &VarSnapshot : nullptr, R.Var, 'x');
  Line += ",\"thread\":";
  appendSymbol(Line, LiveThreadNames ? &ThreadSnapshot : nullptr, R.Tid,
               'T');
  Line += ",\"site\":";
  jsonAppendEscaped(Line, raceSiteString(R));
  if (!R.Prior.isNone()) {
    Line += ",\"prior_thread\":";
    appendSymbol(Line, LiveThreadNames ? &ThreadSnapshot : nullptr,
                 R.Prior.tid(), 'T');
    Line += ",\"prior_clock\":";
    jsonAppendUInt(Line, R.Prior.clock());
  }
  Line += "}\n";
  if (!Out.write(Line.data(), Line.size()))
    WriteFailed = true;
}
