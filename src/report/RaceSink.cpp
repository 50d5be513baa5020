//===- report/RaceSink.cpp - Streaming race-report consumers --------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "report/RaceSink.h"

#include "trace/TraceText.h"

#include <charconv>
#include <cstring>

using namespace st;

namespace {

/// Room for a quoted writeSymbolId spelling.
constexpr size_t MaxQuotedIdChars = MaxSymbolIdChars + 2;

/// Writes the writeSymbolId spelling in double quotes at \p P, which has
/// room for MaxQuotedIdChars; returns the end.
char *writeQuotedId(char *P, uint32_t Id, char Prefix) {
  *P = '"';
  P = writeSymbolId(P + 1, Id, Prefix);
  *P = '"';
  return P + 1;
}

/// Bytes of a race line besides its prefix and its three symbols: the
/// literal keys, the event index, the site and the prior clock (120 at
/// most).
constexpr size_t LineFixedChars = 128;

/// Symbol \p Id as a JSON string: its pre-escaped snapshot entry, or the
/// quoted "<Prefix><Id>" written into \p Buf (MaxQuotedIdChars bytes).
std::string_view quotedSymbol(const std::vector<std::string> &Snapshot,
                              uint32_t Id, char Prefix, char *Buf) {
  if (Id < Snapshot.size())
    return Snapshot[Id];
  return {Buf, static_cast<size_t>(writeQuotedId(Buf, Id, Prefix) - Buf)};
}

char *put(char *P, std::string_view S) {
  std::memcpy(P, S.data(), S.size());
  return P + S.size();
}

} // namespace

char *st::writeRaceSite(char *P, const RaceReport &R) {
  const bool Explicit = R.Provenance == SiteProvenance::Explicit;
  std::memcpy(P, Explicit ? "line:" : "var:", Explicit ? 5 : 4);
  P += Explicit ? 5 : 4;
  return std::to_chars(P, P + 10, R.Site).ptr;
}

void st::appendRaceSite(std::string &Out, const RaceReport &R) {
  char Buf[MaxRaceSiteChars];
  Out.append(Buf, writeRaceSite(Buf, R));
}

std::string st::raceSiteString(const RaceReport &R) {
  std::string Out;
  appendRaceSite(Out, R);
  return Out;
}

void st::jsonAppendSymbol(std::string &Out,
                          const std::vector<std::string> *Names, uint32_t Id,
                          char Prefix) {
  if (Names && Id < Names->size()) {
    jsonAppendEscaped(Out, (*Names)[Id]);
    return;
  }
  char Buf[MaxQuotedIdChars];
  Out.append(Buf, writeQuotedId(Buf, Id, Prefix));
}

NdjsonSink::AnalysisLines &NdjsonSink::linesFor(const char *Name) {
  if (Current < Analyses.size() && Analyses[Current].Name == Name)
    return Analyses[Current];
  for (Current = 0; Current != Analyses.size(); ++Current)
    if (Analyses[Current].Name == Name)
      return Analyses[Current];
  std::string Prefix = "{\"type\":\"race\",\"analysis\":";
  jsonAppendEscaped(Prefix, Name);
  Prefix += ",\"event\":";
  Analyses.push_back({Name, std::move(Prefix), 0});
  return Analyses.back();
}

void NdjsonSink::onRace(const RaceReport &R) {
  if (WriteFailed)
    return;
  AnalysisLines &A = linesFor(R.AnalysisName);
  if (A.Emitted >= MaxPerAnalysis)
    return;
  ++A.Emitted;

  char VarBuf[MaxQuotedIdChars], ThreadBuf[MaxQuotedIdChars],
      PriorBuf[MaxQuotedIdChars];
  std::string_view Var = quotedSymbol(VarSnapshot, R.Var, 'x', VarBuf);
  std::string_view Thread =
      quotedSymbol(ThreadSnapshot, R.Tid, 'T', ThreadBuf);
  std::string_view Prior =
      R.Prior.isNone()
          ? std::string_view()
          : quotedSymbol(ThreadSnapshot, R.Prior.tid(), 'T', PriorBuf);
  // Each symbol is at most its table's longest entry or a quoted id.
  size_t Need = A.Prefix.size() + std::max(LongestVar, MaxQuotedIdChars) +
                2 * std::max(LongestThread, MaxQuotedIdChars) + LineFixedChars;
  if (Line.size() < Need)
    Line.resize(Need);

  char *P = Line.data();
  char *const End = P + Line.size();
  P = put(P, A.Prefix);
  P = std::to_chars(P, End, R.EventIdx).ptr;
  P = put(P, R.IsWrite ? ",\"kind\":\"write\",\"var\":"
                       : ",\"kind\":\"read\",\"var\":");
  P = put(P, Var);
  P = put(P, ",\"thread\":");
  P = put(P, Thread);
  P = put(P, ",\"site\":\"");
  P = writeRaceSite(P, R);
  *P++ = '"';
  if (!R.Prior.isNone()) {
    P = put(P, ",\"prior_thread\":");
    P = put(P, Prior);
    P = put(P, ",\"prior_clock\":");
    P = std::to_chars(P, End, R.Prior.clock()).ptr;
  }
  P = put(P, "}\n");
  if (!Out.write(Line.data(), static_cast<size_t>(P - Line.data())))
    WriteFailed = true;
}
