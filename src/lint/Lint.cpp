//===- lint/Lint.cpp - Streaming trace diagnostics engine -----------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"

#include "trace/Trace.h"

#include <cstdio>

using namespace st;

LintEngine::LintEngine(LintOptions Opts) : Opts(Opts) {}

void LintEngine::addRule(std::unique_ptr<StreamRule> R) {
  Rules.push_back(std::move(R));
}

void LintEngine::processEvent(const Event &E) {
  CurEvent = &E;
  EventPoisoned = false;
  for (std::unique_ptr<StreamRule> &R : Rules) {
    R->onEvent(E, *this);
    // An error-severity finding poisons the event: later rules may rely
    // on earlier ones (dense indexing relies on the id-range check), so
    // they do not see it.
    if (EventPoisoned)
      break;
  }
  CurEvent = nullptr;
  ++Events;
}

void LintEngine::processBatch(const Event *Evs, size_t N) {
  for (size_t I = 0; I != N; ++I)
    processEvent(Evs[I]);
}

void LintEngine::finish() {
  if (Finished)
    return;
  Finished = true;
  for (std::unique_ptr<StreamRule> &R : Rules)
    R->onEnd(*this);
}

void LintEngine::report(LintCode Code, std::string Message) {
  reportAs(Code, lintCodeSeverity(Code), std::move(Message));
}

void LintEngine::reportAs(LintCode Code, LintSeverity Severity,
                          std::string Message) {
  switch (Severity) {
  case LintSeverity::Error:
    ++Errors;
    if (CurEvent)
      EventPoisoned = true;
    break;
  case LintSeverity::Warning:
    ++Warnings;
    break;
  case LintSeverity::Note:
    ++Notes;
    break;
  }
  if (!keepsDiagnostics()) {
    ++Dropped;
    return;
  }
  LintDiagnostic D;
  D.Code = Code;
  D.Severity = Severity;
  D.Message = std::move(Message);
  if (CurEvent) {
    D.EventIdx = Events;
    D.Tid = CurEvent->Tid;
    D.Line = CurLine;
    D.Byte = CurByte;
  }
  if (Callback)
    Callback(D);
  if (Diags.size() < Opts.MaxStoredDiagnostics)
    Diags.push_back(std::move(D));
  else
    ++Dropped;
}

const LintDiagnostic *LintEngine::firstError() const {
  for (const LintDiagnostic &D : Diags)
    if (D.Severity == LintSeverity::Error)
      return &D;
  return nullptr;
}

std::string LintEngine::summaryString(size_t MaxListed) const {
  std::string Out;
  size_t Listed = 0;
  for (const LintDiagnostic &D : Diags) {
    if (Listed == MaxListed)
      break;
    if (Listed)
      Out += "; ";
    Out += formatDiagnostic(D);
    ++Listed;
  }
  uint64_t Rest = Diags.size() - Listed + Dropped;
  if (Rest) {
    char Buf[48];
    std::snprintf(Buf, sizeof(Buf), "; ... and %llu more",
                  static_cast<unsigned long long>(Rest));
    Out += Buf;
  }
  return Out;
}

void st::lintEvents(LintEngine &Eng, const std::vector<Event> &Events,
                    bool SoftRules) {
  addHardRules(Eng);
  if (SoftRules)
    addSoftRules(Eng);
  Eng.processBatch(Events.data(), Events.size());
  Eng.finish();
}

std::vector<LintDiagnostic> st::lintTrace(const Trace &Tr, bool SoftRules,
                                          LintOptions Opts) {
  LintEngine Eng(Opts);
  lintEvents(Eng, Tr.events(), SoftRules);
  return Eng.diagnostics();
}
