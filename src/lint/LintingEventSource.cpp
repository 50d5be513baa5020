//===- lint/LintingEventSource.cpp - Validating source wrapper ------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "lint/LintingEventSource.h"

using namespace st;

namespace {

LintDeclared declaredBy(const StbHeader &H) {
  LintDeclared D;
  D.Threads = H.NumThreads;
  D.Vars = H.NumVars;
  D.Locks = H.NumLocks;
  D.Volatiles = H.NumVolatiles;
  D.Sites = H.NumSites;
  D.Events = H.EventCount;
  return D;
}

} // namespace

size_t LintingEventSource::read(Event *Buf, size_t Max) {
  if (Done)
    return 0;
  if (Cut) {
    // The cutting read delivered its well-formed prefix; draining waits
    // until now so the positions forwarded for that prefix stay valid.
    drainInner();
    return 0;
  }
  size_t N = Inner.read(Buf, Max);
  // A framed upload assembles its decoder on the first read, so the
  // names and the STB header can only be picked up here.
  Eng.setNames(Inner.textParser());
  if (const StbHeader *H = Inner.stbHeader())
    Eng.setDeclared(declaredBy(*H));
  if (N == 0) {
    Done = true;
    std::string InnerMsg;
    if (Inner.error(&InnerMsg)) {
      // Decode failures become STL008 so the report covers them too.
      Eng.report(LintCode::MalformedInput, InnerMsg);
      Cut = true;
      Rejected = Reject;
      ErrorMsg = InnerMsg;
    }
    Eng.finish();
    return 0;
  }
  size_t FirstBad = lint(Buf, N);
  if (FirstBad == N)
    return N;
  Cut = true;
  Rejected = Reject;
  if (FirstBad == 0)
    drainInner();
  return FirstBad;
}

size_t LintingEventSource::lint(const Event *Buf, size_t N) {
  const uint32_t *Lines = Inner.eventLines();
  const uint64_t *Bytes = Inner.eventBytes();
  // Lint event by event so the cut lands exactly before the first
  // offending event: everything in front of it is still a well-formed
  // prefix and safe to deliver.
  size_t FirstBad = N;
  for (size_t I = 0; I != N; ++I) {
    Eng.setProvenance(Lines ? Lines[I] : 0, Bytes ? Bytes[I] : 0);
    uint64_t ErrorsBefore = Eng.errorCount();
    Eng.processEvent(Buf[I]);
    if (FirstBad == N && Eng.errorCount() != ErrorsBefore)
      FirstBad = I; // keep linting the rest of the chunk (non-latching)
  }
  return FirstBad;
}

void LintingEventSource::drainInner() {
  Done = true;
  Event Buf[256];
  while (size_t N = Inner.read(Buf, sizeof(Buf) / sizeof(Buf[0])))
    lint(Buf, N);
  // The message lists the violations; a decode error that ends the
  // drain goes to the diagnostics only.
  ErrorMsg = "ill-formed trace: " + Eng.summaryString();
  std::string InnerMsg;
  if (Inner.error(&InnerMsg))
    Eng.report(LintCode::MalformedInput, InnerMsg);
  Eng.finish();
}

bool LintingEventSource::error(std::string *Msg) const {
  if (Cut) {
    if (Msg)
      *Msg = ErrorMsg.empty() ? "ill-formed trace: " + Eng.summaryString()
                              : ErrorMsg;
    return true;
  }
  return Inner.error(Msg);
}
