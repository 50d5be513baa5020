//===- lint/LintingEventSource.cpp - Validating source wrapper ------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "lint/LintingEventSource.h"

using namespace st;

size_t LintingEventSource::read(Event *Buf, size_t Max) {
  if (Done)
    return 0;
  size_t N = Inner.read(Buf, Max);
  // A framed upload assembles its decoder on the first read, so the
  // names can only be picked up here.
  Eng.setNames(Inner.textParser());
  if (N == 0) {
    Done = true;
    std::string InnerMsg;
    if (Inner.error(&InnerMsg)) {
      // Decode failures become STL008 so the report covers them too.
      Eng.report(LintCode::MalformedInput, InnerMsg);
      Cut = true;
      if (Reject)
        Rejected = true;
      ErrorMsg = InnerMsg;
    }
    Eng.finish();
    return 0;
  }
  // Lint event by event so the cut lands exactly before the first
  // offending event: everything in front of it is still a well-formed
  // prefix and safe to deliver.
  size_t FirstBad = N;
  for (size_t I = 0; I != N; ++I) {
    uint64_t ErrorsBefore = Eng.errorCount();
    Eng.processEvent(Buf[I]);
    if (FirstBad == N && Eng.errorCount() != ErrorsBefore)
      FirstBad = I; // keep linting the rest of the chunk (non-latching)
  }
  if (FirstBad == N)
    return N;
  Cut = true;
  Done = true;
  if (Reject)
    Rejected = true;
  drainInner();
  Eng.finish();
  ErrorMsg = "ill-formed trace: " + Eng.summaryString();
  return FirstBad;
}

void LintingEventSource::drainInner() {
  Event Buf[256];
  while (size_t N = Inner.read(Buf, sizeof(Buf) / sizeof(Buf[0])))
    Eng.processBatch(Buf, N);
  std::string InnerMsg;
  if (Inner.error(&InnerMsg))
    Eng.report(LintCode::MalformedInput, InnerMsg);
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
