//===- analysis/Analysis.cpp - Dynamic race analysis interface ------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analysis.h"

using namespace st;

void Analysis::processEvent(const Event &E) {
  RacedThisEvent = false;
  preEvent(E);
  switch (E.Kind) {
  case EventKind::Read:
    onRead(E);
    break;
  case EventKind::Write:
    onWrite(E);
    break;
  case EventKind::Acquire:
    onAcquire(E);
    break;
  case EventKind::Release:
    onRelease(E);
    break;
  case EventKind::Fork:
    onFork(E);
    break;
  case EventKind::Join:
    onJoin(E);
    break;
  case EventKind::VolRead:
    onVolRead(E);
    break;
  case EventKind::VolWrite:
    onVolWrite(E);
    break;
  }
  ++EventIdx;
}

void Analysis::processBatch(const Event *Events, size_t N) {
  for (size_t I = 0; I != N; ++I)
    processEvent(Events[I]);
}

void Analysis::processTrace(const Trace &Tr) {
  processBatch(Tr.events().data(), Tr.size());
}

void Analysis::reportRace(const Event &E, Epoch Prior) {
  // Multiple failed checks at one access count as a single dynamic race.
  if (RacedThisEvent)
    return;
  RacedThisEvent = true;
  RaceReport R;
  R.EventIdx = EventIdx;
  R.Var = E.var();
  R.Tid = E.Tid;
  R.IsWrite = E.Kind == EventKind::Write;
  // Accesses without an explicit site fall back to a per-variable site so
  // static counting still works for builder-made traces; the provenance
  // field keeps the two id spaces apart.
  if (E.Site != InvalidId) {
    R.Site = E.Site;
    R.Provenance = SiteProvenance::Explicit;
  } else {
    R.Site = E.Target;
    R.Provenance = SiteProvenance::FallbackVar;
  }
  R.Prior = Prior;
  R.AnalysisName = name();
  Accounting.onRace(R);
  Stored.onRace(R);
  if (Sink)
    Sink->onRace(R);
}
