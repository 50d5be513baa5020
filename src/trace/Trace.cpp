//===- trace/Trace.cpp - Execution traces -----------------------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include "lint/Lint.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <unordered_map>

using namespace st;

const char *st::eventKindName(EventKind K) {
  switch (K) {
  case EventKind::Read:
    return "rd";
  case EventKind::Write:
    return "wr";
  case EventKind::Acquire:
    return "acq";
  case EventKind::Release:
    return "rel";
  case EventKind::Fork:
    return "fork";
  case EventKind::Join:
    return "join";
  case EventKind::VolRead:
    return "vrd";
  case EventKind::VolWrite:
    return "vwr";
  }
  assert(false && "unknown event kind");
  return "?";
}

Trace::Trace(std::vector<Event> Events) : Events(std::move(Events)) {
  computeStats();
}

void Trace::computeStats() {
  for (const Event &E : Events) {
    NumThreads = std::max(NumThreads, E.Tid + 1);
    switch (E.Kind) {
    case EventKind::Read:
    case EventKind::Write:
      NumVars = std::max(NumVars, E.Target + 1);
      break;
    case EventKind::Acquire:
    case EventKind::Release:
      NumLocks = std::max(NumLocks, E.Target + 1);
      break;
    case EventKind::Fork:
    case EventKind::Join:
      NumThreads = std::max(NumThreads, E.Target + 1);
      break;
    case EventKind::VolRead:
    case EventKind::VolWrite:
      NumVolatiles = std::max(NumVolatiles, E.Target + 1);
      break;
    }
  }
}

bool Trace::validate(std::string *Error) const {
  LintEngine Eng;
  lintEvents(Eng, Events, /*SoftRules=*/false);
  if (!Eng.hasErrors())
    return true;
  if (Error)
    *Error = Eng.summaryString();
  return false;
}

void Trace::computeLastWriters() const {
  LastWriter.assign(Events.size(), -1);
  std::unordered_map<VarId, long> Last;
  for (size_t I = 0, N = Events.size(); I != N; ++I) {
    const Event &E = Events[I];
    if (E.Kind == EventKind::Read) {
      auto It = Last.find(E.var());
      LastWriter[I] = It == Last.end() ? -1 : It->second;
    } else if (E.Kind == EventKind::Write) {
      Last[E.var()] = static_cast<long>(I);
    }
  }
}

long Trace::lastWriterBefore(size_t I) const {
  assert(I < Events.size() && "event index out of range");
  if (LastWriter.size() != Events.size())
    computeLastWriters();
  return LastWriter[I];
}

TraceBuilder &TraceBuilder::read(ThreadId T, VarId X, SiteId Site) {
  Events.emplace_back(EventKind::Read, T, X, Site);
  return *this;
}

TraceBuilder &TraceBuilder::write(ThreadId T, VarId X, SiteId Site) {
  Events.emplace_back(EventKind::Write, T, X, Site);
  return *this;
}

TraceBuilder &TraceBuilder::acq(ThreadId T, LockId M) {
  Events.emplace_back(EventKind::Acquire, T, M);
  return *this;
}

TraceBuilder &TraceBuilder::rel(ThreadId T, LockId M) {
  Events.emplace_back(EventKind::Release, T, M);
  return *this;
}

TraceBuilder &TraceBuilder::fork(ThreadId Parent, ThreadId Child) {
  Events.emplace_back(EventKind::Fork, Parent, Child);
  return *this;
}

TraceBuilder &TraceBuilder::join(ThreadId Parent, ThreadId Child) {
  Events.emplace_back(EventKind::Join, Parent, Child);
  return *this;
}

TraceBuilder &TraceBuilder::volRead(ThreadId T, VarId V) {
  Events.emplace_back(EventKind::VolRead, T, V);
  return *this;
}

TraceBuilder &TraceBuilder::volWrite(ThreadId T, VarId V) {
  Events.emplace_back(EventKind::VolWrite, T, V);
  return *this;
}

TraceBuilder &TraceBuilder::sync(ThreadId T, LockId Lock, VarId Var) {
  return acq(T, Lock).read(T, Var).write(T, Var).rel(T, Lock);
}

TraceBuilder &TraceBuilder::append(const Event &E) {
  Events.push_back(E);
  return *this;
}

Trace TraceBuilder::build() const {
  Trace Tr(Events);
  // Builder traces are authored by hand (tests, examples); an ill-formed
  // one is a bug at the construction site, diagnosed in every build type.
  LintEngine Eng;
  lintEvents(Eng, Events, /*SoftRules=*/false);
  if (Eng.hasErrors())
    throw IllFormedTraceError("trace is not well formed: " +
                                  Eng.summaryString(),
                              Eng.diagnostics());
  return Tr;
}
