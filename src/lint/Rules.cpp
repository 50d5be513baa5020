//===- lint/Rules.cpp - Built-in streaming lint rules ---------------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The built-in StreamRule set. Hard rules enforce the well-formedness
// contract the analyses are sound under (paper §2.1) and run on every
// validated stream, so their per-event state is dense vectors indexed by
// the (range-checked) ids — no hashing on the hot path. Soft rules flag
// trace pathologies that degrade prediction quality; they only run in
// full-lint mode (st-lint, Session Warn/Strict).
//
//===----------------------------------------------------------------------===//

#include "lint/Lint.h"

#include "support/DenseIdSet.h"
#include "trace/TraceText.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

using namespace st;

namespace {

/// A thread as rule messages spell it: its source name, or "T<id>".
std::string describeThread(ThreadId T, const LintEngine &Eng) {
  const TraceTextParser *P = Eng.names();
  return symbolOrId(P ? &P->threadNames() : nullptr, T, 'T');
}

/// A lock as rule messages spell it: its source name, or "m<id>".
std::string describeLock(LockId M, const LintEngine &Eng) {
  const TraceTextParser *P = Eng.names();
  return symbolOrId(P ? &P->lockNames() : nullptr, M, 'm');
}

/// "T1 rel(m0)": the event as rule messages spell it.
std::string describeEvent(const Event &E, const LintEngine &Eng) {
  const TraceTextParser *P = Eng.names();
  std::string Target;
  switch (E.Kind) {
  case EventKind::Read:
  case EventKind::Write:
    Target = symbolOrId(P ? &P->varNames() : nullptr, E.Target, 'x');
    break;
  case EventKind::Acquire:
  case EventKind::Release:
    Target = describeLock(E.Target, Eng);
    break;
  case EventKind::VolRead:
  case EventKind::VolWrite:
    Target = symbolOrId(P ? &P->volatileNames() : nullptr, E.Target, 'v');
    break;
  case EventKind::Fork:
  case EventKind::Join:
    Target = describeThread(E.Target, Eng);
    break;
  }
  return describeThread(E.Tid, Eng) + ' ' + eventKindName(E.Kind) + '(' +
         Target + ')';
}

/// Reports \p Code about \p E with the message "<event>: <Detail>",
/// built only when the engine keeps the diagnostic.
void reportEvent(LintEngine &Eng, LintCode Code, const Event &E,
                 const char *Detail) {
  Eng.report(Code, Eng.keepsDiagnostics()
                       ? describeEvent(E, Eng) + ": " + Detail
                       : std::string());
}

//===----------------------------------------------------------------------===//
// Hard rules
//===----------------------------------------------------------------------===//

/// STL007: every id must stay under the dense id-space cap. Registered
/// first so later rules can size dense per-id state off checked ids.
class IdRangeRule : public StreamRule {
public:
  void onEvent(const Event &E, LintEngine &Eng) override {
    if (E.Tid >= LintEngine::MaxCheckableIds) {
      reportEvent(Eng, LintCode::IdOutOfRange, E,
                  "thread id out of range (ids must be dense)");
      return;
    }
    const char *Space = nullptr;
    switch (E.Kind) {
    case EventKind::Read:
    case EventKind::Write:
      Space = "variable";
      break;
    case EventKind::Acquire:
    case EventKind::Release:
      Space = "lock";
      break;
    case EventKind::VolRead:
    case EventKind::VolWrite:
      Space = "volatile";
      break;
    case EventKind::Fork:
    case EventKind::Join:
      Space = "thread";
      break;
    }
    if (E.Target >= LintEngine::MaxCheckableIds) {
      Eng.report(LintCode::IdOutOfRange,
                 describeEvent(E, Eng) + ": " + Space +
                     " id out of range (ids must be dense)");
      return;
    }
    if (isAccess(E.Kind) && E.Site != InvalidId &&
        E.Site >= LintEngine::MaxCheckableIds)
      reportEvent(Eng, LintCode::IdOutOfRange, E,
                  "site id out of range (ids must be dense)");
  }
};

/// STL001/STL002: a thread only acquires a free lock and only releases a
/// lock it holds. The holder table is a dense vector indexed by LockId
/// (ids are dense by construction) — one load per lock event, no hashing.
class LockDisciplineRule : public StreamRule {
public:
  void onEvent(const Event &E, LintEngine &Eng) override {
    if (!isLockOp(E.Kind))
      return;
    LockId M = E.lock();
    if (M >= Holder.size())
      Holder.resize(M + 1, InvalidId);
    if (E.Kind == EventKind::Acquire) {
      if (Holder[M] != InvalidId)
        Eng.report(LintCode::AcquireHeld,
                   describeEvent(E, Eng) +
                       ": acquire of a held lock (no reentrancy; held by " +
                       describeThread(Holder[M], Eng) + ")");
      // Recover by handing the lock to the acquirer, so a later release
      // by it is not a spurious second violation.
      Holder[M] = E.Tid;
    } else {
      if (Holder[M] != E.Tid)
        reportEvent(Eng, LintCode::ReleaseUnheld, E,
                    "release of a lock the thread does not hold");
      Holder[M] = InvalidId;
    }
  }

private:
  std::vector<ThreadId> Holder; // lock -> holder (InvalidId = free)
};

/// STL003-006: forked threads are fresh, joined threads run no further
/// events, and no thread forks or joins itself.
class ThreadLifecycleRule : public StreamRule {
public:
  void onEvent(const Event &E, LintEngine &Eng) override {
    ThreadId MaxTid = E.Tid;
    if (E.Kind == EventKind::Fork || E.Kind == EventKind::Join)
      MaxTid = std::max(MaxTid, E.Target);
    if (MaxTid >= Started.size()) {
      Started.resize(MaxTid + 1, 0);
      Joined.resize(MaxTid + 1, 0);
      Forked.resize(MaxTid + 1, 0);
    }
    if (Joined[E.Tid]) {
      reportEvent(Eng, LintCode::RunAfterJoin, E,
                  "thread runs after being joined");
      return;
    }
    Started[E.Tid] = 1; // unforked root threads are permitted
    if (E.Kind == EventKind::Fork) {
      ThreadId C = E.childTid();
      if (C == E.Tid) {
        reportEvent(Eng, LintCode::SelfForkJoin, E, "thread forks itself");
        return;
      }
      if (Started[C] || Forked[C]) {
        reportEvent(Eng, LintCode::ForkOfStarted, E,
                    "fork of a thread that already ran or was forked");
        return;
      }
      Forked[C] = 1;
    } else if (E.Kind == EventKind::Join) {
      ThreadId C = E.childTid();
      if (C == E.Tid) {
        reportEvent(Eng, LintCode::SelfForkJoin, E, "thread joins itself");
        return;
      }
      if (Joined[C]) {
        reportEvent(Eng, LintCode::DoubleJoin, E, "thread joined twice");
        return;
      }
      Joined[C] = 1;
    }
  }

private:
  std::vector<uint8_t> Started, Joined, Forked; // indexed by ThreadId
};

//===----------------------------------------------------------------------===//
// Soft rules
//===----------------------------------------------------------------------===//

/// STL020: locks still held when the stream ends. A held tail lock means
/// the trace was cut mid-critical-section, which silently weakens every
/// lock-based ordering the predictive relations build.
class LockHeldAtEndRule : public StreamRule {
public:
  void onEvent(const Event &E, LintEngine &Eng) override {
    (void)Eng;
    if (!isLockOp(E.Kind))
      return;
    LockId M = E.lock();
    if (M >= Holder.size())
      Holder.resize(M + 1, InvalidId);
    Holder[M] = E.Kind == EventKind::Acquire ? E.Tid : InvalidId;
  }

  void onEnd(LintEngine &Eng) override {
    for (LockId M = 0; M != Holder.size(); ++M)
      if (Holder[M] != InvalidId) {
        Eng.report(LintCode::LockHeldAtEnd,
                   describeLock(M, Eng) + " still held by " +
                       describeThread(Holder[M], Eng) + " at end of stream");
      }
  }

private:
  std::vector<ThreadId> Holder;
};

/// STL021: threads forked but never joined. Without the join edge the
/// child's tail events stay unordered against the parent, inflating the
/// predictable-race surface with schedules the program may not allow.
class UnjoinedThreadRule : public StreamRule {
public:
  void onEvent(const Event &E, LintEngine &Eng) override {
    if (E.Kind != EventKind::Fork && E.Kind != EventKind::Join)
      return;
    ThreadId C = E.Target;
    if (C >= ForkedAt.size())
      ForkedAt.resize(C + 1, UINT64_MAX);
    if (E.Kind == EventKind::Fork) {
      if (ForkedAt[C] == UINT64_MAX)
        ForkedAt[C] = Eng.eventsProcessed();
    } else {
      ForkedAt[C] = JoinedMark;
    }
  }

  void onEnd(LintEngine &Eng) override {
    for (ThreadId T = 0; T != ForkedAt.size(); ++T)
      if (ForkedAt[T] != UINT64_MAX && ForkedAt[T] != JoinedMark) {
        Eng.report(LintCode::UnjoinedThread,
                   describeThread(T, Eng) + " forked at event " +
                       std::to_string(ForkedAt[T]) + " but never joined");
      }
  }

private:
  static constexpr uint64_t JoinedMark = UINT64_MAX - 1;
  std::vector<uint64_t> ForkedAt; // fork event index; JoinedMark once joined
};

/// STL022: acq(m) immediately followed by rel(m) with no intervening
/// event by the same thread. Empty critical sections create pure
/// release-acquire ordering with no protected work — usually a sign of
/// lost events or over-synchronized instrumentation.
class EmptyCriticalSectionRule : public StreamRule {
public:
  void onEvent(const Event &E, LintEngine &Eng) override {
    if (E.Tid >= Pending.size())
      Pending.resize(E.Tid + 1, InvalidId);
    if (E.Kind == EventKind::Release && Pending[E.Tid] == E.lock())
      reportEvent(Eng, LintCode::EmptyCriticalSection, E,
                  "empty critical section");
    Pending[E.Tid] =
        E.Kind == EventKind::Acquire ? E.lock() : InvalidId;
  }

private:
  std::vector<LockId> Pending; // tid -> lock acquired by its last event
};

/// STL023: one object accessed both as a volatile and as a plain
/// variable. The two id spaces are disjoint by construction, so overlap
/// suggests a producer mapped one program object into both — analyses
/// would then miss the synchronization the volatile accesses carry. With
/// names (text input) the object is its spelled name, since the DSL interns
/// variables and volatiles in separate tables that both start at 0; without
/// (STB) it is the numeric id.
class VolatileDataAliasRule : public StreamRule {
public:
  void onEvent(const Event &E, LintEngine &Eng) override {
    bool IsVol;
    if (isAccess(E.Kind))
      IsVol = false;
    else if (E.Kind == EventKind::VolRead || E.Kind == EventKind::VolWrite)
      IsVol = true;
    else
      return;
    uint32_t Obj = object(E.Target, IsVol, Eng.names());
    (IsVol ? Vol : Data).insert(Obj);
    if ((IsVol ? Data : Vol).contains(Obj) && Reported.insert(Obj)) {
      char Buf[80];
      std::snprintf(Buf, sizeof(Buf),
                    "id %u is used as both a volatile and a data variable",
                    E.Target);
      Eng.report(LintCode::VolatileDataAlias,
                 describeEvent(E, Eng) + ": " + Buf);
    }
  }

private:
  /// The object key of id \p Id: the id itself without names, else a
  /// dense number per distinct name, looked up once per id.
  uint32_t object(uint32_t Id, bool IsVol, const TraceTextParser *P) {
    if (!P)
      return Id;
    std::vector<uint32_t> &Keys = KeyOf[IsVol];
    if (Id >= Keys.size())
      Keys.resize(Id + 1, InvalidId);
    if (Keys[Id] == InvalidId) {
      std::string Name = symbolOrId(
          IsVol ? &P->volatileNames() : &P->varNames(), Id, IsVol ? 'v' : 'x');
      Keys[Id] = NameKeys
                     .emplace(std::move(Name),
                              static_cast<uint32_t>(NameKeys.size()))
                     .first->second;
    }
    return Keys[Id];
  }

  DenseIdSet Data, Vol, Reported;     // object keys
  std::vector<uint32_t> KeyOf[2];     // [IsVol][id] -> key (names only)
  std::unordered_map<std::string, uint32_t> NameKeys;
};

/// STL024: access sites at or beyond the site table the input declared
/// (STB header NumSites). Fires once per undeclared site id.
class SiteTableRule : public StreamRule {
public:
  void onEvent(const Event &E, LintEngine &Eng) override {
    uint64_t Declared = Eng.declared().Sites;
    if (!Declared || !isAccess(E.Kind) || E.Site == InvalidId ||
        E.Site < Declared)
      return;
    if (!Reported.insert(E.Site))
      return;
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf),
                  ": site %u is outside the declared site table (%llu "
                  "sites)",
                  E.Site, static_cast<unsigned long long>(Declared));
    Eng.report(LintCode::SiteOutOfTable, describeEvent(E, Eng) + Buf);
  }

private:
  DenseIdSet Reported;
};

/// STL025: thread-id density. Dense ids are the contract every flat
/// per-thread table is sized on; a maximum tid near the
/// LintEngine::MaxCheckableIds cap, or far larger than the distinct-thread
/// count, means the producer is not assigning dense ids (or the input is
/// hostile) and per-thread state is about to balloon.
class IdDensityRule : public StreamRule {
public:
  void onEvent(const Event &E, LintEngine &Eng) override {
    observe(E.Tid, Eng);
    if (E.Kind == EventKind::Fork || E.Kind == EventKind::Join)
      observe(E.Target, Eng);
  }

  void onEnd(LintEngine &Eng) override {
    uint64_t Space = uint64_t(MaxTid) + 1;
    if (!Seen.empty() && Space > 4096 && Seen.size() < Space / 64) {
      char Buf[112];
      std::snprintf(Buf, sizeof(Buf),
                    "sparse thread id space: %zu distinct threads over a "
                    "0..%u id range",
                    Seen.size(), MaxTid);
      Eng.report(LintCode::SparseIdSpace, Buf);
    }
  }

private:
  void observe(ThreadId T, LintEngine &Eng) {
    if (T >= LintEngine::MaxCheckableIds)
      return; // STL007 already rejected it
    Seen.insert(T);
    if (T > MaxTid)
      MaxTid = T;
    if (T >= NearCap && !WarnedNearCap) {
      WarnedNearCap = true;
      char Buf[96];
      std::snprintf(Buf, sizeof(Buf),
                    "thread id %u is near the MaxCheckableThreads cap (%u)",
                    T, LintEngine::MaxCheckableIds);
      Eng.report(LintCode::SparseIdSpace, Buf);
    }
  }

  static constexpr ThreadId NearCap = LintEngine::MaxCheckableIds / 2;
  DenseIdSet Seen;
  ThreadId MaxTid = 0;
  bool WarnedNearCap = false;
};

} // namespace

void st::addHardRules(LintEngine &Eng) {
  Eng.addRule(std::make_unique<IdRangeRule>());
  Eng.addRule(std::make_unique<LockDisciplineRule>());
  Eng.addRule(std::make_unique<ThreadLifecycleRule>());
}

void st::addSoftRules(LintEngine &Eng) {
  Eng.addRule(std::make_unique<LockHeldAtEndRule>());
  Eng.addRule(std::make_unique<UnjoinedThreadRule>());
  Eng.addRule(std::make_unique<EmptyCriticalSectionRule>());
  Eng.addRule(std::make_unique<VolatileDataAliasRule>());
  Eng.addRule(std::make_unique<SiteTableRule>());
  Eng.addRule(std::make_unique<IdDensityRule>());
}

void st::addAllRules(LintEngine &Eng) {
  addHardRules(Eng);
  addSoftRules(Eng);
}
