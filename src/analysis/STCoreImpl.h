//===- analysis/STCoreImpl.h - STCore member definitions --------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Member definitions for STCore, included only by the per-policy explicit
/// instantiation units (STCoreWCP.cpp / STCoreDC.cpp / STCoreWDC.cpp).
/// One instantiation per translation unit keeps each TU's code size at the
/// level of the hand-written per-relation classes, which is what lets the
/// compiler keep inlining the VectorClock primitives into the per-event
/// handlers (measurably lost when all three policies share one TU).
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_ANALYSIS_STCOREIMPL_H
#define SMARTTRACK_ANALYSIS_STCOREIMPL_H

#include "analysis/STCore.h"

#include "analysis/Footprint.h"

namespace st {
namespace st_core_detail {

inline size_t extraFootprint(const ExtraMap &E) {
  size_t N = unorderedFootprint(E);
  for (const auto &KV : E)
    N += unorderedFootprint(KV.second);
  return N;
}

} // namespace st_core_detail

template <typename Policy>
size_t STCore<Policy>::metadataFootprintBytes() const {
  // CS lists live in the pool, so a list shared by many variables (and the
  // clock shared by a section's copies) is counted once, there.
  size_t N = this->baseFootprintBytes() +
             Vars.capacity() * sizeof(VarState) +
             Locks.capacity() * sizeof(LockState) +
             ActiveCS.capacity() * sizeof(CSRef) + Pool.footprintBytes();
  for (const VarState &V : Vars) {
    if (V.RShared)
      N += sizeof(VectorClock) + V.RShared->footprintBytes();
    if (V.LRShared)
      N += unorderedFootprint(*V.LRShared);
    if (V.Er)
      N += st_core_detail::extraFootprint(*V.Er);
    if (V.Ew)
      N += st_core_detail::extraFootprint(*V.Ew);
  }
  for (const LockState &L : Locks) {
    if constexpr (Policy::SplitClocks)
      N += L.HRel.footprintBytes() + L.PRel.footprintBytes();
    if (L.Queues)
      N += L.Queues->footprintBytes();
  }
  return N;
}

template <typename Policy> std::string STCore<Policy>::checkCSRefs() const {
  std::vector<uint32_t> Counts(Pool.size());
  std::string Err;
  auto Root = [&](CSRef R, const char *What) {
    if (R == NoCS)
      return;
    if (R >= Counts.size() || Pool[R].Depth == 0) {
      if (Err.empty())
        Err = std::string(What) + " names free cell " + std::to_string(R);
      return;
    }
    ++Counts[R];
  };
  auto Extra = [&](const ExtraMap *E, const char *What) {
    if (E)
      for (const auto &KV : *E)
        for (const auto &LC : KV.second)
          Root(LC.second, What);
  };
  for (CSRef H : ActiveCS)
    Root(H, "an active list");
  for (const VarState &V : Vars) {
    Root(V.LW, "L^w");
    Root(V.LR, "L^r");
    if (V.LRShared)
      for (const auto &KV : *V.LRShared)
        Root(KV.second, "a shared L^r");
    Extra(V.Er.get(), "E^r");
    Extra(V.Ew.get(), "E^w");
  }
  if (!Err.empty())
    return Err;
  return Pool.verifyRefs(std::move(Counts));
}

template <typename Policy>
void STCore<Policy>::multiCheck(CSRef L, ThreadId U, Epoch A,
                                const Event &Ev, VectorClock &Pt,
                                LockClockMap *Residuals) {
  // The list owner's accesses are PO-ordered before the current thread's
  // only when they are the same thread; then nothing below applies
  // (DESIGN.md interpretation note 5).
  if (U == Ev.Tid)
    return;
  Walk.clear();
  for (CSRef C = L; C != NoCS; C = Pool[C].Next)
    Walk.push_back(C);
  for (size_t I = Walk.size(); I-- > 0;) { // tail (outermost) to head
    const CSCell &CS = Pool[Walk[I]];
    const VectorClock &Rel = Pool.clock(Walk[I]);
    // Release ordered before the current access? Subsumes inner sections
    // and the race check (Algorithm 3 line 29). Unreleased sections hold ∞
    // in the owner's entry and never pass.
    if (Rel.get(U) <= Pt.get(U))
      return;
    // Conflicting critical sections on a held lock: rule (a); the prior
    // section must have released the lock for us to hold it, so the clock
    // is final (Algorithm 3 lines 30-32). Under split clocks the stored
    // clock holds H at the release — left composition.
    if (Held.holds(Ev.Tid, CS.M)) {
      Pt.joinWith(Rel);
      return;
    }
    if (Residuals) // residual (line 33)
      Pool.assign((*Residuals)[CS.M], CS.ClockOf);
  }
  if (!A.isNone() && !Pt.epochLeq(A))
    this->reportRace(Ev, A); // line 34
}

template <typename Policy>
void STCore<Policy>::setExtra(ExtraMap &Extra, ThreadId U,
                              LockClockMap &&Res) {
  LockClockMap &Slot = Extra[U];
  dropAll(Slot);
  Slot = std::move(Res);
}

template <typename Policy>
void STCore<Policy>::applyExtraSlow(ExtraMap &ExtraRef, const Event &Ev,
                                    VectorClock &Pt, bool Consume) {
  ExtraMap *Extra = &ExtraRef;
  for (auto It = Extra->begin(); It != Extra->end();) {
    if (It->first == Ev.Tid) {
      // Algorithm 3 line 23: the writer's own entries are dropped.
      if (!Consume) {
        ++It;
        continue;
      }
      dropAll(It->second);
      It = Extra->erase(It);
      continue;
    }
    LockClockMap &LM = It->second;
    for (LockId M : Held.of(Ev.Tid)) {
      auto LIt = LM.find(M);
      if (LIt == LM.end())
        continue;
      // These sections closed before we could hold M, so the clock is
      // final (never ∞ in any entry).
      Pt.joinWith(Pool.clock(LIt->second));
      if (Consume) {
        Pool.drop(LIt->second);
        LM.erase(LIt);
      }
    }
    if (Consume && LM.empty())
      It = Extra->erase(It);
    else
      ++It;
  }
}

template <typename Policy> void STCore<Policy>::onRead(const Event &E) {
  VectorClock &Ht = Threads.of(E.Tid);
  VectorClock &Pt = this->predictiveOf(E.Tid, Ht);
  VarState &V = varState(E.var());
  Epoch Now = Ht.epochOf(E.Tid);

  if (!V.RShared && V.R == Now) {
    ++Stats.ReadSameEpoch;
    return; // [Read Same Epoch]
  }
  if (V.RShared && V.RShared->get(E.Tid) == Now.clock()) {
    ++Stats.SharedSameEpoch;
    return; // [Shared Same Epoch]
  }

  // Algorithm 3 read lines 4-6: consume lost write-CS information.
  applyExtra(V.Ew.get(), E, Pt, /*Consume=*/false);

  // Recording H_t is Algorithm 3's shallow copy: an index and a count.
  CSRef Hcs = activeCS(E.Tid);

  if (!V.RShared) {
    if (V.R.tid() == E.Tid && !V.R.isNone()) {
      ++Stats.ReadOwned; // [Read Owned]
      Pool.assign(V.LR, Hcs);
      V.R = Now;
      return;
    }
    // [Read Exclusive] requires the prior access's *outermost* critical
    // section release ordered before this read (Algorithm 3 line 11);
    // otherwise CS information would be lost (Figure 4(b)).
    ThreadId U = V.R.tid();
    bool Ordered = V.LR == NoCS
                       ? Pt.epochLeq(V.R)
                       : Pool.clock(Pool[V.LR].Outer).get(U) <= Pt.get(U);
    if (Ordered) {
      ++Stats.ReadExclusive; // [Read Exclusive]
      Pool.assign(V.LR, Hcs);
      V.R = Now;
      return;
    }
    ++Stats.ReadShare; // [Read Share]
    multiCheck(V.LW, V.W.tid(), V.W, E, Pt, /*Residuals=*/nullptr);
    V.LRShared = std::make_unique<std::unordered_map<ThreadId, CSRef>>();
    (*V.LRShared)[U] = V.LR; // moves L^r_x's reference
    V.LR = NoCS;
    Pool.assign((*V.LRShared)[E.Tid], Hcs);
    V.RShared = std::make_unique<VectorClock>();
    V.RShared->set(U, V.R.clock());
    V.RShared->set(E.Tid, Now.clock());
    V.R = Epoch::none();
    return;
  }
  if (V.RShared->get(E.Tid) != 0) {
    ++Stats.ReadSharedOwned; // [Read Shared Owned]
    Pool.assign((*V.LRShared)[E.Tid], Hcs);
    V.RShared->set(E.Tid, Now.clock());
    return;
  }
  ++Stats.ReadShared; // [Read Shared]
  multiCheck(V.LW, V.W.tid(), V.W, E, Pt, /*Residuals=*/nullptr);
  Pool.assign((*V.LRShared)[E.Tid], Hcs);
  V.RShared->set(E.Tid, Now.clock());
}

template <typename Policy> void STCore<Policy>::onWrite(const Event &E) {
  VectorClock &Ht = Threads.of(E.Tid);
  VectorClock &Pt = this->predictiveOf(E.Tid, Ht);
  VarState &V = varState(E.var());
  Epoch Now = Ht.epochOf(E.Tid);

  if (V.W == Now) {
    ++Stats.WriteSameEpoch;
    return; // [Write Same Epoch]
  }

  // Algorithm 3 write lines 19-23: consume lost CS information. Writes
  // conflict with reads and writes, so both maps contribute genuine
  // rule-(a) edges (DESIGN.md interpretation note 6).
  applyExtra(V.Er.get(), E, Pt, /*Consume=*/true);
  applyExtra(V.Ew.get(), E, Pt, /*Consume=*/true);

  // Keeps the residuals of thread U's sections as E^r_x(U), and those of
  // the last write's sections as E^w_x(U).
  auto KeepResiduals = [&](ThreadId U, LockClockMap &&Res, bool WithWrite) {
    if (!V.Er)
      V.Er = std::make_unique<ExtraMap>();
    if (!V.Ew)
      V.Ew = std::make_unique<ExtraMap>();
    setExtra(*V.Er, U, std::move(Res));
    if (!WithWrite)
      return;
    LockClockMap WRes;
    multiCheck(V.LW, V.W.tid(), Epoch::none(), E, Pt, &WRes);
    if (!WRes.empty())
      setExtra(*V.Ew, U, std::move(WRes));
  };

  if (!V.RShared) {
    if (V.R.tid() == E.Tid && !V.R.isNone()) {
      ++Stats.WriteOwned; // [Write Owned]
    } else {
      ++Stats.WriteExclusive; // [Write Exclusive]
      ThreadId U = V.R.tid();
      LockClockMap Res;
      multiCheck(V.LR, U, V.R, E, Pt, &Res);
      if (!Res.empty())
        KeepResiduals(U, std::move(Res), /*WithWrite=*/true);
    }
  } else {
    ++Stats.WriteShared; // [Write Shared]
    for (auto &KV : *V.LRShared) {
      ThreadId U = KV.first;
      if (U == E.Tid)
        continue;
      Epoch A = Epoch::make(U, V.RShared->get(U));
      if (A.clock() == 0)
        A = Epoch::none();
      LockClockMap Res;
      multiCheck(KV.second, U, A, E, Pt, &Res);
      if (Res.empty())
        continue;
      // Line 35: the last write's CS list matters for the thread that owns
      // the last write (interpretation note 7).
      KeepResiduals(U, std::move(Res), U == V.W.tid() && !V.W.isNone());
    }
    for (const auto &KV : *V.LRShared)
      Pool.drop(KV.second);
    V.LRShared.reset();
    V.RShared.reset();
  }

  CSRef Hcs = activeCS(E.Tid);
  Pool.assign(V.LW, Hcs); // line 36
  Pool.assign(V.LR, Hcs);
  V.W = Now; // line 37
  V.R = Now;
}

template <typename Policy> void STCore<Policy>::onAcquire(const Event &E) {
  VectorClock &Ht = Threads.of(E.Tid);
  LockState &L = lockState(E.lock());

  if constexpr (Policy::SplitClocks) {
    Ht.joinWith(L.HRel);
    PThreads.of(E.Tid).joinWith(L.PRel);
  }
  if constexpr (Policy::RuleB) {
    if (!L.Queues)
      L.Queues = std::make_unique<RuleBLog<Epoch>>(
          Policy::PerReleaserCursors);
    L.Queues->onAcquire(E.Tid, Ht.epochOf(E.Tid)); // line 2 (epoch queue)
  }
  // Lines 3-5: push a new critical section whose release clock is not yet
  // known; ∞ in the owner's entry makes ordering queries fail until then.
  if (E.Tid >= ActiveCS.size())
    ActiveCS.resize(E.Tid + 1, NoCS);
  CSRef &H = ActiveCS[E.Tid];
  H = Pool.cons(E.lock(), E.Tid, H);
  Held.pushLock(E.Tid, E.lock());
  Ht.increment(E.Tid); // line 6
}

template <typename Policy> void STCore<Policy>::onRelease(const Event &E) {
  VectorClock &Ht = Threads.of(E.Tid);
  VectorClock &Pt = this->predictiveOf(E.Tid, Ht);
  LockState &L = lockState(E.lock());

  if constexpr (Policy::RuleB) {
    if (L.Queues) {
      // Lines 8-12.
      L.Queues->drainOrdered(E.Tid, Pt,
                             [&](const VectorClock &Rel, uint64_t) {
                               Pt.joinWith(Rel);
                             });
      L.Queues->onRelease(E.Tid, Ht, this->currentEventIndex());
    }
  }
  // Lines 13-15: fill in the deferred release clock (the advance clock:
  // HB time under split clocks, for left composition when another
  // thread's MultiCheck joins this section) and pop the section.
  assert(E.Tid < ActiveCS.size() && "release on thread with no sections");
  if (E.Tid < ActiveCS.size())
    ActiveCS[E.Tid] = Pool.close(ActiveCS[E.Tid], E.lock(), Ht);
  if constexpr (Policy::SplitClocks) {
    L.HRel = Ht;
    L.PRel = Pt;
  }
  Held.popLock(E.Tid, E.lock());
  Ht.increment(E.Tid); // line 16
}

} // namespace st

#endif // SMARTTRACK_ANALYSIS_STCOREIMPL_H
