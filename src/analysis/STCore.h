//===- analysis/STCore.h - Policy-parameterized SmartTrack ------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SmartTrack tier — the paper's Algorithm 3 and its most significant
/// contribution — written once over a RelationPolicy and instantiated for
/// WCP, DC, and WDC (§4.2: "applying SmartTrack to WDC and WCP analyses is
/// analogous and straightforward"). SmartTrack replaces the per-(lock,
/// variable) conflicting-critical-section clocks of Algorithms 1-2 (the
/// LockVarStore the Unopt/FTO tiers share) with per-variable critical
/// section (CS) lists that mirror the last-access metadata (analysis/
/// CSList.h).
///
/// MultiCheck (Algorithm 3) walks a CS list outermost-to-innermost,
/// combining the conflicting-critical-section check with the race check,
/// and returns the residual critical sections that are neither ordered nor
/// matched by a held lock.
///
/// Under WCPPolicy the CS-list release clocks are filled with *HB* release
/// times (left composition) while MultiCheck's joins and ordering checks
/// run against P_t; rule (b) uses shared per-acquirer epoch queues. Under
/// DC/WDCPolicy there is a single clock and rule (b) (when present) uses
/// per-releaser cursors ("Optimizing Acq_m,t(t')", Algorithm 3 line 2).
///
/// Interpretation notes (DESIGN.md §4): MultiCheck returns immediately when
/// the list owner is the current thread (PO-ordered; avoids joining the ∞
/// sentinel); writes join E^w alongside E^r for held locks (both are
/// genuine rule-(a) edges); line 35's L^w_x(u) means "the last write's CS
/// list when u owns the last write".
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_ANALYSIS_STCORE_H
#define SMARTTRACK_ANALYSIS_STCORE_H

#include "analysis/CSList.h"
#include "analysis/RelationPolicy.h"
#include "support/Compiler.h"

#include <memory>
#include <string>
#include <vector>

namespace st {

/// SmartTrack analysis per Algorithm 3, parameterized by relation policy.
template <typename Policy>
class STCore : public PolicyCoreBase<Policy, STCore<Policy>> {
public:
  const char *name() const override { return Policy::STName; }
  size_t metadataFootprintBytes() const override;

  /// Test oracle: recounts every CS cell's references from the roots (the
  /// active lists, L^w/L^r, shared-read lists and extra metadata) and
  /// checks them against the pool. Empty when consistent, else the first
  /// mismatch.
  std::string checkCSRefs() const;

  /// CS cells in use: zero once every lock is released and no metadata
  /// names a critical section.
  size_t liveCSCells() const { return Pool.liveCells(); }

  /// Bytes each variable's metadata adds to the footprint.
  static constexpr size_t varStateBytes() { return sizeof(VarState); }

protected:
  void onRead(const Event &E) override;
  void onWrite(const Event &E) override;
  void onAcquire(const Event &E) override;
  void onRelease(const Event &E) override;

private:
  using Base = PolicyCoreBase<Policy, STCore<Policy>>;
  friend Base;

  struct VarState {
    Epoch W;                              // last write
    Epoch R;                              // last reads+write (epoch mode)
    std::unique_ptr<VectorClock> RShared; // shared mode
    CSRef LW = NoCS;                      // L^w_x
    CSRef LR = NoCS;                      // L^r_x in epoch mode
    std::unique_ptr<std::unordered_map<ThreadId, CSRef>> LRShared;
    std::unique_ptr<ExtraMap> Er, Ew;     // E^r_x, E^w_x
  };

  struct LockState : Policy::LockClocks {
    std::unique_ptr<RuleBLog<Epoch>> Queues;
  };

  VarState &varState(VarId X) {
    if (X >= Vars.size())
      Vars.resize(X + 1);
    return Vars[X];
  }

  LockState &lockState(LockId M) {
    if (M >= Locks.size())
      Locks.resize(M + 1);
    return Locks[M];
  }

  /// Algorithm 3's MultiCheck: walks \p L (owned by thread \p U) outermost
  /// to innermost; joins the release clock of the first critical section on
  /// a lock the current thread holds; performs the race check against
  /// \p A if nothing subsumed it. Adds the residual unmatched sections
  /// seen before any such stop to \p Residuals unless it is null.
  /// \p Pt is the current thread's predictive clock.
  void multiCheck(CSRef L, ThreadId U, Epoch A, const Event &Ev,
                  VectorClock &Pt, LockClockMap *Residuals);

  /// E[U] := \p Res in extra map \p Extra, dropping the sections it held.
  void setExtra(ExtraMap &Extra, ThreadId U, LockClockMap &&Res);

  /// Drops the sections \p LM retains.
  void dropAll(const LockClockMap &LM) {
    for (const auto &KV : LM)
      Pool.drop(KV.second);
  }

  /// Joins (into \p Pt) and consumes held-lock entries of \p Extra per
  /// Algorithm 3 lines 19-23 (writes) / 4-6 (reads, \p Consume = false).
  /// The wrapper keeps the dominant empty-map case on the inlined fast
  /// path (extra metadata is empty in the common case — that is where
  /// SmartTrack's speedup lives).
  ST_ALWAYS_INLINE void applyExtra(ExtraMap *Extra, const Event &Ev,
                                   VectorClock &Pt, bool Consume) {
    if (!Extra || Extra->empty())
      return;
    applyExtraSlow(*Extra, Ev, Pt, Consume);
  }
  void applyExtraSlow(ExtraMap &Extra, const Event &Ev, VectorClock &Pt,
                      bool Consume);

  /// H_t: thread \p T's active CS list.
  CSRef activeCS(ThreadId T) const {
    return T < ActiveCS.size() ? ActiveCS[T] : NoCS;
  }

  // Clock state per the PolicyCoreBase contract, ordered so the
  // per-access-hot members share leading cache lines.
  ThreadClockSet Threads;     // H_t (split clocks) or C_t
  PClocksOf<Policy> PThreads; // P_t (split clocks only)
  HeldLockSet Held;
  CSPool Pool;                 // every CS cell of this analysis
  std::vector<CSRef> ActiveCS; // each thread's active CS list
  std::vector<CSRef> Walk;     // multiCheck scratch: a list, innermost first
  std::vector<VarState> Vars;
  std::vector<LockState> Locks;
  ClockMap VolWriteClock, VolReadClock;
  CaseStats Stats;
};

extern template class STCore<WCPPolicy>;
extern template class STCore<DCPolicy>;
extern template class STCore<WDCPolicy>;

/// The Table 1 SmartTrack configurations.
using SmartTrackWCP = STCore<WCPPolicy>;
using SmartTrackDC = STCore<DCPolicy>;
using SmartTrackWDC = STCore<WDCPolicy>;

} // namespace st

#endif // SMARTTRACK_ANALYSIS_STCORE_H
