//===- analysis/RelationPolicy.h - WCP/DC/WDC relation policies -*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's central claim is that one set of epoch/ownership/CCS
/// optimizations applies uniformly across the predictive relations
/// (Algorithms 2-3 are written once and instantiated for WCP, DC, and
/// WDC). This header expresses the per-relation differences as small
/// compile-time policy structs so FTOCore and STCore can be written once:
///
///  - WCPPolicy: dual clocks. H_t is the HB clock; P_t holds genuine WCP
///    knowledge only (PO is not WCP). WCP composes with HB: left
///    composition stores *HB* release times in all rule-(a)/(b) metadata,
///    right composition propagates P_t along every HB edge (rel→acq via
///    the lock's release clocks, fork/join, volatiles). Rule (b) reduces
///    to an epoch check with one shared queue cursor per acquirer
///    (releases of one lock are totally HB-ordered; Kini et al. 2017).
///  - DCPolicy: single clock (DC includes PO, so ordering and race checks
///    run against C_t directly); rule (b) needs per-(releaser, acquirer)
///    queue cursors because DC knowledge is not monotone across releasers.
///  - WDCPolicy: DC without rule (b) (§3) — no queues at all.
///
/// PolicyCoreBase holds the state and event handlers that are literally
/// identical across the FTO and ST tiers once the policy fixes the clock
/// discipline: thread clocks, held-lock stacks, volatile/fork/join hard
/// edges, and the Table 12 case counters.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_ANALYSIS_RELATIONPOLICY_H
#define SMARTTRACK_ANALYSIS_RELATIONPOLICY_H

#include "analysis/Analysis.h"
#include "analysis/ClockSets.h"
#include "analysis/RuleBLog.h"

#include <type_traits>

namespace st {

/// Weak-causally-precedes (Kini et al. 2017; paper §2.4).
struct WCPPolicy {
  /// H_t and P_t are distinct; the predictive clock P_t excludes PO/HB.
  static constexpr bool SplitClocks = true;
  /// Rule (b) is computed.
  static constexpr bool RuleB = true;
  /// One shared rule-(b) cursor per acquirer (release-chain monotonicity).
  static constexpr bool PerReleaserCursors = false;
  /// Rule-(b) acquire times in the FTO tier (epoch check, §2.5).
  using FTOAcqTime = Epoch;
  static constexpr const char *FTOName = "FTO-WCP";
  static constexpr const char *STName = "ST-WCP";
  /// Per-lock last-release clocks carrying the rel→acq HB edge.
  struct LockClocks {
    VectorClock HRel; // HB clock of the last release
    VectorClock PRel; // WCP clock of the last release
  };
};

/// Doesn't-commute (paper Algorithms 1-3).
struct DCPolicy {
  static constexpr bool SplitClocks = false; // DC includes PO: one clock
  static constexpr bool RuleB = true;
  static constexpr bool PerReleaserCursors = true;
  using FTOAcqTime = VectorClock; // full-clock rule-(b) check
  static constexpr const char *FTOName = "FTO-DC";
  static constexpr const char *STName = "ST-DC";
  struct LockClocks {}; // no rel→acq edge outside rules (a)/(b)
};

/// Weak-doesn't-commute: DC minus rule (b) (paper §3).
struct WDCPolicy {
  static constexpr bool SplitClocks = false;
  static constexpr bool RuleB = false;
  static constexpr bool PerReleaserCursors = true; // unused (no queues)
  using FTOAcqTime = VectorClock;
  static constexpr const char *FTOName = "FTO-WDC";
  static constexpr const char *STName = "ST-WDC";
  struct LockClocks {};
};

/// The P_t clock set when the policy splits clocks; an empty placeholder
/// otherwise, so single-clock cores carry no dead member.
struct NoPClocks {
  size_t footprintBytes() const { return 0; }
};
template <typename Policy>
using PClocksOf =
    std::conditional_t<Policy::SplitClocks, ClockMap, NoPClocks>;

/// Handlers shared verbatim by FTOCore and STCore once the policy fixes
/// the clock discipline: the fork/join/volatile hard edges (which inject
/// full HB knowledge into P_t, §5.1) and the predictive-clock selection.
/// CRTP with no data members of its own: each core declares the clock
/// state itself, keeping its per-event-hot members on the same cache
/// lines they occupied as hand-written classes (the cores are hot enough
/// that base-vs-derived member placement is measurable).
///
/// Cores provide: Threads (ThreadClockSet), PThreads (PClocksOf<Policy>),
/// Held (HeldLockSet), VolWriteClock/VolReadClock (ClockMap), and Stats
/// (CaseStats), and befriend their base.
template <typename Policy, typename DerivedT>
class PolicyCoreBase : public Analysis {
public:
  const CaseStats *caseStats() const override { return &self().Stats; }

protected:
  DerivedT &self() { return *static_cast<DerivedT *>(this); }
  const DerivedT &self() const {
    return *static_cast<const DerivedT *>(this);
  }

  /// The thread's predictive clock — the one ordering and race checks run
  /// against: P_t under split clocks, aliasing \p Ht (= C_t) otherwise.
  VectorClock &predictiveOf(ThreadId T, VectorClock &Ht) {
    if constexpr (Policy::SplitClocks)
      return self().PThreads.of(T);
    else
      return Ht;
  }

  void onFork(const Event &E) override {
    // Hard edge: everything HB-before the fork precedes the child in
    // every predicted trace, so it enters the child's predictive
    // knowledge too (§5.1).
    DerivedT &S = self();
    VectorClock &Ht = S.Threads.of(E.Tid);
    S.Threads.of(E.childTid()).joinWith(Ht);
    if constexpr (Policy::SplitClocks)
      S.PThreads.of(E.childTid()).joinWith(Ht);
    Ht.increment(E.Tid);
  }

  void onJoin(const Event &E) override {
    DerivedT &S = self();
    VectorClock &ChildH = S.Threads.of(E.childTid());
    S.Threads.of(E.Tid).joinWith(ChildH);
    if constexpr (Policy::SplitClocks)
      S.PThreads.of(E.Tid).joinWith(ChildH);
  }

  void onVolRead(const Event &E) override {
    DerivedT &S = self();
    VectorClock &Ht = S.Threads.of(E.Tid);
    const VectorClock &VW = S.VolWriteClock.of(E.var());
    Ht.joinWith(VW);
    if constexpr (Policy::SplitClocks)
      S.PThreads.of(E.Tid).joinWith(VW);
    S.VolReadClock.of(E.var()).joinWith(Ht);
    Ht.increment(E.Tid);
  }

  void onVolWrite(const Event &E) override {
    DerivedT &S = self();
    VectorClock &Ht = S.Threads.of(E.Tid);
    VectorClock &VW = S.VolWriteClock.of(E.var());
    const VectorClock &VR = S.VolReadClock.of(E.var());
    Ht.joinWith(VW);
    Ht.joinWith(VR);
    if constexpr (Policy::SplitClocks) {
      VectorClock &Pt = S.PThreads.of(E.Tid);
      Pt.joinWith(VW);
      Pt.joinWith(VR);
    }
    VW.joinWith(Ht);
    Ht.increment(E.Tid);
  }

  /// Footprint of the clock state the cores declare per the contract.
  size_t baseFootprintBytes() const {
    const DerivedT &S = self();
    return S.Threads.footprintBytes() + S.PThreads.footprintBytes() +
           S.Held.footprintBytes() + S.VolWriteClock.footprintBytes() +
           S.VolReadClock.footprintBytes();
  }
};

} // namespace st

#endif // SMARTTRACK_ANALYSIS_RELATIONPOLICY_H
