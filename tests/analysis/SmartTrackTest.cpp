//===- tests/analysis/SmartTrackTest.cpp - SmartTrack-specific tests ------===//
//
// Exercises Algorithm 3's machinery directly: CS lists and deferred release
// clocks, MultiCheck's held-lock joins, the [Read Share]-over-[Read
// Exclusive] behavior (Figure 4(b)), the extra metadata E^r/E^w (Figures
// 4(c,d)), the epoch acquire-queue optimization, case statistics, and
// the CS-list cell pool: out-of-order releases pinned to the counts of the
// shared-pointer lists the pool replaced, and a reference-count oracle.
//
//===----------------------------------------------------------------------===//

#include "../property/GoldenConfigs.h"

#include "analysis/FTOCore.h"
#include "analysis/STCore.h"
#include "trace/TraceText.h"
#include "workload/Figures.h"

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

using namespace st;

namespace {

TEST(SmartTrackTest, Fig4aWalkthroughIsRaceFree) {
  // The paper's §4.2 walkthrough: nested critical sections on p/m/n; the
  // deferred release clocks and MultiCheck joins must order everything.
  SmartTrackDC A;
  A.processTrace(figures::fig4a());
  EXPECT_EQ(A.dynamicRaces(), 0u);
}

TEST(SmartTrackTest, Fig4aTakesReadShareWhereFTOTakesReadExclusive) {
  // At Thread 2's rd(x), the prior write's outermost critical section on p
  // is still unreleased, so SmartTrack must take [Read Share]; FTO-DC takes
  // [Read Exclusive] because the access itself is DC-ordered.
  // fig4a has three reads: rd(x) by T2 plus the rd(oVar) of each sync(o).
  // ST: rd(x) and T3's rd(oVar) take [Read Share] (their predecessors'
  // sections are unreleased or DC-unordered); T2's rd(oVar) is the first
  // access (exclusive). FTO orders all three accesses directly and never
  // shares.
  SmartTrackDC ST;
  ST.processTrace(figures::fig4a());
  EXPECT_EQ(ST.caseStats()->ReadShare, 2u);
  EXPECT_EQ(ST.caseStats()->ReadExclusive, 1u);

  FTODC FTO;
  FTO.processTrace(figures::fig4a());
  EXPECT_EQ(FTO.caseStats()->ReadExclusive, 3u);
  EXPECT_EQ(FTO.caseStats()->ReadShare, 0u);
}

TEST(SmartTrackTest, Fig4bExtendedNeedsReadShareBehavior) {
  // Without the [Read Share] behavior, ST-WDC would lose Thread 1's
  // critical section on m and report a spurious race on z (Figure 4(b)).
  SmartTrackWDC A;
  A.processTrace(figures::fig4bExtended());
  EXPECT_EQ(A.dynamicRaces(), 0u);
}

TEST(SmartTrackTest, Fig4cExtendedNeedsExtraWriteMetadata) {
  // Thread 2's un-locked wr(x) overwrites L^w_x; E^w_x must preserve
  // Thread 1's critical section (Figure 4(c)).
  SmartTrackWDC A;
  A.processTrace(figures::fig4cExtended());
  EXPECT_EQ(A.dynamicRaces(), 0u);
}

TEST(SmartTrackTest, Fig4dExtendedNeedsExtraReadMetadata) {
  // Same as fig4c but the lost section contains a read: E^r_x (Figure 4(d)).
  SmartTrackWDC A;
  A.processTrace(figures::fig4dExtended());
  EXPECT_EQ(A.dynamicRaces(), 0u);
}

TEST(SmartTrackTest, DeferredReleaseClockResolvesAcrossThreads) {
  // T2 conflicts with T1's still-open critical section on m at the time of
  // T1's wr(x); the CS-list entry is filled at rel(m) and T2's MultiCheck
  // must pick up the final clock, ordering everything.
  SmartTrackDC A;
  A.processTrace(traceFromText(R"(
    T1: acq(m)
    T1: wr(x)
    T1: rel(m)
    T2: acq(m)
    T2: wr(x)
    T2: wr(y)
    T2: rel(m)
    T1x: rd(y)
  )"));
  // T1x never synchronized: rd(y) races with T2's wr(y).
  EXPECT_EQ(A.dynamicRaces(), 1u);
}

TEST(SmartTrackTest, UnreleasedSectionNeverOrders) {
  // T1 still holds m when T2 writes x without the lock: the ∞ sentinel in
  // the CS-list clock must make the ordering check fail, and the write must
  // race with T1's read.
  SmartTrackDC A;
  A.processTrace(traceFromText(R"(
    T1: acq(m)
    T1: rd(x)
    T2: wr(x)
  )"));
  EXPECT_EQ(A.dynamicRaces(), 1u);
}

TEST(SmartTrackTest, MultiCheckJoinsInnerSectionWhenOuterUnmatched) {
  // T1's wr(x) sits in nested sections on p (outer) and m (inner); T2 holds
  // only m. MultiCheck walks outermost-to-innermost: p is unmatched (and
  // unordered), m matches and joins. No race.
  SmartTrackDC A;
  A.processTrace(traceFromText(R"(
    T1: acq(p)
    T1: acq(m)
    T1: wr(x)
    T1: rel(m)
    T1: rel(p)
    T2: acq(m)
    T2: wr(x)
    T2: rel(m)
  )"));
  EXPECT_EQ(A.dynamicRaces(), 0u);
}

TEST(SmartTrackTest, CaseStatsMatchFTOOnOwnedPatterns) {
  const char *Text = R"(
    T1: wr(x)
    T1: acq(m)
    T1: rd(x)
    T1: wr(x)
    T1: rel(m)
  )";
  SmartTrackDC ST;
  FTODC FTO;
  ST.processTrace(traceFromText(Text));
  FTO.processTrace(traceFromText(Text));
  EXPECT_EQ(ST.caseStats()->ReadOwned, FTO.caseStats()->ReadOwned);
  EXPECT_EQ(ST.caseStats()->WriteOwned, FTO.caseStats()->WriteOwned);
  EXPECT_EQ(ST.caseStats()->WriteExclusive,
            FTO.caseStats()->WriteExclusive);
}

TEST(SmartTrackTest, STWCPComposesWithHB) {
  SmartTrackWCP A;
  A.processTrace(figures::fig2a());
  EXPECT_EQ(A.dynamicRaces(), 0u) << "WCP composes with HB: no race";
  SmartTrackDC DC;
  DC.processTrace(figures::fig2a());
  EXPECT_EQ(DC.dynamicRaces(), 1u) << "DC composes with PO only: race";
}

TEST(SmartTrackTest, STDCRuleBOrdersFig3) {
  SmartTrackDC DC;
  DC.processTrace(figures::fig3());
  EXPECT_EQ(DC.dynamicRaces(), 0u);
  SmartTrackWDC WDC;
  WDC.processTrace(figures::fig3());
  EXPECT_EQ(WDC.dynamicRaces(), 1u);
}

TEST(SmartTrackTest, ExtraMetadataConsumedAtWrites) {
  // After fig4c's pattern, a later same-thread write holding m should have
  // consumed (and cleared) the extra metadata without changing verdicts.
  SmartTrackWDC A;
  Trace Tr = figures::fig4cExtended();
  A.processTrace(Tr);
  EXPECT_EQ(A.dynamicRaces(), 0u);
}

TEST(SmartTrackTest, SameEpochFastPathsCount) {
  SmartTrackDC A;
  A.processTrace(traceFromText(R"(
    T1: wr(x)
    T1: wr(x)
    T1: rd(x)
    T1: rd(x)
  )"));
  EXPECT_EQ(A.caseStats()->WriteSameEpoch, 1u);
  // After a write by the same thread in the same epoch, reads hit the
  // same-epoch path too (R_x was updated by the write).
  EXPECT_EQ(A.caseStats()->ReadSameEpoch, 2u);
}

TEST(SmartTrackTest, LocksReleasedOutOfOrderStillTracked) {
  // Hand-over-hand (non-nested) locking: acq(a); acq(b); rel(a); rel(b).
  SmartTrackDC A;
  A.processTrace(traceFromText(R"(
    T1: acq(a)
    T1: acq(b)
    T1: wr(x)
    T1: rel(a)
    T1: rel(b)
    T2: acq(b)
    T2: wr(x)
    T2: rel(b)
  )"));
  EXPECT_EQ(A.dynamicRaces(), 0u);
}

TEST(SmartTrackTest, WriteSharedChecksEveryReader) {
  // Two unordered readers, then an unordered writer: exactly one dynamic
  // race is counted at the write (paper §5.1), and the verdict matches FTO.
  SmartTrackDC ST;
  FTODC FTO;
  Trace Tr = traceFromText("T1: rd(x)\nT2: rd(x)\nT3: wr(x)\n");
  ST.processTrace(Tr);
  FTO.processTrace(Tr);
  EXPECT_EQ(ST.dynamicRaces(), 1u);
  EXPECT_EQ(FTO.dynamicRaces(), 1u);
}

TEST(SmartTrackTest, FootprintTracksCSLists) {
  // The acquire charges the section's cell; 1000 variables written inside
  // the section then add exactly their VarStates, since they all name the
  // one cell (a shared list is counted once).
  constexpr VarId N = 1000;
  auto WriteAll = [](TraceBuilder &B) {
    for (VarId X = N; X-- > 0;) // highest first: Vars is sized once
      B.write(0, X);
  };
  TraceBuilder InCS;
  InCS.acq(0, 0);
  WriteAll(InCS);
  Trace Tr = InCS.build();

  SmartTrackDC A;
  size_t Empty = A.footprintBytes();
  A.processEvent(Tr[0]);
  size_t Acquired = A.footprintBytes();
  EXPECT_GE(Acquired - Empty, sizeof(CSCell));
  for (size_t I = 1; I != Tr.size(); ++I)
    A.processEvent(Tr[I]);
  EXPECT_EQ(A.footprintBytes() - Acquired,
            N * SmartTrackDC::varStateBytes());
  EXPECT_EQ(A.liveCSCells(), 1u);

  // The same writes outside any section, with the acquire last, cost the
  // same bytes: the list adds nothing per variable.
  TraceBuilder Outside;
  WriteAll(Outside);
  Outside.acq(0, 0);
  SmartTrackDC B;
  B.processTrace(Outside.build());
  EXPECT_EQ(A.footprintBytes(), B.footprintBytes());
}

using Counts = std::array<uint64_t, 11>;

/// ReadSameEpoch, SharedSameEpoch, WriteSameEpoch, ReadOwned,
/// ReadSharedOwned, ReadExclusive, ReadShare, ReadShared, WriteOwned,
/// WriteExclusive, WriteShared.
Counts caseCounts(const CaseStats &S) {
  return {S.ReadSameEpoch,   S.SharedSameEpoch, S.WriteSameEpoch,
          S.ReadOwned,       S.ReadSharedOwned, S.ReadExclusive,
          S.ReadShare,       S.ReadShared,      S.WriteOwned,
          S.WriteExclusive,  S.WriteShared};
}

/// Feeds \p Tr to \p A, running the reference-count oracle after every
/// \p Every events and at the end.
template <typename Core>
void processChecked(Core &A, const Trace &Tr, size_t Every = 1) {
  for (size_t I = 0; I != Tr.size(); ++I) {
    A.processEvent(Tr[I]);
    if ((I + 1) % Every == 0 || I + 1 == Tr.size()) {
      ASSERT_EQ(A.checkCSRefs(), "") << "after event " << I;
    }
  }
}

/// Out-of-order releases (acq(a) acq(b) ... rel(a) ... rel(b)): each case
/// releases an outer lock while a section inside it is referenced by
/// variable metadata, then has other threads access those variables
/// holding the released lock.
enum : LockId { La, Lb, Lc };
enum : VarId { Vx, Vy, Vz };

std::vector<std::pair<const char *, Trace>> outOfOrderCases() {
  std::vector<std::pair<const char *, Trace>> Cases;
  {
    // The outer lock is re-acquired by a writer while the inner section
    // that wrote x is still open.
    TraceBuilder B;
    B.acq(0, La).acq(0, Lb).write(0, Vx).rel(0, La);
    B.acq(1, La).write(1, Vx).rel(1, La);
    B.rel(0, Lb);
    B.acq(1, Lb).read(1, Vx).rel(1, Lb);
    Cases.emplace_back("OuterReacquiredWhileInnerOpen", B.build());
  }
  {
    // A shared read inside the inner section, a second unprotected
    // reader, then a writer holding the released outer lock.
    TraceBuilder B;
    B.acq(0, La).acq(0, Lb).read(0, Vx).read(1, Vx).rel(0, La);
    B.acq(2, La).write(2, Vx).rel(2, La);
    B.rel(0, Lb);
    Cases.emplace_back("SharedReadersThenOuterWriter", B.build());
  }
  {
    // The middle of three sections closes first; accesses after it run
    // in the copied inner section, whose clock the old list shares.
    TraceBuilder B;
    B.acq(0, La).acq(0, Lb).acq(0, Lc).write(0, Vx).read(0, Vy).rel(0, Lb);
    B.write(0, Vz).read(0, Vx).rel(0, Lc).rel(0, La);
    B.acq(1, Lb).write(1, Vx).write(1, Vy).rel(1, Lb);
    B.acq(2, Lc).read(2, Vz).write(2, Vx).rel(2, Lc);
    B.acq(2, La).write(2, Vy).rel(2, La);
    Cases.emplace_back("MiddleSectionReleasedFirst", B.build());
  }
  {
    // A variable holding the pre-release list must still see the inner
    // section's release time, which the copy's release fills in, and
    // T0's later unprotected write of z must still race with T1's read.
    TraceBuilder B;
    B.acq(0, La).acq(0, Lb).write(0, Vx).rel(0, La).write(0, Vy);
    B.rel(0, Lb).write(0, Vz);
    B.acq(1, Lb).write(1, Vx).write(1, Vy).rel(1, Lb).read(1, Vz);
    B.read(2, Vx);
    Cases.emplace_back("OldListSeesCopiedSectionRelease", B.build());
  }
  {
    // Unprotected accesses race with the open inner section; the writer
    // holding the released outer lock then reads.
    TraceBuilder B;
    B.acq(0, La).acq(0, Lb).write(0, Vx).read(0, Vy).rel(0, La);
    B.write(1, Vx).read(1, Vy);
    B.rel(0, Lb);
    B.acq(1, La).read(1, Vx).write(1, Vy).rel(1, La);
    Cases.emplace_back("UnprotectedAccessDuringInnerSection", B.build());
  }
  {
    // Hand-over-hand chain over three locks by one thread, then two
    // threads each holding one of the locks touch every variable.
    TraceBuilder B;
    B.acq(0, La).acq(0, Lb).write(0, Vx).rel(0, La);
    B.acq(0, Lc).write(0, Vy).read(0, Vx).rel(0, Lb);
    B.acq(0, La).write(0, Vz).read(0, Vy).rel(0, Lc).rel(0, La);
    B.acq(1, Lb).read(1, Vx).read(1, Vy).write(1, Vz).rel(1, Lb);
    B.acq(2, Lc).write(2, Vy).write(2, Vz).rel(2, Lc);
    B.acq(2, La).write(2, Vx).rel(2, La);
    Cases.emplace_back("HandOverHandChain", B.build());
  }
  return Cases;
}

struct FrozenCounts {
  const char *Name;
  uint64_t Races;
  Counts Cases;
};

// Captured from the shared-pointer CS lists the cell pool replaced. The
// three relations agree on every case, so one row serves all of them.
const FrozenCounts OutOfOrderGoldens[] = {
    {"OuterReacquiredWhileInnerOpen", 0, {0, 0, 0, 1, 0, 0, 0, 0, 0, 2, 0}},
    {"SharedReadersThenOuterWriter", 1, {0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1}},
    {"MiddleSectionReleasedFirst", 3, {0, 0, 0, 1, 0, 1, 1, 0, 0, 6, 0}},
    {"OldListSeesCopiedSectionRelease", 2, {0, 0, 0, 0, 0, 0, 2, 0, 0, 5, 0}},
    {"UnprotectedAccessDuringInnerSection",
     1,
     {0, 0, 0, 1, 0, 1, 1, 0, 0, 2, 1}},
    {"HandOverHandChain", 4, {0, 0, 0, 2, 0, 0, 2, 0, 0, 5, 2}},
};

template <typename Core>
void expectFrozen(const Trace &Tr, const FrozenCounts &G) {
  Core A;
  SCOPED_TRACE(std::string(G.Name) + " on " + A.name());
  processChecked(A, Tr);
  EXPECT_EQ(A.dynamicRaces(), G.Races);
  EXPECT_EQ(caseCounts(*A.caseStats()), G.Cases);
}

TEST(SmartTrackTest, OutOfOrderReleasesMatchFrozenCounts) {
  auto Cases = outOfOrderCases();
  ASSERT_EQ(Cases.size(), std::size(OutOfOrderGoldens));
  for (size_t I = 0; I != Cases.size(); ++I) {
    const FrozenCounts &G = OutOfOrderGoldens[I];
    ASSERT_STREQ(Cases[I].first, G.Name);
    expectFrozen<SmartTrackWCP>(Cases[I].second, G);
    expectFrozen<SmartTrackDC>(Cases[I].second, G);
    expectFrozen<SmartTrackWDC>(Cases[I].second, G);
  }
}

TEST(SmartTrackTest, CSRefCountsHoldOnGoldenAndFigureTraces) {
  std::vector<Trace> Traces = {
      figures::fig2a(),         figures::fig3(),
      figures::fig4a(),         figures::fig4bExtended(),
      figures::fig4cExtended(), figures::fig4dExtended()};
  for (unsigned I = 0; I != NumGoldenConfigs; ++I)
    Traces.push_back(generateRandomTrace(goldenConfig(I)));
  for (const Trace &Tr : Traces) {
    SmartTrackWCP WCP;
    SmartTrackDC DC;
    SmartTrackWDC WDC;
    processChecked(WCP, Tr, 97);
    processChecked(DC, Tr, 97);
    processChecked(WDC, Tr, 97);
  }
}

TEST(SmartTrackTest, NoLiveCellsOnceLocksAndMetadataAreGone) {
  // Nested and out-of-order sections, reads whose MultiCheck finds
  // residual sections, and writes that keep residuals as E^r/E^w. Then
  // every variable is rewritten outside any section by each thread in
  // turn (a thread's write drops its own E^r/E^w entries): no metadata
  // names a section any more, so every cell must be free.
  TraceBuilder B;
  B.acq(0, La).acq(0, Lb).write(0, Vx).write(0, Vy).rel(0, Lb).rel(0, La);
  B.read(1, Vx).read(2, Vx);             // [Read Share], [Read Shared]
  B.acq(1, Lc).write(1, Vy).rel(1, Lc);  // E^r/E^w residuals
  B.acq(2, La).write(2, Vx).rel(2, La);  // [Write Shared]
  B.acq(0, La).acq(0, Lb).write(0, Vz);  // then released out of order
  B.rel(0, La).read(0, Vz).rel(0, Lb).read(1, Vz);
  for (ThreadId T : {1u, 2u, 0u, 1u})
    for (VarId X : {Vx, Vy, Vz})
      B.write(T, X);
  Trace Tr = B.build();

  SmartTrackWCP WCP;
  SmartTrackDC DC;
  SmartTrackWDC WDC;
  processChecked(WCP, Tr);
  processChecked(DC, Tr);
  processChecked(WDC, Tr);
  EXPECT_EQ(WCP.liveCSCells(), 0u);
  EXPECT_EQ(DC.liveCSCells(), 0u);
  EXPECT_EQ(WDC.liveCSCells(), 0u);
}

} // namespace
