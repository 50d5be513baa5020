//===- tests/workload/WorkloadTest.cpp - Workload generator tests ---------===//

#include "workload/Workload.h"

#include "analysis/AnalysisRegistry.h"
#include "workload/Characteristics.h"

#include <gtest/gtest.h>

using namespace st;

namespace {

TEST(WorkloadTest, TenDacapoProfiles) {
  EXPECT_EQ(dacapoProfiles().size(), 10u);
  EXPECT_NE(findProfile("xalan"), nullptr);
  EXPECT_NE(findProfile("h2"), nullptr);
  EXPECT_EQ(findProfile("no-such-program"), nullptr);
}

TEST(WorkloadTest, DeterministicForSeed) {
  const WorkloadProfile &P = *findProfile("avrora");
  WorkloadGenerator A(P, 5000, 7), B(P, 5000, 7);
  Event EA, EB;
  while (true) {
    bool HasA = A.next(EA), HasB = B.next(EB);
    ASSERT_EQ(HasA, HasB);
    if (!HasA)
      break;
    ASSERT_TRUE(EA == EB);
  }
}

TEST(WorkloadTest, DifferentSeedsDiffer) {
  const WorkloadProfile &P = *findProfile("avrora");
  WorkloadGenerator A(P, 2000, 1), B(P, 2000, 2);
  Trace TA = A.materialize(2000), TB = B.materialize(2000);
  bool Same = TA.size() == TB.size();
  if (Same)
    for (size_t I = 0; I < TA.size(); ++I)
      if (!(TA[I] == TB[I])) {
        Same = false;
        break;
      }
  EXPECT_FALSE(Same);
}

TEST(WorkloadTest, ResetReplaysIdentically) {
  const WorkloadProfile &P = *findProfile("jython");
  WorkloadGenerator G(P, 3000, 5);
  Trace First = G.materialize(3000);
  G.reset();
  Trace Second = G.materialize(3000);
  ASSERT_EQ(First.size(), Second.size());
  for (size_t I = 0; I < First.size(); ++I)
    EXPECT_TRUE(First[I] == Second[I]) << "event " << I;
}

class WorkloadProfileTest
    : public ::testing::TestWithParam<WorkloadProfile> {};

TEST_P(WorkloadProfileTest, GeneratesWellFormedTraces) {
  WorkloadGenerator G(GetParam(), 30000, 11);
  Trace Tr = G.materialize(30000);
  std::string Error;
  EXPECT_TRUE(Tr.validate(&Error)) << GetParam().Name << ": " << Error;
  EXPECT_GE(Tr.size(), 30000u * 9 / 10);
}

TEST_P(WorkloadProfileTest, MatchesNseaTarget) {
  WorkloadGenerator G(GetParam(), 200000, 13);
  WorkloadCharacteristics C = measureCharacteristics(G);
  double Target = GetParam().NseaFraction;
  EXPECT_NEAR(C.nseaFraction(), Target, std::max(0.25 * Target, 0.01))
      << GetParam().Name;
}

TEST_P(WorkloadProfileTest, MatchesHeldLockTargets) {
  WorkloadGenerator G(GetParam(), 200000, 13);
  WorkloadCharacteristics C = measureCharacteristics(G);
  const WorkloadProfile &P = GetParam();
  EXPECT_NEAR(C.heldFraction(1), P.Held1, std::max(0.2 * P.Held1, 0.05))
      << P.Name;
  EXPECT_NEAR(C.heldFraction(2), P.Held2, std::max(0.25 * P.Held2, 0.02))
      << P.Name;
  EXPECT_NEAR(C.heldFraction(3), P.Held3, std::max(0.3 * P.Held3, 0.02))
      << P.Name;
}

TEST_P(WorkloadProfileTest, ThreadCountMatches) {
  WorkloadGenerator G(GetParam(), 20000, 3);
  Trace Tr = G.materialize(20000);
  EXPECT_EQ(Tr.numThreads(), GetParam().Threads) << GetParam().Name;
}

INSTANTIATE_TEST_SUITE_P(
    Dacapo, WorkloadProfileTest, ::testing::ValuesIn(dacapoProfiles()),
    [](const ::testing::TestParamInfo<WorkloadProfile> &Info) {
      return std::string(Info.param.Name);
    });

TEST(WorkloadRaceTest, RaceFreeProfilesReportNoRaces) {
  for (const char *Name : {"batik", "lusearch"}) {
    const WorkloadProfile &P = *findProfile(Name);
    WorkloadGenerator G(P, 60000, 17);
    auto A = createAnalysis(AnalysisKind::STWDC);
    Event E;
    while (G.next(E))
      A->processEvent(E);
    EXPECT_EQ(A->dynamicRaces(), 0u) << Name;
  }
}

TEST(WorkloadRaceTest, RaceCountsFollowRelationHierarchy) {
  // xalan-like seeding: few HB races, many predictive, extra DC-only.
  const WorkloadProfile &P = *findProfile("xalan");
  WorkloadGenerator G(P, 150000, 19);
  Trace Tr = G.materialize(150000);
  auto Count = [&Tr](AnalysisKind K) {
    auto A = createAnalysis(K);
    A->setMaxStoredRaces(0);
    A->processTrace(Tr);
    return A->staticRaces();
  };
  unsigned HB = Count(AnalysisKind::FTOHB);
  unsigned WCP = Count(AnalysisKind::STWCP);
  unsigned DC = Count(AnalysisKind::STDC);
  unsigned WDC = Count(AnalysisKind::STWDC);
  EXPECT_LT(HB, WCP) << "predictive episodes must be invisible to HB";
  EXPECT_LT(WCP, DC) << "DC-only episodes must be invisible to WCP";
  EXPECT_EQ(DC, WDC) << "no WDC-only seeding";
  EXPECT_GT(HB, 0u) << "HB episodes present in xalan";
}

TEST(WorkloadRaceTest, DynamicRacesExceedStatic) {
  const WorkloadProfile &P = *findProfile("tomcat");
  WorkloadGenerator G(P, 120000, 23);
  Trace Tr = G.materialize(120000);
  auto A = createAnalysis(AnalysisKind::STWDC);
  A->processTrace(Tr);
  EXPECT_GT(A->dynamicRaces(), static_cast<uint64_t>(A->staticRaces()));
}

TEST(WorkloadTest, StreamStopsNearTarget) {
  const WorkloadProfile &P = *findProfile("pmd");
  WorkloadGenerator G(P, 1000, 3);
  Event E;
  uint64_t N = 0;
  while (G.next(E))
    ++N;
  EXPECT_GE(N, 1000u);
  EXPECT_LT(N, 1000u + 10000u) << "stream should stop at a block boundary";
  EXPECT_EQ(G.eventsEmitted(), N);
}

TEST(CharacteristicsTest, CountsSameEpochAccessesLikeFTO) {
  // Hand-built stream: wr(x); wr(x) same epoch; sync; wr(x) new epoch.
  WorkloadProfile P;
  P.Threads = 2;
  P.EpisodesPerMillion = 0;
  WorkloadGenerator G(P, 200, 3);
  WorkloadCharacteristics C = measureCharacteristics(G);
  EXPECT_GT(C.AllEvents, 0u);
  EXPECT_GT(C.Nseas, 0u);
  EXPECT_LE(C.Nseas, C.AllEvents);
  EXPECT_LE(C.NseaHeld3, C.NseaHeld2);
  EXPECT_LE(C.NseaHeld2, C.NseaHeld1);
  EXPECT_LE(C.NseaHeld1, C.Nseas);
}

} // namespace
