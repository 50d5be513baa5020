//===- tests/report/SessionTest.cpp - Session facade behavior -------------===//
//
// The Session facade must be a faithful repackaging of the engine: on the
// LadderGoldenTest workloads, RunReport's per-analysis race counts and
// case statistics must equal a direct per-analysis run (the numbers the
// pre-redesign driver/CLI reported and LadderGoldenTest freezes), for all
// 14 registry analyses in one single-pass session. Plus the facade's own
// contract: sink fan-out, bounded stores, vindication, the zero-analysis
// drain and the validation modes. The batch loop itself is covered by
// SessionEngineTest.
//
//===----------------------------------------------------------------------===//

#include "report/Session.h"

#include "engine/EventSource.h"
#include "graph/EdgeRecorder.h"
#include "trace/Stb.h"
#include "trace/TraceText.h"
#include "workload/RandomTrace.h"

#include <gtest/gtest.h>

using namespace st;

namespace {

/// The three frozen workload shapes from LadderGoldenTest.
RandomTraceConfig goldenConfig(unsigned I) {
  RandomTraceConfig C;
  switch (I) {
  case 0:
    C.Seed = 1009;
    C.Threads = 4;
    C.Vars = 6;
    C.Locks = 3;
    C.Events = 600;
    C.MaxNesting = 2;
    C.PSync = 0.45;
    break;
  case 1:
    C.Seed = 424242;
    C.Threads = 5;
    C.Vars = 4;
    C.Locks = 2;
    C.Volatiles = 1;
    C.PVolatile = 0.1;
    C.Events = 500;
    C.ForkJoin = true;
    C.PSync = 0.35;
    break;
  default:
    C.Seed = 77;
    C.Threads = 8;
    C.Vars = 10;
    C.Locks = 4;
    C.Events = 800;
    C.MaxNesting = 3;
    C.PSync = 0.3;
    C.PWrite = 0.7;
    break;
  }
  return C;
}

class SessionGolden : public ::testing::TestWithParam<unsigned> {};

TEST_P(SessionGolden, RunReportMatchesDirectRunsOnLadderWorkloads) {
  Trace Tr = generateRandomTrace(goldenConfig(GetParam()));

  Session S;
  for (AnalysisKind K : allAnalysisKinds())
    S.add(K);
  TraceEventSource Src(Tr);
  RunReport Rep = S.run(Src);

  ASSERT_EQ(Rep.Analyses.size(), allAnalysisKinds().size());
  EXPECT_EQ(Rep.Stream.Events, Tr.size());

  uint64_t Total = 0;
  for (size_t I = 0; I != Rep.Analyses.size(); ++I) {
    AnalysisKind K = allAnalysisKinds()[I];
    EdgeRecorder Graph;
    auto Direct = createAnalysis(K, buildsGraph(K) ? &Graph : nullptr);
    Direct->processTrace(Tr);

    const AnalysisRunResult &A = Rep.Analyses[I];
    EXPECT_EQ(A.Name, analysisKindName(K));
    EXPECT_EQ(A.DynamicRaces, Direct->dynamicRaces()) << A.Name;
    EXPECT_EQ(A.StaticRaces, Direct->staticRaces()) << A.Name;
    EXPECT_EQ(A.Races.size(), Direct->raceRecords().size()) << A.Name;
    Total += A.DynamicRaces;

    const CaseStats *Want = Direct->caseStats();
    EXPECT_EQ(A.HasCaseStats, Want != nullptr) << A.Name;
    if (Want) {
      EXPECT_EQ(A.Cases.ReadSameEpoch, Want->ReadSameEpoch) << A.Name;
      EXPECT_EQ(A.Cases.SharedSameEpoch, Want->SharedSameEpoch) << A.Name;
      EXPECT_EQ(A.Cases.WriteSameEpoch, Want->WriteSameEpoch) << A.Name;
      EXPECT_EQ(A.Cases.nonSameEpochReads(), Want->nonSameEpochReads())
          << A.Name;
      EXPECT_EQ(A.Cases.nonSameEpochWrites(), Want->nonSameEpochWrites())
          << A.Name;
    }
  }
  EXPECT_EQ(Rep.TotalDynamicRaces, Total);
  EXPECT_EQ(Rep.anyRaces(), Total != 0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, SessionGolden,
                         ::testing::Values(0, 1, 2));

TEST(SessionTest, SinksReceiveEveryAnalysissReports) {
  Trace Tr = traceFromText("T1: wr(x)\nT2: wr(x)\nT1: wr(y)\nT2: wr(y)\n");

  Session S;
  S.add(AnalysisKind::FT2);
  S.add(AnalysisKind::STWDC);
  CollectingSink All;
  CountingSink Counts; // mixed streams: dedup keys differ per analysis
  S.addSink(All);
  S.addSink(Counts);
  TraceEventSource Src(Tr);
  RunReport Rep = S.run(Src);

  // Each analysis pushes one (already deduplicated) report per dynamic
  // race, so a global sink sees the sum over analyses.
  EXPECT_EQ(All.reports().size(), Rep.TotalDynamicRaces);
  EXPECT_EQ(Rep.TotalDynamicRaces, 4u);
  size_t FromFT2 = 0;
  for (const RaceReport &R : All.reports())
    FromFT2 += std::string(R.AnalysisName) == "FT2";
  EXPECT_EQ(FromFT2, 2u);
}

TEST(SessionTest, ComposesWithPerAnalysisSinks) {
  // A sink attached directly to one analysis must keep working alongside
  // session-wide sinks — composed, not clobbered.
  Trace Tr = traceFromText("T1: wr(x)\nT2: wr(x)\n");
  Session S;
  Analysis &A = S.add(AnalysisKind::FT2);
  S.add(AnalysisKind::STWDC);
  size_t Mine = 0, Global = 0;
  CallbackSink MySink([&](const RaceReport &) { ++Mine; });
  CallbackSink GlobalSink([&](const RaceReport &) { ++Global; });
  A.setRaceSink(&MySink);
  S.addSink(GlobalSink);
  TraceEventSource Src(Tr);
  S.run(Src);
  EXPECT_EQ(Mine, 1u) << "per-analysis sink sees only FT2's race";
  EXPECT_EQ(Global, 2u) << "session sink sees both analyses";
}

TEST(SessionTest, PerAnalysisSinkSurvivesWithoutSessionSinks) {
  Trace Tr = traceFromText("T1: wr(x)\nT2: wr(x)\n");
  Session S;
  Analysis &A = S.add(AnalysisKind::FT2);
  size_t Mine = 0;
  CallbackSink MySink([&](const RaceReport &) { ++Mine; });
  A.setRaceSink(&MySink);
  TraceEventSource Src(Tr);
  S.run(Src);
  EXPECT_EQ(Mine, 1u) << "run() must not detach a caller-attached sink";
}

TEST(SessionTest, MaxStoredRacesBoundsReportsNotCounts) {
  SessionOptions Opts;
  Opts.MaxStoredRaces = 1;
  Session S(Opts);
  S.add(AnalysisKind::STWDC);
  Trace Tr = traceFromText("T1: wr(x)\nT2: wr(x)\nT1: wr(y)\nT2: wr(y)\n");
  TraceEventSource Src(Tr);
  RunReport Rep = S.run(Src);
  ASSERT_EQ(Rep.Analyses.size(), 1u);
  EXPECT_EQ(Rep.Analyses[0].DynamicRaces, 2u);
  EXPECT_EQ(Rep.Analyses[0].Races.size(), 1u);
}

TEST(SessionTest, VindicationParallelsStoredRaces) {
  Trace Tr = traceFromText("T1: wr(x)\nT2: wr(x)\n");
  SessionOptions Opts;
  Opts.Vindicate = true;
  Session S(Opts);
  S.add(AnalysisKind::STWDC);
  TraceEventSource Src(Tr);
  RunReport Rep = S.run(Src);
  ASSERT_EQ(Rep.Analyses.size(), 1u);
  const AnalysisRunResult &A = Rep.Analyses[0];
  ASSERT_EQ(A.Races.size(), 1u);
  ASSERT_EQ(A.Vindications.size(), 1u);
  EXPECT_TRUE(A.Vindications[0].Vindicated)
      << A.Vindications[0].FailureReason;
}

TEST(SessionTest, ZeroAnalysesIsAPureDrain) {
  Trace Tr = traceFromText("T1: wr(x)\nT2: acq(m)\nT2: rel(m)\n");
  Session S;
  TraceEventSource Src(Tr);
  RunReport Rep = S.run(Src);
  EXPECT_TRUE(Rep.Analyses.empty());
  EXPECT_EQ(Rep.Stream.Events, 3u);
  EXPECT_EQ(Rep.Stream.NumThreads, 2u);
  EXPECT_EQ(Rep.Stream.NumLocks, 1u);
  EXPECT_FALSE(Rep.anyRaces());
}

TEST(SessionTest, ExternallyConstructedAnalysisJoinsTheRun) {
  SessionOptions Opts;
  Opts.MaxStoredRaces = 0;
  Session S(Opts);
  S.add(createAnalysis(AnalysisKind::FT2));
  Trace Tr = traceFromText("T1: wr(x)\nT2: wr(x)\n");
  TraceEventSource Src(Tr);
  RunReport Rep = S.run(Src);
  ASSERT_EQ(Rep.Analyses.size(), 1u);
  EXPECT_EQ(Rep.Analyses[0].DynamicRaces, 1u);
  EXPECT_TRUE(Rep.Analyses[0].Races.empty()) << "store capped at 0";
}

//===----------------------------------------------------------------------===//
// Validation modes (Strict rejection is covered by LintCorpusTest)
//===----------------------------------------------------------------------===//

TEST(SessionTest, ValidationOffByDefaultRecordsNothing) {
  Trace Tr = traceFromText("T1: wr(x)\nT2: wr(x)\n");
  Session S;
  S.add(AnalysisKind::STWDC);
  TraceEventSource Src(Tr);
  RunReport Rep = S.run(Src);
  EXPECT_FALSE(Rep.Validation.Ran);
  EXPECT_FALSE(Rep.rejected());
  EXPECT_TRUE(Rep.Validation.Diagnostics.empty());
  EXPECT_EQ(Rep.TotalDynamicRaces, 1u);
}

TEST(SessionTest, WarnModeAnalyzesTheValidPrefixAndKeepsItsResults) {
  // Racy prefix, then an unheld release: Warn surfaces the lint error,
  // the cores see exactly the well-formed prefix (they require it), and
  // the race found there survives in the report — unlike Strict, which
  // would withhold everything.
  const char *Text = "T1: wr(x)\nT2: wr(x)\nT2: rel(m)\n";
  MemoryByteSource Bytes(Text);
  TextEventSource Src(Bytes);
  SessionOptions Opts;
  Opts.Validation = ValidationMode::Warn;
  Session S(Opts);
  S.add(AnalysisKind::STWDC);
  RunReport Rep = S.run(Src);
  EXPECT_TRUE(Rep.Validation.Ran);
  EXPECT_FALSE(Rep.rejected()) << "Warn never rejects";
  EXPECT_GT(Rep.Validation.Errors, 0u);
  EXPECT_FALSE(Rep.Validation.Diagnostics.empty());
  ASSERT_EQ(Rep.Analyses.size(), 1u);
  EXPECT_EQ(Rep.Stream.Events, 2u)
      << "delivery cuts just before the offending event";
  EXPECT_EQ(Rep.TotalDynamicRaces, 1u);
}

TEST(SessionTest, WarnModeCountsSoftLintsOnCleanTraces) {
  Trace Tr = traceFromText("T1: acq(m)\nT1: wr(x)\n"); // STL020 + STL021-free
  SessionOptions Opts;
  Opts.Validation = ValidationMode::Warn;
  Session S(Opts);
  S.add(AnalysisKind::STWDC);
  TraceEventSource Src(Tr);
  RunReport Rep = S.run(Src);
  EXPECT_TRUE(Rep.Validation.Ran);
  EXPECT_FALSE(Rep.rejected());
  EXPECT_EQ(Rep.Validation.Errors, 0u);
  EXPECT_GT(Rep.Validation.Warnings, 0u) << "lock still held at end";
  ASSERT_EQ(Rep.Analyses.size(), 1u);
}

TEST(SessionTest, WarnModeChecksTheStbHeaderSiteTable) {
  // The STB header declares two sites; the access at site 5 is STL024,
  // located by the end byte of its record.
  std::string Encoded;
  StringByteSink Sink(Encoded);
  StbWriter W(Sink);
  StbHeader H;
  H.NumSites = 2;
  ASSERT_TRUE(W.writeHeader(H));
  ASSERT_TRUE(W.writeEvent(Event(EventKind::Read, 0, 0, /*Site=*/1)));
  ASSERT_TRUE(W.writeEvent(Event(EventKind::Write, 0, 0, /*Site=*/5)));
  MemoryByteSource Bytes(Encoded);
  OpenedEventSource In = openEventSource(Bytes, /*Validate=*/false);
  SessionOptions Opts;
  Opts.Validation = ValidationMode::Warn;
  Session S(Opts);
  S.add(AnalysisKind::STWDC);
  RunReport Rep = S.run(*In.Events);
  const LintDiagnostic *Site = nullptr;
  for (const LintDiagnostic &D : Rep.Validation.Diagnostics)
    if (D.Code == LintCode::SiteOutOfTable)
      Site = &D;
  ASSERT_NE(Site, nullptr);
  EXPECT_EQ(Site->EventIdx, 1u);
  EXPECT_NE(Site->Byte, 0u);
  EXPECT_EQ(Site->Byte, Encoded.size());
}

TEST(SessionTest, StrictModeAcceptsWellFormedTraces) {
  Trace Tr = traceFromText("T1: acq(m)\nT1: wr(x)\nT1: rel(m)\n");
  SessionOptions Opts;
  Opts.Validation = ValidationMode::Strict;
  Session S(Opts);
  S.add(AnalysisKind::STWDC);
  TraceEventSource Src(Tr);
  RunReport Rep = S.run(Src);
  EXPECT_TRUE(Rep.Validation.Ran);
  EXPECT_FALSE(Rep.rejected()) << "warnings alone never reject";
  ASSERT_EQ(Rep.Analyses.size(), 1u);
  EXPECT_EQ(Rep.Stream.Events, 3u);
}

} // namespace
