//===- tests/report/SessionEngineTest.cpp - Session's single-pass engine --===//
//
// The batch loop inside Session: the single pass and the --parallel
// fan-out must never change detection results, at any batch size. Each
// analysis in a session must match the same analysis run alone over the
// materialized trace; stream statistics, footprint sampling, the stored-
// race cap, graph recorders and a failing source are covered too.
//
//===----------------------------------------------------------------------===//

#include "report/Session.h"

#include "engine/EventSource.h"
#include "graph/EdgeRecorder.h"
#include "trace/Stb.h"
#include "workload/RandomTrace.h"

#include <gtest/gtest.h>

using namespace st;

namespace {

//===----------------------------------------------------------------------===//
// The single-pass engine: batching, parallel fan-out, stream statistics
//===----------------------------------------------------------------------===//

Trace engineTrace(uint64_t Seed = 3) {
  RandomTraceConfig C;
  C.Threads = 3;
  C.Vars = 4;
  C.Locks = 2;
  C.Events = 400;
  C.Seed = Seed;
  return generateRandomTrace(C);
}

struct RaceSummary {
  uint64_t Dynamic;
  unsigned Static;
  long FirstRace;
};

RaceSummary firstRaceSummary(const Analysis &A) {
  const auto &Records = A.raceRecords();
  return {A.dynamicRaces(), A.staticRaces(),
          Records.empty() ? -1 : static_cast<long>(Records.front().EventIdx)};
}

/// One analysis run alone over the materialized trace.
RaceSummary referenceRun(AnalysisKind K, const Trace &Tr) {
  EdgeRecorder Graph;
  auto A = createAnalysis(K, buildsGraph(K) ? &Graph : nullptr);
  A->processTrace(Tr);
  return firstRaceSummary(*A);
}

void expectMatchesReference(Session &S, const Trace &Tr, const char *Mode) {
  ASSERT_EQ(S.analysisCount(), allAnalysisKinds().size());
  for (size_t I = 0; I != S.analysisCount(); ++I) {
    const Analysis &A = S.analysis(I);
    RaceSummary Got = firstRaceSummary(A);
    RaceSummary Want = referenceRun(allAnalysisKinds()[I], Tr);
    EXPECT_EQ(Got.Dynamic, Want.Dynamic) << Mode << " " << A.name();
    EXPECT_EQ(Got.Static, Want.Static) << Mode << " " << A.name();
    EXPECT_EQ(Got.FirstRace, Want.FirstRace) << Mode << " " << A.name();
    EXPECT_EQ(A.eventsProcessed(), Tr.size()) << Mode << " " << A.name();
  }
}

TEST(SessionEngineTest, SinglePassMatchesPerAnalysisRunsAtAnyBatchSize) {
  Trace Tr = engineTrace();
  for (size_t Batch : {1u, 7u, 64u, 100000u}) {
    SessionOptions Opts;
    Opts.BatchSize = Batch;
    Session S(Opts);
    for (AnalysisKind K : allAnalysisKinds())
      S.add(K);
    TraceEventSource Src(Tr);
    EXPECT_EQ(S.run(Src).Stream.Events, Tr.size()) << "batch " << Batch;
    expectMatchesReference(S, Tr, "sequential");
  }
}

TEST(SessionEngineTest, ParallelModeMatchesSequential) {
  Trace Tr = engineTrace(11);
  SessionOptions Opts;
  Opts.BatchSize = 32; // force many generations through the batch ring
  Opts.Parallel = true;
  Session S(Opts);
  for (AnalysisKind K : allAnalysisKinds())
    S.add(K);
  TraceEventSource Src(Tr);
  EXPECT_EQ(S.run(Src).Stream.Events, Tr.size());
  expectMatchesReference(S, Tr, "parallel");
}

TEST(SessionEngineTest, StreamStatsMatchTraceStats) {
  Trace Tr = engineTrace(5);
  Session S; // zero analyses = baseline drain
  TraceEventSource Src(Tr);
  const StreamStats St = S.run(Src).Stream;
  EXPECT_EQ(St.Events, Tr.size());
  EXPECT_EQ(St.NumThreads, Tr.numThreads());
  EXPECT_EQ(St.NumVars, Tr.numVars());
  EXPECT_EQ(St.NumLocks, Tr.numLocks());
  EXPECT_EQ(St.NumVolatiles, Tr.numVolatiles());
}

TEST(SessionEngineTest, EmptySourceRunsCleanly) {
  Session S;
  S.add(AnalysisKind::STWDC);
  Trace Empty;
  TraceEventSource Src(Empty);
  RunReport Rep = S.run(Src);
  EXPECT_EQ(Rep.Stream.Events, 0u);
  ASSERT_EQ(Rep.Analyses.size(), 1u);
  EXPECT_EQ(Rep.Analyses[0].DynamicRaces, 0u);
}

TEST(SessionEngineTest, SamplesFootprintWhenEnabled) {
  Trace Tr = engineTrace(9);
  SessionOptions Opts;
  Opts.BatchSize = 64;
  Opts.SampleFootprint = true;
  Session S(Opts);
  S.add(AnalysisKind::FTOHB);
  TraceEventSource Src(Tr);
  RunReport Rep = S.run(Src);
  ASSERT_EQ(Rep.Analyses.size(), 1u);
  EXPECT_GT(Rep.Analyses[0].PeakFootprintBytes, 0u);
  EXPECT_GE(Rep.Analyses[0].PeakFootprintBytes,
            Rep.Analyses[0].FinalFootprintBytes);
  EXPECT_GE(Rep.Analyses[0].Seconds, 0.0);
}

TEST(SessionEngineTest, MaxStoredRacesCapsRecordsNotCounts) {
  // A trace with many races: one unsynchronized write pair per variable.
  TraceBuilder B;
  for (unsigned I = 0; I < 50; ++I) {
    B.write(0, I, /*Site=*/2 * I);
    B.write(1, I, /*Site=*/2 * I + 1);
  }
  Trace Tr = B.build();
  SessionOptions Opts;
  Opts.MaxStoredRaces = 3;
  Session S(Opts);
  Analysis &A = S.add(AnalysisKind::UnoptHB);
  TraceEventSource Src(Tr);
  S.run(Src);
  EXPECT_EQ(A.raceRecords().size(), 3u);
  EXPECT_GT(A.dynamicRaces(), 3u);
}

TEST(SessionEngineTest, GraphKindsGetTheirRecorder) {
  // A w/G analysis without its recorder still detects the same races (it
  // skips every edge), so check the recorder itself: its bytes are part of
  // the analysis footprint, which must equal a reference run's.
  Trace Tr = engineTrace(13);
  for (AnalysisKind K : {AnalysisKind::UnoptDCwG, AnalysisKind::UnoptWDCwG}) {
    SessionOptions Opts;
    Opts.SampleFootprint = true;
    Session S(Opts);
    S.add(K);
    TraceEventSource Src(Tr);
    RunReport Rep = S.run(Src);

    EdgeRecorder Graph;
    auto Ref = createAnalysis(K, &Graph);
    Ref->processTrace(Tr);
    ASSERT_GT(Graph.footprintBytes(), 0u);
    ASSERT_EQ(Rep.Analyses.size(), 1u);
    EXPECT_EQ(Rep.Analyses[0].FinalFootprintBytes, Ref->footprintBytes())
        << Ref->name();
    EXPECT_STREQ(S.analysis(0).name(), Ref->name());
    EXPECT_EQ(S.analysis(0).dynamicRaces(), Ref->dynamicRaces());
  }
}

TEST(SessionEngineTest, StopsCleanlyOnSourceError) {
  // Truncated STB stream: the session consumes what decodes, then the
  // caller sees the error on the source.
  Trace Tr = engineTrace(17);
  std::string Encoded;
  StringByteSink Sink(Encoded);
  ASSERT_TRUE(writeStbTrace(Tr, Sink));
  MemoryByteSource Bytes(
      std::string_view(Encoded).substr(0, Encoded.size() / 2));
  StbEventSource Src(Bytes);
  Session S;
  S.add(AnalysisKind::STWDC);
  EXPECT_LT(S.run(Src).Stream.Events, Tr.size());
  EXPECT_TRUE(Src.error());
}

} // namespace
