//===- tests/report/RaceSinkTest.cpp - Sink semantics ---------------------===//
//
// The report layer's contract: CountingSink reproduces the paper's §5.1
// accounting bit-for-bit, CollectingSink bounds storage without touching
// counts, NdjsonSink emits stable one-line JSON (the same bytes whether
// it writes a stream or FrameSink wraps it in frames), TeeSink preserves
// registration order, and reports pushed by real analyses carry correct
// provenance for both explicit and fallback sites.
//
//===----------------------------------------------------------------------===//

#include "report/RaceSink.h"

#include "analysis/AnalysisRegistry.h"
#include "report/FrameSink.h"
#include "serve/Frame.h"
#include "trace/TraceText.h"

#include <gtest/gtest.h>

using namespace st;

namespace {

RaceReport makeReport(uint64_t EventIdx, SiteId Site,
                      SiteProvenance Provenance, VarId Var = 0) {
  RaceReport R;
  R.EventIdx = EventIdx;
  R.Var = Var;
  R.Tid = 2;
  R.IsWrite = true;
  R.Site = Site;
  R.Provenance = Provenance;
  R.AnalysisName = "Test";
  return R;
}

TEST(CountingSinkTest, DedupsMultipleReportsPerEvent) {
  CountingSink S;
  // Three failed checks at one access event: one dynamic race (§5.1).
  S.onRace(makeReport(5, 1, SiteProvenance::Explicit));
  S.onRace(makeReport(5, 1, SiteProvenance::Explicit));
  S.onRace(makeReport(5, 2, SiteProvenance::Explicit));
  S.onRace(makeReport(9, 1, SiteProvenance::Explicit));
  EXPECT_EQ(S.dynamicRaces(), 2u);
}

TEST(CountingSinkTest, CountsEventZero) {
  CountingSink S;
  S.onRace(makeReport(0, 1, SiteProvenance::Explicit));
  EXPECT_EQ(S.dynamicRaces(), 1u);
  S.onRace(makeReport(0, 1, SiteProvenance::Explicit));
  EXPECT_EQ(S.dynamicRaces(), 1u);
}

TEST(CountingSinkTest, ExplicitAndFallbackSiteSpacesAreDisjoint) {
  CountingSink S;
  // Explicit site 3 and fallback (variable) site 3 are different static
  // races; two races at the same fallback variable are one.
  S.onRace(makeReport(1, 3, SiteProvenance::Explicit));
  S.onRace(makeReport(2, 3, SiteProvenance::FallbackVar));
  S.onRace(makeReport(3, 3, SiteProvenance::FallbackVar));
  EXPECT_EQ(S.dynamicRaces(), 3u);
  EXPECT_EQ(S.staticRaces(), 2u);
}

TEST(CountingSinkTest, MatchesAnalysisAccountingOnRealTraces) {
  // Parity with the built-in path: an external CountingSink fed through
  // setRaceSink must agree exactly with the analysis's own accounting,
  // on explicit sites (text parser assigns line numbers)...
  for (AnalysisKind K :
       {AnalysisKind::FT2, AnalysisKind::STWDC, AnalysisKind::UnoptWCP}) {
    auto A = createAnalysis(K);
    CountingSink External;
    A->setRaceSink(&External);
    A->processTrace(traceFromText(
        "T1: wr(x)\nT2: wr(x)\nT2: rd(x)\nT1: wr(y)\nT2: wr(y)\n"));
    EXPECT_EQ(External.dynamicRaces(), A->dynamicRaces())
        << analysisKindName(K);
    EXPECT_EQ(External.staticRaces(), A->staticRaces())
        << analysisKindName(K);
    EXPECT_GT(External.dynamicRaces(), 0u) << analysisKindName(K);
  }

  // ...and on fallback sites (builder trace without sites).
  auto A = createAnalysis(AnalysisKind::FT2);
  CountingSink External;
  A->setRaceSink(&External);
  TraceBuilder B;
  B.write(1, 0).write(2, 0).write(1, 1).write(2, 1);
  A->processTrace(B.build());
  EXPECT_EQ(A->dynamicRaces(), 2u);
  EXPECT_EQ(External.dynamicRaces(), 2u);
  EXPECT_EQ(External.staticRaces(), A->staticRaces());
  EXPECT_EQ(External.staticRaces(), 2u);
}

TEST(CollectingSinkTest, CapsStorageAndCountsDropped) {
  CollectingSink S(2);
  for (uint64_t I = 0; I != 5; ++I)
    S.onRace(makeReport(I, 1, SiteProvenance::Explicit));
  ASSERT_EQ(S.reports().size(), 2u);
  EXPECT_EQ(S.reports()[0].EventIdx, 0u);
  EXPECT_EQ(S.reports()[1].EventIdx, 1u);
  EXPECT_EQ(S.dropped(), 3u);
  EXPECT_GT(S.footprintBytes(), 0u);
}

TEST(CollectingSinkTest, ZeroCapacityStoresNothing) {
  CollectingSink S(0);
  S.onRace(makeReport(1, 1, SiteProvenance::Explicit));
  EXPECT_TRUE(S.reports().empty());
  EXPECT_EQ(S.dropped(), 1u);
}

TEST(AnalysisSinkTest, ReportsCarryProvenanceAndPrior) {
  auto A = createAnalysis(AnalysisKind::STWDC);
  std::vector<RaceReport> Seen;
  CallbackSink Cb([&](const RaceReport &R) { Seen.push_back(R); });
  A->setRaceSink(&Cb);
  A->processTrace(traceFromText("T1: wr(x)\nT2: wr(x)\n"));
  ASSERT_EQ(Seen.size(), 1u);
  const RaceReport &R = Seen.front();
  EXPECT_EQ(R.EventIdx, 1u);
  EXPECT_EQ(R.Var, 0u);
  EXPECT_EQ(R.Tid, 1u); // text parser interns T2 as id 1
  EXPECT_TRUE(R.IsWrite);
  EXPECT_EQ(R.Provenance, SiteProvenance::Explicit);
  EXPECT_EQ(R.Site, 2u); // line number of the racing access
  EXPECT_STREQ(R.AnalysisName, "ST-WDC");
  ASSERT_FALSE(R.Prior.isNone());
  EXPECT_EQ(R.Prior.tid(), 0u);
  EXPECT_EQ(raceSiteString(R), "line:2");
}

TEST(AnalysisSinkTest, FallbackSiteIsVariableId) {
  auto A = createAnalysis(AnalysisKind::FT2);
  std::vector<RaceReport> Seen;
  CallbackSink Cb([&](const RaceReport &R) { Seen.push_back(R); });
  A->setRaceSink(&Cb);
  TraceBuilder B;
  B.write(1, 7).write(2, 7);
  A->processTrace(B.build());
  ASSERT_EQ(Seen.size(), 1u);
  EXPECT_EQ(Seen[0].Provenance, SiteProvenance::FallbackVar);
  EXPECT_EQ(Seen[0].Site, 7u);
  EXPECT_EQ(raceSiteString(Seen[0]), "var:7");
}

TEST(TeeSinkTest, FansOutInRegistrationOrder) {
  std::vector<std::string> Order;
  CallbackSink First([&](const RaceReport &R) {
    Order.push_back("first:" + std::to_string(R.EventIdx));
  });
  CallbackSink Second([&](const RaceReport &R) {
    Order.push_back("second:" + std::to_string(R.EventIdx));
  });
  TeeSink Tee;
  EXPECT_TRUE(Tee.empty());
  Tee.addSink(First);
  Tee.addSink(Second);
  EXPECT_FALSE(Tee.empty());
  Tee.onRace(makeReport(1, 1, SiteProvenance::Explicit));
  Tee.onRace(makeReport(2, 1, SiteProvenance::Explicit));
  EXPECT_EQ(Order, (std::vector<std::string>{"first:1", "second:1",
                                             "first:2", "second:2"}));
}

TEST(NdjsonSinkTest, EmitsGoldenLines) {
  std::string Out;
  StringByteSink Bytes(Out);
  NdjsonSink S(Bytes);

  RaceReport R = makeReport(12, 4, SiteProvenance::Explicit, /*Var=*/3);
  R.AnalysisName = "ST-WDC";
  R.Prior = Epoch::make(1, 9);
  S.onRace(R);

  RaceReport F = makeReport(40, 3, SiteProvenance::FallbackVar, /*Var=*/3);
  F.AnalysisName = "FT2";
  F.IsWrite = false;
  S.onRace(F);

  EXPECT_TRUE(S.ok());
  EXPECT_EQ(Out,
            "{\"type\":\"race\",\"analysis\":\"ST-WDC\",\"event\":12,"
            "\"kind\":\"write\",\"var\":\"x3\",\"thread\":\"T2\","
            "\"site\":\"line:4\",\"prior_thread\":\"T1\","
            "\"prior_clock\":9}\n"
            "{\"type\":\"race\",\"analysis\":\"FT2\",\"event\":40,"
            "\"kind\":\"read\",\"var\":\"x3\",\"thread\":\"T2\","
            "\"site\":\"var:3\"}\n");
}

TEST(NdjsonSinkTest, UsesSymbolTablesAndEscapes) {
  std::string Out;
  StringByteSink Bytes(Out);
  NdjsonSink S(Bytes);
  std::vector<std::string> Threads = {"main", "work\"er"};
  std::vector<std::string> Vars = {"counter"};
  S.setSymbols(&Threads, &Vars);

  RaceReport R = makeReport(1, 0, SiteProvenance::FallbackVar, /*Var=*/0);
  R.Tid = 1;
  S.onRace(R);
  EXPECT_NE(Out.find("\"var\":\"counter\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"thread\":\"work\\\"er\""), std::string::npos) << Out;

  // Ids beyond the tables fall back to the canonical T<id>/x<id>.
  Out.clear();
  RaceReport O = makeReport(2, 5, SiteProvenance::FallbackVar, /*Var=*/5);
  O.Tid = 9;
  S.onRace(O);
  EXPECT_NE(Out.find("\"var\":\"x5\""), std::string::npos) << Out;
  EXPECT_NE(Out.find("\"thread\":\"T9\""), std::string::npos) << Out;
}

TEST(NdjsonSinkTest, PerAnalysisLineCap) {
  std::string Out;
  StringByteSink Bytes(Out);
  NdjsonSink S(Bytes);
  S.setMaxRacesPerAnalysis(1);

  RaceReport A = makeReport(1, 1, SiteProvenance::Explicit);
  A.AnalysisName = "A";
  RaceReport B = makeReport(2, 1, SiteProvenance::Explicit);
  B.AnalysisName = "B";
  S.onRace(A);
  S.onRace(B);
  A.EventIdx = 3;
  S.onRace(A); // over A's cap: dropped
  size_t Lines = 0;
  for (char C : Out)
    Lines += C == '\n';
  EXPECT_EQ(Lines, 2u) << Out;
  EXPECT_EQ(Out.find("\"event\":3"), std::string::npos) << Out;
}

TEST(NdjsonSinkTest, AlternatingAnalysesKeepTheirOwnPrefix) {
  std::string Out;
  StringByteSink Bytes(Out);
  NdjsonSink S(Bytes);

  RaceReport A = makeReport(1, 1, SiteProvenance::Explicit);
  A.AnalysisName = "ST-WDC";
  RaceReport B = makeReport(2, 1, SiteProvenance::Explicit);
  B.AnalysisName = "a \"quoted\" name";
  S.onRace(A);
  S.onRace(B);
  A.EventIdx = 3;
  S.onRace(A);
  B.EventIdx = 4;
  S.onRace(B);

  const std::string Tail =
      ",\"kind\":\"write\",\"var\":\"x0\",\"thread\":\"T2\","
      "\"site\":\"line:1\"}\n";
  const std::string PrefixA =
      "{\"type\":\"race\",\"analysis\":\"ST-WDC\",\"event\":";
  const std::string PrefixB = "{\"type\":\"race\",\"analysis\":"
                              "\"a \\\"quoted\\\" name\",\"event\":";
  EXPECT_EQ(Out, PrefixA + "1" + Tail + PrefixB + "2" + Tail + PrefixA + "3" +
                     Tail + PrefixB + "4" + Tail);
}

TEST(NdjsonSinkTest, RefreshSymbolsPicksUpNamesInternedMidStream) {
  std::string Out;
  StringByteSink Bytes(Out);
  NdjsonSink S(Bytes);
  std::vector<std::string> Threads = {"main"};
  std::vector<std::string> Vars = {"a"};
  S.setSymbols(&Threads, &Vars);

  RaceReport R = makeReport(1, 2, SiteProvenance::Explicit, /*Var=*/1);
  R.Tid = 1;
  Threads.push_back("worker");
  Vars.push_back("b");
  S.onRace(R); // the snapshot predates the new names
  EXPECT_NE(Out.find("\"var\":\"x1\",\"thread\":\"T1\""),
            std::string::npos)
      << Out;

  Out.clear();
  S.refreshSymbols();
  S.onRace(R);
  EXPECT_NE(Out.find("\"var\":\"b\",\"thread\":\"worker\""),
            std::string::npos)
      << Out;
}

TEST(NdjsonSinkTest, EscapesNamesOfAnyLength) {
  std::string Out;
  StringByteSink Bytes(Out);
  NdjsonSink S(Bytes);
  const std::string Long(10 * 1024, 't');
  std::vector<std::string> Threads = {"main", Long};
  std::vector<std::string> Vars = {"q\"uote", "back\\slash",
                                   std::string("ctl\x01") + "\n"};
  S.setSymbols(&Threads, &Vars);

  // A line with the long name twice (thread and prior thread), then short
  // lines that reuse the grown buffer.
  for (VarId V = 0; V != 3; ++V) {
    RaceReport R = makeReport(V, 5, SiteProvenance::Explicit, V);
    R.Tid = 1;
    R.Prior = Epoch::make(1, 4);
    S.onRace(R);
  }
  RaceReport Short = makeReport(9, 5, SiteProvenance::Explicit, /*Var=*/0);
  Short.Tid = 0;
  S.onRace(Short);

  const std::string Quoted = "\"" + Long + "\"";
  std::string Expected;
  const char *EscapedVars[] = {"\"q\\\"uote\"", "\"back\\\\slash\"",
                               "\"ctl\\u0001\\n\""};
  for (int V = 0; V != 3; ++V)
    Expected += "{\"type\":\"race\",\"analysis\":\"Test\",\"event\":" +
                std::to_string(V) + ",\"kind\":\"write\",\"var\":" +
                EscapedVars[V] + ",\"thread\":" + Quoted +
                ",\"site\":\"line:5\",\"prior_thread\":" + Quoted +
                ",\"prior_clock\":4}\n";
  Expected += "{\"type\":\"race\",\"analysis\":\"Test\",\"event\":9,"
              "\"kind\":\"write\",\"var\":\"q\\\"uote\",\"thread\":\"main\","
              "\"site\":\"line:5\"}\n";
  EXPECT_EQ(Out, Expected);
}

TEST(NdjsonSinkTest, NoPriorAndFallbackSite) {
  std::string Out;
  StringByteSink Bytes(Out);
  NdjsonSink S(Bytes);
  std::vector<std::string> Vars = {"a", "b", "c"};
  S.setSymbols(nullptr, &Vars);

  RaceReport R = makeReport(UINT64_MAX, /*Site=*/2, SiteProvenance::FallbackVar,
                            /*Var=*/2);
  R.Tid = UINT32_MAX - 1;
  R.IsWrite = false;
  S.onRace(R);
  EXPECT_EQ(Out, "{\"type\":\"race\",\"analysis\":\"Test\","
                 "\"event\":18446744073709551615,\"kind\":\"read\","
                 "\"var\":\"c\",\"thread\":\"T4294967294\","
                 "\"site\":\"var:2\"}\n");
  EXPECT_EQ(raceSiteString(R), "var:2");
}

TEST(NdjsonSinkTest, FramePayloadIsTheNdjsonLine) {
  std::vector<std::string> Threads = {"main", "work\"er"};
  std::vector<std::string> Vars = {"counter"};
  RaceReport R = makeReport(7, 3, SiteProvenance::Explicit, /*Var=*/0);
  R.Tid = 1;
  R.AnalysisName = "ST-WDC";
  R.Prior = Epoch::make(0, 2);

  std::string Line;
  StringByteSink LineBytes(Line);
  NdjsonSink Json(LineBytes);
  Json.setSymbols(&Threads, &Vars);
  Json.onRace(R);

  std::string Wire;
  StringByteSink WireBytes(Wire);
  FrameWriter Frames(WireBytes);
  FrameSink Framed(Frames);
  Framed.setSymbols(&Threads, &Vars);
  Framed.onRace(R);
  EXPECT_TRUE(Framed.ok());

  MemoryByteSource In(Wire);
  FrameReader Reader(In);
  Frame F;
  ASSERT_EQ(Reader.next(F), 1) << Reader.error();
  EXPECT_EQ(F.Type, FrameType::Race);
  EXPECT_EQ(F.Payload, Line);
  EXPECT_EQ(Reader.next(F), 0);
}

} // namespace
