//===- tests/tools/AnalyzeCliTest.cpp - st-analyze CLI behavior -----------===//
//
// End-to-end tests of the st-analyze driver: each test shells out to the
// real binary (path injected by CMake as ST_ANALYZE_PATH) and checks the
// combined output and exit status. Traces are fed through the shell so
// the stdin path is exercised the way a user would use it.
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisRegistry.h"

#include "CliTestUtil.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace st;
using namespace st::cli_test;

namespace {

// Paths are single-quoted so build/source trees with spaces survive the
// `sh -c` word splitting in runCommand.
std::string cli() { return std::string("'") + ST_ANALYZE_PATH + "'"; }
std::string trace(const char *Name) {
  return std::string("'") + ST_TRACES_DIR + "/" + Name + "'";
}

TEST(AnalyzeCli, ListNamesEveryRegisteredAnalysis) {
  RunResult R = runCommand(cli() + " --list");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  for (AnalysisKind K : allAnalysisKinds())
    EXPECT_NE(R.Output.find(analysisKindName(K)), std::string::npos)
        << "missing " << analysisKindName(K) << " in:\n"
        << R.Output;
}

// --list and --help promise the documented Table 1 registry order; each
// name must appear strictly after its registry predecessor. Advancing
// past the full previous match matters: with Pos left AT the match, a
// missing "Unopt-DC" row would go undetected because the scan would
// accept the "Unopt-DC" prefix of the still-present "Unopt-DC w/G".
void expectRegistryOrder(const std::string &Output, const char *Context) {
  size_t Pos = 0;
  for (AnalysisKind K : allAnalysisKinds()) {
    const char *Name = analysisKindName(K);
    size_t Found = Output.find(Name, Pos);
    ASSERT_NE(Found, std::string::npos)
        << Name << " missing or out of order in " << Context << ":\n"
        << Output;
    Pos = Found + std::strlen(Name);
  }
}

TEST(AnalyzeCli, ListPrintsAnalysesInDocumentedRegistryOrder) {
  RunResult R = runCommand(cli() + " --list");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("Table 1 registry order"), std::string::npos)
      << "--list must document its ordering:\n"
      << R.Output;
  expectRegistryOrder(R.Output, "--list");
  EXPECT_NE(R.Output.find("--format=json"), std::string::npos)
      << "--list must mention the machine-readable report:\n"
      << R.Output;
}

TEST(AnalyzeCli, HelpListsAnalysesInRegistryOrderAndMentionsJson) {
  RunResult R = runCommand(cli() + " --help");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("Table 1 registry order"), std::string::npos)
      << "--help must document the ordering:\n"
      << R.Output;
  expectRegistryOrder(R.Output, "--help");
  EXPECT_NE(R.Output.find("--format=FMT"), std::string::npos);
  EXPECT_NE(R.Output.find("json"), std::string::npos)
      << "--format=json undocumented in help text:\n"
      << R.Output;
}

TEST(AnalyzeCli, AnalysisSelectionWorksForEveryKind) {
  // Every registry name must be accepted and echo back in the summary.
  // The racy trace makes every analysis report, so the exit code is 2.
  for (AnalysisKind K : allAnalysisKinds()) {
    std::string Name = analysisKindName(K);
    RunResult R = runCommand(cli() + " '--analysis=" + Name + "' " +
                             trace("racy.trace"));
    EXPECT_EQ(R.ExitCode, 2) << Name << ":\n" << R.Output;
    EXPECT_NE(R.Output.find(Name), std::string::npos) << R.Output;
    EXPECT_NE(R.Output.find("1 dynamic race"), std::string::npos)
        << Name << ":\n"
        << R.Output;
  }
}

TEST(AnalyzeCli, UnknownAnalysisFailsAndListsAlternatives) {
  RunResult R = runCommand(cli() + " --analysis=NoSuchAnalysis " +
                           trace("racy.trace"));
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("unknown analysis 'NoSuchAnalysis'"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("ST-WDC"), std::string::npos)
      << "error should list the valid names:\n"
      << R.Output;
}

TEST(AnalyzeCli, ReadsTraceFromStdin) {
  RunResult R = runCommand("printf 'T1: wr(x)\\nT2: wr(x)\\n' | " + cli() +
                           " --analysis=ST-WDC -");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("1 dynamic race"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("race: write of x by T2"), std::string::npos)
      << R.Output;
}

TEST(AnalyzeCli, VindicatesKnownRacyTrace) {
  RunResult R = runCommand(cli() + " --analysis=ST-WDC --vindicate " +
                           trace("racy.trace"));
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("[vindicated: "), std::string::npos) << R.Output;
}

TEST(AnalyzeCli, RaceFreeTraceExitsZeroUnderAllAnalyses) {
  RunResult R =
      runCommand(cli() + " --all --quiet " + trace("race_free.trace"));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("0 dynamic race"), std::string::npos) << R.Output;
}

TEST(AnalyzeCli, PredictableRaceSeparatesHBFromWCP) {
  RunResult R = runCommand(cli() + " --analysis=Unopt-HB " +
                           trace("predictable.trace"));
  EXPECT_EQ(R.ExitCode, 0) << "HB must miss the predictable race:\n"
                           << R.Output;
  R = runCommand(cli() + " --analysis=Unopt-WCP " +
                 trace("predictable.trace"));
  EXPECT_EQ(R.ExitCode, 2) << "WCP must predict the race:\n" << R.Output;
}

TEST(AnalyzeCli, StatsModePrintsCaseCounters) {
  RunResult R = runCommand(cli() + " --analysis=ST-WDC --stats " +
                           trace("race_free.trace"));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("case frequencies"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("non-same-epoch writes"), std::string::npos)
      << R.Output;
}

TEST(AnalyzeCli, StatsModeExplainsNonEpochAnalyses) {
  RunResult R = runCommand(cli() + " --analysis=Unopt-HB --stats " +
                           trace("race_free.trace"));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("no per-case counters"), std::string::npos)
      << R.Output;
}

TEST(AnalyzeCli, ParseErrorReportsLineAndFails) {
  RunResult R =
      runCommand("printf 'T1: frobnicate(x)\\n' | " + cli());
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("parse error"), std::string::npos) << R.Output;
}

TEST(AnalyzeCli, ValidationMessagesSpellTheSourceNames) {
  // T5/m7/T9/m3 intern as dense ids 0/0/1/1; the lint pass and the
  // unvalidated parse error must both print the names from the trace.
  const std::string Input =
      "printf 'T5: acq(m7)\\nT5: rel(m7)\\nT9: rel(m3)\\n' | ";
  RunResult W = runCommand(Input + cli() + " --validate=warn -");
  EXPECT_EQ(W.ExitCode, 0) << W.Output;
  EXPECT_NE(W.Output.find("warning STL022: T5 rel(m7): empty critical "
                          "section"),
            std::string::npos)
      << W.Output;
  EXPECT_NE(W.Output.find("error STL002: T9 rel(m3): release of a lock"),
            std::string::npos)
      << W.Output;

  RunResult P = runCommand(Input + cli() + " -");
  EXPECT_EQ(P.ExitCode, 1) << P.Output;
  EXPECT_NE(P.Output.find("parse error: ill-formed trace: event 2 (line 3): "
                          "error STL002: T9 rel(m3)"),
            std::string::npos)
      << P.Output;
}

TEST(AnalyzeCli, UnknownOptionShowsUsage) {
  RunResult R = runCommand(cli() + " --bogus " + trace("racy.trace"));
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("usage:"), std::string::npos) << R.Output;
}

TEST(AnalyzeCli, ParseErrorReportsColumnAndToken) {
  RunResult R = runCommand("printf 'T1: wr(x)\\nT1: frobnicate(x)\\n' | " +
                           cli());
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("line 2, column 5"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("'frobnicate'"), std::string::npos) << R.Output;
}

TEST(AnalyzeCli, JsonReportCarriesRacesAndTimings) {
  RunResult R = runCommand(cli() + " --analysis=ST-WDC --format=json " +
                           trace("racy.trace"));
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_EQ(R.Output.find("{"), 0u) << R.Output;
  for (const char *Key :
       {"\"input\":", "\"format\":\"text\"", "\"analyses\":",
        "\"name\":\"ST-WDC\"", "\"dynamic_races\":1", "\"static_races\":1",
        "\"seconds\":", "\"races\":[{", "\"kind\":\"write\"",
        "\"total_dynamic_races\":1"})
    EXPECT_NE(R.Output.find(Key), std::string::npos)
        << "missing " << Key << " in:\n"
        << R.Output;
}

TEST(AnalyzeCli, JsonReportIncludesVindicationAndStats) {
  RunResult R = runCommand(cli() +
                           " --analysis=ST-WDC --format=json --vindicate "
                           "--stats " +
                           trace("racy.trace"));
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("\"vindicated\":true"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("\"witness_events\":"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("\"case_stats\":{"), std::string::npos)
      << R.Output;
}

TEST(AnalyzeCli, NdjsonStreamsRaceAndSummaryLines) {
  RunResult R =
      runCommand("printf 'T1: wr(x)\\nT2: wr(x)\\nT1: wr(y)\\nT2: wr(y)\\n' "
                 "| " +
                 cli() + " --analysis=ST-WDC --format=ndjson -");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  // Two race lines streamed at race time, then one summary per analysis
  // and a final stream line — every line a standalone JSON object.
  size_t Lines = 0;
  size_t Pos = 0;
  while (Pos < R.Output.size()) {
    size_t Eol = R.Output.find('\n', Pos);
    ASSERT_NE(Eol, std::string::npos) << "unterminated line:\n" << R.Output;
    std::string Line = R.Output.substr(Pos, Eol - Pos);
    EXPECT_EQ(Line.front(), '{') << Line;
    EXPECT_EQ(Line.back(), '}') << Line;
    Pos = Eol + 1;
    ++Lines;
  }
  EXPECT_EQ(Lines, 4u) << R.Output;
  for (const char *Key :
       {"\"type\":\"race\"", "\"type\":\"summary\"", "\"type\":\"stream\"",
        "\"analysis\":\"ST-WDC\"", "\"site\":\"line:2\"",
        "\"dynamic_races\":2", "\"total_dynamic_races\":2"})
    EXPECT_NE(R.Output.find(Key), std::string::npos)
        << "missing " << Key << " in:\n"
        << R.Output;
}

TEST(AnalyzeCli, NdjsonMaxRacesCapsLinesNotCounts) {
  RunResult R =
      runCommand("printf 'T1: wr(x)\\nT2: wr(x)\\nT1: wr(y)\\nT2: wr(y)\\n' "
                 "| " +
                 cli() +
                 " --analysis=ST-WDC --format=ndjson --max-races=1 -");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  size_t RaceLines = 0;
  for (size_t Pos = 0;
       (Pos = R.Output.find("\"type\":\"race\"", Pos)) != std::string::npos;
       ++Pos)
    ++RaceLines;
  EXPECT_EQ(RaceLines, 1u) << R.Output;
  EXPECT_NE(R.Output.find("\"dynamic_races\":2"), std::string::npos)
      << "counting must be unaffected by the line cap:\n"
      << R.Output;
}

TEST(AnalyzeCli, MaxRacesBoundsStoredRecordsInTextMode) {
  RunResult R =
      runCommand("printf 'T1: wr(x)\\nT2: wr(x)\\nT1: wr(y)\\nT2: wr(y)\\n' "
                 "| " +
                 cli() + " --analysis=ST-WDC --max-races=1 -");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("2 dynamic race(s)"), std::string::npos)
      << R.Output;
  size_t RaceLines = 0;
  for (size_t Pos = 0;
       (Pos = R.Output.find("  race: ", Pos)) != std::string::npos; ++Pos)
    ++RaceLines;
  EXPECT_EQ(RaceLines, 1u) << "--max-races must bound printed records:\n"
                           << R.Output;
}

TEST(AnalyzeCli, NdjsonRejectsVindicate) {
  RunResult R = runCommand(cli() + " --format=ndjson --vindicate " +
                           trace("racy.trace"));
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("incompatible"), std::string::npos) << R.Output;
}

TEST(AnalyzeCli, FallbackSitesPrintVariableIds) {
  // sites=0 drops static sites from the generated accesses; the STB
  // encoding preserves their absence (text would re-assign line numbers),
  // so the report must fall back to var:<id> sites — not a bogus line id.
  std::string Gen =
      cli() + " --gen threads=2,vars=1,events=60,seed=7,sites=0 "
              "--convert=stb | ";
  RunResult R = runCommand(Gen + cli() + " --analysis=FT2 --max-races=1 -");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("(site var:0)"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("1 static site(s)"), std::string::npos)
      << "all fallback races on one variable are one static race:\n"
      << R.Output;
  EXPECT_EQ(R.Output.find("line"), std::string::npos) << R.Output;

  RunResult J = runCommand(Gen + cli() +
                           " --analysis=FT2 --max-races=1 --format=json -");
  EXPECT_EQ(J.ExitCode, 2) << J.Output;
  EXPECT_NE(J.Output.find("\"site\":\"var:0\""), std::string::npos)
      << J.Output;
  EXPECT_EQ(J.Output.find("\"site_line\""), std::string::npos)
      << "site_line is explicit-provenance only:\n"
      << J.Output;
}

TEST(AnalyzeCli, AllRunsSingleImplicitPassOverStdin) {
  // --all over stdin: one parse feeds every analysis (stdin cannot be
  // re-read, so this only works single-pass) and summaries agree on the
  // event count.
  RunResult R = runCommand("printf 'T1: wr(x)\\nT2: wr(x)\\n' | " + cli() +
                           " --all --quiet -");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  for (AnalysisKind K : allAnalysisKinds())
    EXPECT_NE(R.Output.find(std::string(analysisKindName(K)) +
                            " over 2 events"),
              std::string::npos)
        << analysisKindName(K) << ":\n"
        << R.Output;
}

TEST(AnalyzeCli, ParallelModeMatchesSequentialOutput) {
  RunResult Seq = runCommand(cli() + " --all --quiet " +
                             trace("predictable.trace"));
  RunResult Par = runCommand(cli() + " --all --quiet --parallel --batch=2 " +
                             trace("predictable.trace"));
  EXPECT_EQ(Seq.ExitCode, Par.ExitCode);
  EXPECT_EQ(Seq.Output, Par.Output);
}

TEST(AnalyzeCli, ConvertRoundTripsThroughStb) {
  // text -> STB -> text through two piped invocations. STB carries no
  // symbol names, so the round trip canonicalizes them (T0, x0, m0) while
  // preserving the event structure: analyzing the round-tripped text must
  // reproduce the original race verdicts exactly.
  RunResult R = runCommand(cli() + " --convert=stb " +
                           trace("predictable.trace") + " | " + cli() +
                           " --convert=text -");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("acq(m0)"), std::string::npos) << R.Output;

  RunResult Direct = runCommand(cli() + " --analysis=Unopt-WCP --quiet " +
                                trace("predictable.trace"));
  RunResult RoundTripped = runCommand(
      cli() + " --convert=stb " + trace("predictable.trace") + " | " +
      cli() + " --convert=text - | " + cli() +
      " --analysis=Unopt-WCP --quiet -");
  EXPECT_EQ(Direct.ExitCode, 2);
  EXPECT_EQ(RoundTripped.ExitCode, 2);
  EXPECT_EQ(Direct.Output, RoundTripped.Output);
}

TEST(AnalyzeCli, StbOnStdinIsSniffedAndAnalyzed) {
  RunResult Text = runCommand(cli() + " --analysis=ST-WDC --quiet " +
                              trace("racy.trace"));
  RunResult Stb = runCommand(cli() + " --convert=stb " +
                             trace("racy.trace") + " | " + cli() +
                             " --analysis=ST-WDC --quiet -");
  EXPECT_EQ(Text.ExitCode, 2);
  EXPECT_EQ(Stb.ExitCode, 2);
  EXPECT_EQ(Text.Output, Stb.Output)
      << "summary must not depend on the input encoding";
}

TEST(AnalyzeCli, GenPipesStraightIntoAnalysis) {
  RunResult R = runCommand(
      cli() + " --gen threads=3,vars=3,locks=2,events=500,seed=5 | " +
      cli() + " --all --quiet -");
  EXPECT_TRUE(R.ExitCode == 0 || R.ExitCode == 2) << R.Output;
  EXPECT_NE(R.Output.find("events"), std::string::npos) << R.Output;
}

TEST(AnalyzeCli, GenEmitsStbWhenAsked) {
  RunResult R = runCommand(
      cli() + " --gen threads=2,vars=2,events=100,seed=3 --convert=stb | " +
      cli() + " --analysis=FTO-HB --quiet -");
  EXPECT_TRUE(R.ExitCode == 0 || R.ExitCode == 2) << R.Output;
  EXPECT_NE(R.Output.find("FTO-HB over"), std::string::npos) << R.Output;
}

TEST(AnalyzeCli, GenIsDeterministicPerSeed) {
  std::string Gen = cli() + " --gen threads=2,vars=2,events=200,seed=9";
  RunResult A = runCommand(Gen);
  RunResult B = runCommand(Gen);
  RunResult C = runCommand(Gen + ",threads=3");
  EXPECT_EQ(A.ExitCode, 0);
  EXPECT_EQ(A.Output, B.Output);
  EXPECT_NE(A.Output, C.Output) << "spec changes must change the trace";
}

TEST(AnalyzeCli, GenRejectsUnknownKeys) {
  RunResult R = runCommand(cli() + " --gen frobs=3");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("unknown --gen key 'frobs'"), std::string::npos)
      << R.Output;
}

TEST(AnalyzeCli, NdjsonParallelEmitsSymbolicNames) {
  // The racy variable is first interned well after the first engine
  // batch (--batch=2), so symbolic output depends on the quiet-point
  // snapshot refresh; before that fix, parallel NDJSON silently fell
  // back to canonical x<id>/T<id> ids.
  RunResult R = runCommand(
      "printf 'T1: wr(p)\\nT1: wr(p)\\nT1: wr(q)\\nT1: wr(q)\\n"
      "T1: wr(zrace)\\nT2: wr(zrace)\\n' | " +
      cli() +
      " --analysis=ST-WDC --analysis=FTO-WDC --parallel --batch=2 "
      "--format=ndjson -");
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  size_t Symbolic = 0;
  for (size_t Pos = 0;
       (Pos = R.Output.find("\"var\":\"zrace\"", Pos)) != std::string::npos;
       ++Pos)
    ++Symbolic;
  EXPECT_EQ(Symbolic, 2u) << "both analyses must print the symbolic var:\n"
                          << R.Output;
  EXPECT_NE(R.Output.find("\"thread\":\"T2\""), std::string::npos)
      << R.Output;
  EXPECT_EQ(R.Output.find("\"var\":\"x2\""), std::string::npos)
      << "canonical id fallback leaked into parallel ndjson:\n"
      << R.Output;
}

/// Runs every report format over the trace \p Producer writes to stdout
/// and compares the concatenated, timing-masked outputs with the golden
/// file \p Golden under tests/tools/golden. On a mismatch the actual bytes
/// land in <Golden>.actual in the working directory; copy that over the
/// golden file only when an output change is intended.
void expectGoldenReports(const std::string &Producer,
                         const std::string &Analyses, const char *Golden) {
  static const char *const Modes[] = {
      "--format=json", "--format=json --stats --vindicate",
      "--format=ndjson", "--format=ndjson --stats", "--stats"};
  std::string Actual;
  for (const char *Mode : Modes) {
    RunResult R = runCommand(Producer + " | " + cli() + " " + Analyses +
                             " " + Mode + " -");
    Actual += "# " + std::string(Mode) + " (exit " +
              std::to_string(R.ExitCode) + ")\n" + maskTimings(R.Output);
  }
  std::ifstream In(std::string(ST_GOLDEN_DIR) + "/" + Golden,
                   std::ios::binary);
  ASSERT_TRUE(In) << "missing golden file " << Golden;
  std::stringstream Expected;
  Expected << In.rdbuf();
  if (Actual != Expected.str()) {
    std::ofstream(std::string(Golden) + ".actual", std::ios::binary)
        << Actual;
    ADD_FAILURE() << "report bytes differ from " << Golden
                  << "; actual output written to " << Golden << ".actual";
  }
}

TEST(AnalyzeCli, ReportFormatsMatchGoldenBytesOnSampleTrace) {
  expectGoldenReports("cat " + trace("racy.trace"), "--all",
                      "analyze_racy.txt");
}

TEST(AnalyzeCli, ReportFormatsMatchGoldenBytesOnGeneratedTrace) {
  expectGoldenReports(cli() + " --gen threads=3,vars=24,locks=2,events=80,"
                              "seed=3",
                      "--analysis=FT2 --analysis=FTO-WDC --analysis=ST-WDC",
                      "analyze_gen.txt");
}

} // namespace
