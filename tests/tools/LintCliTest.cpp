//===- tests/tools/LintCliTest.cpp - st-lint CLI behavior -----------------===//
//
// End-to-end tests of the st-lint diagnostics CLI: each test shells out
// to the real binary (path injected by CMake as ST_LINT_PATH) over the
// checked-in trace corpus and checks rendered diagnostics, summaries,
// ndjson framing, and the documented exit-code contract (0 clean/notes,
// 2 errors, 3 warnings, --werror folding 3 into 2).
//
//===----------------------------------------------------------------------===//

#include "CliTestUtil.h"

#include <gtest/gtest.h>

#include <string>

using namespace st::cli_test;

namespace {

// Paths are single-quoted so build/source trees with spaces survive the
// `sh -c` word splitting in runCommand.
std::string cli() { return std::string("'") + ST_LINT_PATH + "'"; }
std::string trace(const char *Name) {
  return std::string("'") + ST_TRACES_DIR + "/" + Name + "'";
}

/// Asserts \p Needles appear in \p Haystack in order, each after the
/// previous match (diagnostics stream in event order).
void expectInOrder(const std::string &Haystack,
                   std::initializer_list<const char *> Needles) {
  size_t Pos = 0;
  for (const char *Needle : Needles) {
    size_t Found = Haystack.find(Needle, Pos);
    ASSERT_NE(Found, std::string::npos)
        << Needle << " missing or out of order in:\n"
        << Haystack;
    Pos = Found + std::string(Needle).size();
  }
}

TEST(LintCli, ListCodesCoversErrorsAndSoftLints) {
  RunResult R = runCommand(cli() + " --list-codes");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  expectInOrder(R.Output, {"STL001", "error", "STL008", "STL020", "warning",
                           "STL023", "note", "STL025"});
}

TEST(LintCli, CleanTraceExitsZeroWithSummary) {
  RunResult R = runCommand(cli() + " " + trace("race_free.trace"));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("0 error(s), 0 warning(s)"), std::string::npos)
      << R.Output;
}

TEST(LintCli, ErrorCorpusExitsTwoAndReportsEveryViolation) {
  RunResult R = runCommand(cli() + " " + trace("bad/err_multi.trace"));
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  // Non-latching: all three hard violations render, in stream order,
  // each with its line provenance and severity.
  expectInOrder(R.Output, {"error STL001", "error STL002", "error STL003",
                           "3 error(s)"});
  EXPECT_NE(R.Output.find("warning STL020"), std::string::npos) << R.Output;
}

TEST(LintCli, WarningsExitThreeAndWerrorFoldsToTwo) {
  RunResult R = runCommand(cli() + " " + trace("bad/warn_unjoined.trace"));
  EXPECT_EQ(R.ExitCode, 3) << R.Output;
  EXPECT_NE(R.Output.find("warning STL021"), std::string::npos) << R.Output;

  RunResult W =
      runCommand(cli() + " --werror " + trace("bad/warn_unjoined.trace"));
  EXPECT_EQ(W.ExitCode, 2) << W.Output;
}

TEST(LintCli, NotesAloneExitZero) {
  RunResult R = runCommand(cli() + " " + trace("bad/note_vol_alias.trace"));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("note STL023"), std::string::npos) << R.Output;
}

TEST(LintCli, HardOnlySkipsSoftLints) {
  RunResult R = runCommand(cli() + " --hard-only " +
                           trace("bad/warn_held_at_end.trace"));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_EQ(R.Output.find("STL020"), std::string::npos) << R.Output;
}

TEST(LintCli, MaxDiagsSuppressesButSummaryCountsEverything) {
  RunResult R = runCommand(cli() + " --max-diags=1 " +
                           trace("bad/err_multi.trace"));
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  expectInOrder(R.Output, {"error STL001", "more diagnostic(s)",
                           "3 error(s)"});
  // Only the first diagnostic rendered.
  EXPECT_EQ(R.Output.find("error STL002"), std::string::npos) << R.Output;
}

TEST(LintCli, QuietPrintsOnlyTheSummary) {
  RunResult R = runCommand(cli() + " --quiet " + trace("bad/err_multi.trace"));
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_EQ(R.Output.find("error STL001"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("3 error(s)"), std::string::npos) << R.Output;
}

TEST(LintCli, NdjsonStreamsDiagnosticObjectsThenSummary) {
  RunResult R = runCommand(cli() + " --format=ndjson " +
                           trace("bad/err_double_acquire.trace"));
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  expectInOrder(R.Output,
                {"{\"type\":\"diagnostic\",\"code\":\"STL001\"",
                 "\"severity\":\"error\"", "\"line\":",
                 "{\"type\":\"summary\",\"events\":", "\"errors\":1"});
}

TEST(LintCli, StdinPathWorks) {
  RunResult R = runCommand(cli() + " - < " + trace("bad/err_multi.trace"));
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("<stdin>"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("error STL001"), std::string::npos) << R.Output;
}

TEST(LintCli, MalformedInputReportsStl008AndExitsTwo) {
  RunResult R = runCommand("printf 'T1: frobnicate(x)\\n' | " + cli());
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("STL008"), std::string::npos) << R.Output;
}

TEST(LintCli, ProvenanceNamesTheOffendingLine) {
  // err_multi: line 1 is the '# expect:' header; the first violation
  // (second acquire) is on line 3.
  RunResult R = runCommand(cli() + " " + trace("bad/err_multi.trace"));
  size_t Pos = R.Output.find("error STL001");
  ASSERT_NE(Pos, std::string::npos) << R.Output;
  size_t LineStart = R.Output.rfind('\n', Pos);
  LineStart = LineStart == std::string::npos ? 0 : LineStart + 1;
  std::string Line = R.Output.substr(LineStart, Pos - LineStart);
  EXPECT_NE(Line.find(":3: "), std::string::npos)
      << "first STL001 should carry line 3, got: " << Line;
}

TEST(LintCli, MessagesSpellTheSourceNames) {
  // Thread and lock names that are not their dense ids (T5 and m7 intern
  // as 0): the message must name the events as the trace wrote them, as
  // the [event N, T...] bracket already does.
  RunResult R = runCommand(
      "printf 'T5: acq(m7)\\nT5: rel(m7)\\nT9: rel(m3)\\n' | " + cli());
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  expectInOrder(R.Output,
                {"warning STL022: T5 rel(m7): empty critical section "
                 "[event 1, T5]",
                 "error STL002: T9 rel(m3): release of a lock the thread "
                 "does not hold [event 2, T9]"});
  EXPECT_EQ(R.Output.find("T0 "), std::string::npos) << R.Output;
  EXPECT_EQ(R.Output.find("m0"), std::string::npos) << R.Output;
}

TEST(LintCli, VolatileAliasComparesSpelledNames) {
  // The DSL interns variables and volatiles in separate tables that both
  // start at 0: x and flag share id 0 but are different objects.
  RunResult R = runCommand(
      "printf 'T1: wr(x)\\nT1: vwr(flag)\\nT2: vrd(flag)\\nT2: rd(x)\\n' | " +
      cli());
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_EQ(R.Output.find("STL023"), std::string::npos) << R.Output;
  // One name used both ways still is.
  R = runCommand(cli() + " " + trace("bad/note_vol_alias.trace"));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("note STL023"), std::string::npos) << R.Output;
}

TEST(LintCli, UnknownOptionExitsOne) {
  RunResult R = runCommand(cli() + " --no-such-flag");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("unknown option"), std::string::npos) << R.Output;
}

} // namespace
