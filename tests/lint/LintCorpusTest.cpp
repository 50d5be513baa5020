//===- tests/lint/LintCorpusTest.cpp - Golden run over the bad corpus -----===//
//
// Every trace in tools/traces/bad/ declares the exact STL0xx code set it
// must produce in a "# expect:" header. The test runs the full rule set
// over each file the way st-lint does (a LintingEventSource over the
// decoder, with provenance) and compares code sets — so corpus, codes,
// and docs/linting.md stay in lockstep — then checks that every
// error-level entry is rejected by a Strict Session before any analysis
// result is produced.
//
//===----------------------------------------------------------------------===//

#include "engine/EventSource.h"
#include "lint/LintingEventSource.h"
#include "report/Session.h"
#include "trace/TraceText.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <dirent.h>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace st;

namespace {

std::string corpusDir() { return std::string(ST_TRACES_DIR) + "/bad"; }

std::vector<std::string> corpusFiles() {
  std::vector<std::string> Files;
  DIR *Dir = opendir(corpusDir().c_str());
  EXPECT_NE(Dir, nullptr) << "missing corpus dir " << corpusDir();
  if (!Dir)
    return Files;
  while (dirent *Entry = readdir(Dir)) {
    std::string Name = Entry->d_name;
    if (Name.size() > 6 && Name.substr(Name.size() - 6) == ".trace")
      Files.push_back(Name);
  }
  closedir(Dir);
  std::sort(Files.begin(), Files.end());
  return Files;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Parses the "# expect: STL001 STL020" header line.
std::set<std::string> expectedCodes(const std::string &Content,
                                    const std::string &Name) {
  const std::string Marker = "# expect:";
  EXPECT_EQ(Content.compare(0, Marker.size(), Marker), 0)
      << Name << " must start with a '# expect:' header";
  size_t Eol = Content.find('\n');
  std::istringstream Line(Content.substr(Marker.size(), Eol - Marker.size()));
  std::set<std::string> Codes;
  std::string Code;
  while (Line >> Code)
    Codes.insert(Code);
  EXPECT_FALSE(Codes.empty()) << Name << " expects no codes?";
  return Codes;
}

/// Streams \p Content through the full rule set the way st-lint does: a
/// plain decoder under a LintingEventSource, read to the end.
std::vector<LintDiagnostic> lintText(const std::string &Content) {
  MemoryByteSource Bytes(Content);
  OpenedEventSource In = openEventSource(Bytes, /*Validate=*/false);
  LintEngine Eng;
  addAllRules(Eng);
  LintingEventSource Linted(*In.Events, Eng, /*Reject=*/false);
  Event Buf[64];
  while (Linted.read(Buf, 64) > 0) {
  }
  return Eng.diagnostics();
}

/// The diagnostics a Session validating in \p Mode reports over \p Content.
std::vector<LintDiagnostic> sessionDiagnostics(const std::string &Content,
                                               ValidationMode Mode) {
  MemoryByteSource Bytes(Content);
  OpenedEventSource In = openEventSource(Bytes, /*Validate=*/false);
  SessionOptions Opts;
  Opts.Validation = Mode;
  Session S(Opts);
  S.add(AnalysisKind::STWDC);
  return S.run(*In.Events).Validation.Diagnostics;
}

TEST(LintCorpusTest, EveryEntryProducesExactlyItsExpectedCodes) {
  std::vector<std::string> Files = corpusFiles();
  ASSERT_FALSE(Files.empty());
  for (const std::string &Name : Files) {
    std::string Content = readFile(corpusDir() + "/" + Name);
    std::set<std::string> Expected = expectedCodes(Content, Name);
    std::set<std::string> Got;
    for (const LintDiagnostic &D : lintText(Content))
      Got.insert(lintCodeId(D.Code));
    EXPECT_EQ(Got, Expected) << Name;
  }
}

TEST(LintCorpusTest, DiagnosticsCarryLineProvenance) {
  // Every event-level diagnostic over a text corpus entry must name the
  // source line it came from, whichever path linted it.
  for (const std::string &Name : corpusFiles()) {
    std::string Content = readFile(corpusDir() + "/" + Name);
    std::vector<std::pair<const char *, std::vector<LintDiagnostic>>> Runs = {
        {"st-lint", lintText(Content)},
        {"warn", sessionDiagnostics(Content, ValidationMode::Warn)},
        {"strict", sessionDiagnostics(Content, ValidationMode::Strict)}};
    for (const auto &[Path, Diags] : Runs) {
      EXPECT_FALSE(Diags.empty()) << Name << " via " << Path;
      for (const LintDiagnostic &D : Diags) {
        if (!D.streamLevel()) {
          EXPECT_GT(D.Line, 0u)
              << Name << " via " << Path << ": " << formatDiagnostic(D);
        }
      }
    }
  }
}

TEST(LintCorpusTest, StrictSessionRejectsEveryErrorEntry) {
  for (const std::string &Name : corpusFiles()) {
    std::string Content = readFile(corpusDir() + "/" + Name);
    bool IsError = Name.compare(0, 4, "err_") == 0;

    MemoryByteSource Bytes(Content);
    // Raw hard validation off: the Session's lint pass is the one under
    // test (and must catch everything itself).
    OpenedEventSource In = openEventSource(Bytes, /*Validate=*/false);
    SessionOptions Opts;
    Opts.Validation = ValidationMode::Strict;
    Session S(Opts);
    S.add(AnalysisKind::STWDC);
    RunReport Rep = S.run(*In.Events);

    EXPECT_TRUE(Rep.Validation.Ran) << Name;
    if (IsError) {
      EXPECT_TRUE(Rep.rejected()) << Name;
      EXPECT_TRUE(Rep.Analyses.empty())
          << Name << ": rejected runs report no analysis results";
      EXPECT_EQ(Rep.TotalDynamicRaces, 0u) << Name;
      EXPECT_GT(Rep.Validation.Errors, 0u) << Name;
      EXPECT_FALSE(Rep.Validation.Diagnostics.empty()) << Name;
    } else {
      EXPECT_FALSE(Rep.rejected())
          << Name << ": warnings/notes never reject";
      EXPECT_EQ(Rep.Analyses.size(), 1u) << Name;
      EXPECT_EQ(Rep.Validation.Errors, 0u) << Name;
      EXPECT_GT(Rep.Validation.Warnings + Rep.Validation.Notes, 0u) << Name;
    }
  }
}

TEST(LintCorpusTest, StrictRejectionWithholdsTheOffendingEvent) {
  // The cores must never see the offending event: in err_multi the first
  // violation is at event index 1, so with a batch size of 1 the driver
  // receives exactly one event before the stream is cut.
  std::string Content = readFile(corpusDir() + "/err_multi.trace");
  MemoryByteSource Bytes(Content);
  OpenedEventSource In = openEventSource(Bytes, /*Validate=*/false);
  SessionOptions Opts;
  Opts.Validation = ValidationMode::Strict;
  Opts.BatchSize = 1;
  Session S(Opts);
  RunReport Rep = S.run(*In.Events);
  EXPECT_TRUE(Rep.rejected());
  EXPECT_EQ(Rep.Stream.Events, 1u)
      << "only the event before the first violation may reach the driver";
  // Rejection still reports the complete diagnosis, not just the first.
  std::set<LintCode> Codes;
  for (const LintDiagnostic &D : Rep.Validation.Diagnostics)
    Codes.insert(D.Code);
  EXPECT_TRUE(Codes.count(LintCode::AcquireHeld));
  EXPECT_TRUE(Codes.count(LintCode::ReleaseUnheld));
  EXPECT_TRUE(Codes.count(LintCode::RunAfterJoin));
}

} // namespace
