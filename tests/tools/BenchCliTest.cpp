//===- tests/tools/BenchCliTest.cpp - st-bench CLI behavior ---------------===//
//
// End-to-end tests of the st-bench binary (path injected by CMake): the
// paper suite's deterministic tables against golden rows, the shape of its
// timing tables, the ablation-ccs suite's cells, and the CLI's handling of
// out-of-range trial counts and of a report that cannot be written.
//
//===----------------------------------------------------------------------===//

#include "CliTestUtil.h"

#include <gtest/gtest.h>

#include <cctype>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace st::cli_test;

namespace {

std::string bench(const std::string &Args) {
  return std::string("'") + ST_BENCH_PATH + "' " + Args;
}

std::vector<std::string> splitLines(const std::string &S) {
  std::vector<std::string> Out;
  std::istringstream In(S);
  for (std::string L; std::getline(In, L);)
    Out.push_back(L);
  return Out;
}

bool isRule(const std::string &L) {
  return !L.empty() && L.find_first_not_of('-') == std::string::npos;
}

/// The lines from the title "<Title>:" up to the next table title.
std::vector<std::string> section(const std::vector<std::string> &Lines,
                                 const std::string &Title) {
  std::vector<std::string> Out;
  bool In = false;
  for (const std::string &L : Lines) {
    if (L.rfind("Table ", 0) == 0) {
      if (In)
        break;
      In = L.rfind(Title + ":", 0) == 0;
    }
    if (In)
      Out.push_back(L);
  }
  return Out;
}

/// A section's data rows: every line but the title, parameter lines in
/// parentheses, column headers (the line above a rule), rules, and blank
/// lines. Table 7's program names count as rows.
std::vector<std::string> dataRows(const std::vector<std::string> &Sec) {
  std::vector<std::string> Out;
  for (size_t I = 0; I != Sec.size(); ++I) {
    const std::string &L = Sec[I];
    if (L.empty() || L.rfind("Table ", 0) == 0 || L[0] == '(' ||
        isRule(L) || (I + 1 != Sec.size() && isRule(Sec[I + 1])))
      continue;
    Out.push_back(L);
  }
  return Out;
}

/// The paper suite at 5000 events per workload (seed 42), human tables
/// on stdout. Runs once per test binary.
const RunResult &paperRun() {
  static const RunResult R =
      runCommand(bench("--suite=paper --events=5000 --warmup=0 --repeats=1 "
                       "--out=/dev/null 2>/dev/null"));
  return R;
}

TEST(BenchCli, PaperDeterministicTablesMatchGoldenRows) {
  // The golden rows were printed by the paper-table programs st-bench's
  // paper suite replaced (sized at 5000 events, seed 42), so they pin
  // the fold itself: regenerate them only for an intended change to the
  // workloads or analyses, never to make this test pass.
  const RunResult &R = paperRun();
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  std::vector<std::string> Lines = splitLines(R.Output);
  std::string Actual;
  for (const char *Title : {"Table 2", "Table 7", "Table 12"}) {
    Actual += std::string(Title) + "\n";
    for (const std::string &Row : dataRows(section(Lines, Title)))
      Actual += Row + "\n";
  }
  std::ifstream In(std::string(ST_GOLDEN_DIR) + "/bench_paper_tables.txt",
                   std::ios::binary);
  ASSERT_TRUE(In) << "missing golden file bench_paper_tables.txt";
  std::string Expected((std::istreambuf_iterator<char>(In)),
                       std::istreambuf_iterator<char>());
  if (Actual != Expected) {
    std::ofstream("bench_paper_tables.actual", std::ios::binary) << Actual;
    ADD_FAILURE() << "paper table rows differ from bench_paper_tables.txt; "
                     "actual rows written to bench_paper_tables.actual";
  }
}

TEST(BenchCli, PaperTimingTablesHaveThePaperLayout) {
  const RunResult &R = paperRun();
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  std::vector<std::string> Lines = splitLines(R.Output);

  // Table 3: a row per workload plus the geomean, for run time and memory.
  std::vector<std::string> T3 = dataRows(section(Lines, "Table 3"));
  ASSERT_EQ(T3.size(), 2u * 12) << "two 11-row tables, each with a caption";
  EXPECT_EQ(T3[0], "Run time");
  EXPECT_EQ(T3[11].rfind("geomean", 0), 0u) << T3[11];
  EXPECT_EQ(T3[12], "Memory usage");

  // Tables 4-6: relation-by-level blocks of four rows; ST-HB is N/A.
  const std::pair<const char *, size_t> Grids[] = {
      {"Table 4", 2}, {"Table 5", 10}, {"Table 6", 10}};
  for (const auto &[Title, Blocks] : Grids) {
    std::vector<std::string> Sec = section(Lines, Title);
    size_t Seen = 0;
    for (size_t I = 0; I != Sec.size(); ++I) {
      if (!isRule(Sec[I]))
        continue;
      ++Seen;
      ASSERT_LT(I + 4, Sec.size()) << Title;
      const char *Relations[] = {"HB ", "WCP ", "DC ", "WDC "};
      for (size_t Row = 0; Row != 4; ++Row)
        EXPECT_EQ(Sec[I + 1 + Row].rfind(Relations[Row], 0), 0u)
            << Title << ": " << Sec[I + 1 + Row];
      std::string HB = Sec[I + 1];
      EXPECT_EQ(HB.substr(HB.find_last_not_of(' ') - 2, 3), "N/A")
          << Title << ": " << HB;
      EXPECT_TRUE(I + 5 == Sec.size() || Sec[I + 5].empty())
          << Title << ": more than four relation rows";
    }
    EXPECT_EQ(Seen, Blocks) << Title;
  }
}

TEST(BenchCli, AblationSuiteMeasuresEighteenCellsAndSixSweepRows) {
  RunResult R =
      runCommand(bench("--suite=ablation-ccs --events=3000 --warmup=0 "
                       "--repeats=1 --out=- 2>/dev/null"));
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  size_t Cells = 0;
  for (size_t P = R.Output.find("{\"workload\": "); P != std::string::npos;
       P = R.Output.find("{\"workload\": ", P + 1))
    ++Cells;
  EXPECT_EQ(Cells, 18u) << "6 sweep workloads x 3 DC analyses";
  // Sweep rows open with the held fraction ("40%"); no JSON line does.
  size_t SweepRows = 0;
  for (const std::string &L : splitLines(R.Output))
    if (!L.empty() && std::isdigit(static_cast<unsigned char>(L[0])) &&
        L.find("% ") != std::string::npos)
      ++SweepRows;
  EXPECT_EQ(SweepRows, 6u) << R.Output;
  EXPECT_NE(R.Output.find("\"suite\": \"ablation-ccs\""), std::string::npos);
}

TEST(BenchCli, FailedStdoutReportWriteExitsOne) {
  RunResult R = runCommand(
      bench("--suite=smoke --events=2000 --quiet --out=- >/dev/full"));
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("error: writing - failed"), std::string::npos)
      << R.Output;
}

TEST(BenchCli, TrialCountsBeyondUnsignedAreRejected) {
  for (const char *Flag : {"--repeats", "--warmup"}) {
    RunResult R = runCommand(bench("--suite=smoke --events=100 --quiet "
                                   "--out=- " +
                                   std::string(Flag) + "=4294967296"));
    EXPECT_EQ(R.ExitCode, 1) << Flag << ": " << R.Output;
    EXPECT_NE(R.Output.find(std::string("error: ") + Flag),
              std::string::npos)
        << R.Output;
  }
}

TEST(BenchCli, WarmupOfUintMaxIsNotTheSuiteDefault) {
  // 2^32-1 warmup trials is a real (if absurd) request: the run is still
  // warming up when the timeout stops it, rather than finishing at once
  // with the suite's default warmup and a report that claims it.
  RunResult R = runCommand(
      "timeout 2 " +
      bench("--suite=smoke --workloads=jython --analyses=FT2 --events=100 "
            "--quiet --out=- --warmup=4294967295"));
  EXPECT_EQ(R.ExitCode, 124) << R.Output;
  EXPECT_EQ(R.Output.find("\"warmup\""), std::string::npos) << R.Output;
}

} // namespace
