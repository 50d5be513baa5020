//===- tests/tools/LoadgenCliTest.cpp - st-loadgen CLI behavior -----------===//
//
// End-to-end tests of the st-loadgen binary against a real st-serve
// process (paths injected by CMake): the JSON report it writes must stay
// valid JSON whatever the user typed into string-valued options, and a
// report that could not be written must fail the run. The generator's
// statistics and accounting live in tests/loadgen.
//
//===----------------------------------------------------------------------===//

#include "CliTestUtil.h"

#include <gtest/gtest.h>

#include <string>

using namespace st::cli_test;

namespace {

/// Runs st-loadgen \p Args (a short, light load) against an st-serve
/// listening on a unix socket whose path contains a double quote and a
/// backslash, then stops the server. The loadgen's exit code is the
/// command's; the socket path is in $S.
RunResult loadgenAgainstServer(const std::string &Args) {
  std::string Serve = std::string("'") + ST_SERVE_PATH + "'";
  std::string Loadgen = std::string("'") + ST_LOADGEN_PATH + "'";
  return runCommand(
      "S='/tmp/st_lg_q\"x\\y_'$$'.sock'; rm -f \"$S\"; " + Serve +
      " --listen=unix:\"$S\" 2>/dev/null & SP=$!; i=0; "
      "while [ ! -S \"$S\" ] && [ $i -lt 200 ]; do sleep 0.05; "
      "i=$((i+1)); done; " +
      Loadgen +
      " --connect=unix:\"$S\" --events-per-sec=20000 --connections=1 "
      "--duration=0.3 --events-per-request=200 --quiet " +
      Args + "; rc=$?; kill $SP; wait $SP; rm -f \"$S\"; exit $rc");
}

TEST(LoadgenCli, ReportEscapesTheConnectAddress) {
  RunResult R = loadgenAgainstServer("--out=-");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("\"connect\": \"unix:/tmp/st_lg_q\\\"x\\\\y_"),
            std::string::npos)
      << R.Output;
}

TEST(LoadgenCli, ReportEscapesTheAnalysisLabel) {
  // The server refuses the unknown analysis, so nothing completes and the
  // run fails, but the report it still writes must be valid JSON.
  RunResult R = loadgenAgainstServer("'--analysis=ST-\"WDC' --out=-");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("\"analysis\": \"ST-\\\"WDC\""), std::string::npos)
      << R.Output;
}

TEST(LoadgenCli, FailedReportWriteExitsOne) {
  RunResult R = loadgenAgainstServer("--out=/dev/full");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("error: writing /dev/full failed"),
            std::string::npos)
      << R.Output;
}

TEST(LoadgenCli, FailedStdoutReportWriteExitsOne) {
  RunResult R = loadgenAgainstServer("--out=- >/dev/full");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("error: writing - failed"), std::string::npos)
      << R.Output;
}

TEST(LoadgenCli, RecvTimeoutRejectsValuesOutsideItsBound) {
  // NaN passes a plain `<= 0` check and 1e300 overflows the timeval
  // conversion; each must fail before any connection is made.
  std::string Loadgen = std::string("'") + ST_LOADGEN_PATH + "'";
  for (const char *V : {"nan", "inf", "1e300", "0"}) {
    RunResult R = runCommand(Loadgen +
                             " --connect=unix:/tmp/st_lg_none_$$.sock"
                             " --recv-timeout=" +
                             V);
    EXPECT_EQ(R.ExitCode, 1) << V << ": " << R.Output;
    EXPECT_NE(R.Output.find("bad --recv-timeout"), std::string::npos)
        << V << ": " << R.Output;
  }
}

} // namespace
