//===- tests/tools/ServeCliTest.cpp - st-serve + st-analyze --connect -----===//
//
// End-to-end tests of the serving CLIs: a real st-serve process on a
// unix socket (paths injected by CMake), a real st-analyze --connect
// uploading the checked-in sample traces, and assertions on the NDJSON
// the client relays plus its exit status — which must match the
// in-process exit-code contract (0 clean, 2 races, 1 error) so scripts
// cannot tell a served run from a local one. The in-process protocol and
// concurrency matrix lives in tests/serve; this suite only proves the
// binaries wire it together.
//
//===----------------------------------------------------------------------===//

#include "CliTestUtil.h"

#include <gtest/gtest.h>

#include <csignal>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

using namespace st::cli_test;

namespace {

std::string serve() { return std::string("'") + ST_SERVE_PATH + "'"; }
std::string analyze() { return std::string("'") + ST_ANALYZE_PATH + "'"; }
std::string trace(const char *Name) {
  return std::string("'") + ST_TRACES_DIR + "/" + Name + "'";
}

/// One served round trip: st-serve (background, --max-conns=1 so it
/// exits by itself), a wait-for-socket loop, then \p ClientArgs against
/// it. The client's exit code is the command's.
std::string servedRun(const std::string &ClientArgs,
                      const std::string &ServeArgs = std::string()) {
  std::string Sock = "/tmp/st_cli_$$.sock";
  return "S=" + Sock + "; rm -f \"$S\"; " + serve() +
         " --listen=unix:\"$S\" --max-conns=1 " + ServeArgs +
         " 2>/dev/null & SP=$!; i=0; "
         "while [ ! -S \"$S\" ] && [ $i -lt 200 ]; do sleep 0.05; "
         "i=$((i+1)); done; " +
         analyze() + " --connect=unix:\"$S\" " + ClientArgs +
         "; rc=$?; wait $SP; rm -f \"$S\"; exit $rc";
}

TEST(ServeCli, RacyTraceStreamsRacesAndExitsTwo) {
  RunResult R = runCommand(servedRun(trace("racy.trace")));
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("\"type\":\"race\""), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("\"type\":\"summary\""), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("\"total_dynamic_races\":"), std::string::npos)
      << R.Output;
}

/// Masks what legitimately differs between a served and a local run: the
/// timing values are blanked and the server-only "service_ns" field is
/// dropped.
std::string maskServed(std::string S) {
  const std::string ServiceNs = ",\"service_ns\":";
  for (size_t P; (P = S.find(ServiceNs)) != std::string::npos;)
    S.erase(P, S.find_first_of(",}", P + 1) - P);
  return maskTimings(S);
}

TEST(ServeCli, ServedReportEqualsLocalNdjsonReport) {
  // One serializer for both surfaces: the lines a served run relays are
  // the bytes a local NDJSON run prints, case_stats included.
  const std::string Inputs[] = {
      "cat " + trace("racy.trace"),
      analyze() + " --gen threads=4,vars=24,locks=3,events=2000,seed=17"};
  for (const std::string &Input : Inputs) {
    RunResult Local = runCommand(Input + " | " + analyze() +
                                 " --all --format=ndjson --stats -");
    RunResult Served =
        runCommand(Input + " | ( " + servedRun("--all -") + " )");
    EXPECT_EQ(Served.ExitCode, Local.ExitCode) << Input;
    EXPECT_NE(Local.Output.find("\"case_stats\":{"), std::string::npos)
        << Local.Output;
    EXPECT_EQ(maskServed(Served.Output), maskServed(Local.Output))
        << Input;
  }
}

TEST(ServeCli, RaceFreeTraceExitsZero) {
  RunResult R =
      runCommand(servedRun("--all " + trace("race_free.trace")));
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("\"total_dynamic_races\":0"), std::string::npos)
      << R.Output;
  EXPECT_EQ(R.Output.find("\"type\":\"race\""), std::string::npos) << R.Output;
}

TEST(ServeCli, StdinUploadWorksLikeAFile) {
  RunResult R = runCommand(servedRun("- < " + trace("racy.trace")));
  EXPECT_EQ(R.ExitCode, 2) << R.Output;
  EXPECT_NE(R.Output.find("\"type\":\"race\""), std::string::npos) << R.Output;
}

TEST(ServeCli, StrictRejectionExitsOneWithDiagnostics) {
  RunResult R = runCommand(servedRun("--validate=strict " +
                                     trace("bad/err_multi.trace")));
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("\"type\":\"diag\""), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("\"code\":\"rejected\""), std::string::npos)
      << R.Output;
}

TEST(ServeCli, ServedDiagnosticsSpellTheSourceNames) {
  // The decoder of a framed upload exists only after the first read; the
  // served lint messages must still use the trace's names (T5, m7), not
  // the dense ids they intern as (T0, m0).
  RunResult R = runCommand(
      "printf 'T5: acq(m7)\\nT5: rel(m7)\\nT9: rel(m3)\\n' | ( " +
      servedRun("--validate=warn -") + " )");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("T5 rel(m7): empty critical section"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("T9 rel(m3): release of a lock"), std::string::npos)
      << R.Output;
}

TEST(ServeCli, TimeBudgetRejectsValuesOutsideItsBound) {
  // inf overflows the deadline (every connection would be evicted at
  // once), 1e300 the socket timeout (every read would time out), and NaN
  // passes a plain `< 0` check. `timeout` turns a server that wrongly
  // starts serving into a failure instead of a hang.
  for (const char *V : {"inf", "nan", "1e300", "-1"}) {
    RunResult R = runCommand("timeout 10 " + serve() +
                             " --listen=unix:/tmp/st_cli_tb_$$.sock"
                             " --time-budget=" +
                             V);
    EXPECT_EQ(R.ExitCode, 1) << V << ": " << R.Output;
    EXPECT_NE(R.Output.find("bad --time-budget value"), std::string::npos)
        << V << ": " << R.Output;
  }
}

TEST(ServeCli, ConnectRefusesInProcessOnlyFlags) {
  RunResult R = runCommand(analyze() + " --connect=unix:/nowhere.sock "
                                       "--vindicate " +
                           trace("racy.trace"));
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("incompatible with --connect"), std::string::npos)
      << R.Output;
}

TEST(ServeCli, ConnectToMissingServerFailsLoudly) {
  RunResult R = runCommand(analyze() +
                           " --connect=unix:/tmp/st_cli_no_such_$$.sock " +
                           trace("racy.trace"));
  EXPECT_EQ(R.ExitCode, 1) << R.Output;
  EXPECT_NE(R.Output.find("error"), std::string::npos) << R.Output;
}

TEST(ServeCli, ServerReportsItsAccountingOnExit) {
  // Keep the server's stderr this time: the shutdown line carries the
  // outcome accounting.
  std::string Sock = "/tmp/st_cli_acct_$$.sock";
  RunResult R = runCommand(
      "S=" + Sock + "; rm -f \"$S\"; " + serve() +
      " --listen=unix:\"$S\" --max-conns=1 & SP=$!; i=0; "
      "while [ ! -S \"$S\" ] && [ $i -lt 200 ]; do sleep 0.05; "
      "i=$((i+1)); done; " +
      analyze() + " --connect=unix:\"$S\" --quiet " + trace("racy.trace") +
      "; wait $SP; rm -f \"$S\"");
  EXPECT_NE(R.Output.find("1 accepted, 1 completed, 0 evicted, 0 rejected, "
                          "0 protocol-error(s)"),
            std::string::npos)
      << R.Output;
}

/// Reads \p Fd to EOF.
std::string drain(int Fd) {
  std::string Out;
  char Buf[4096];
  ssize_t N;
  while ((N = read(Fd, Buf, sizeof(Buf))) > 0)
    Out.append(Buf, static_cast<size_t>(N));
  return Out;
}

TEST(ServeCli, SigtermRightAfterPrintPortShutsDownCleanly) {
  // The port line is printed before the server starts accepting, so a
  // SIGTERM sent the moment it is read lands in the start-up window; it
  // must still take the clean path: exit 0 and the accounting line.
  for (int Round = 0; Round != 3; ++Round) {
    int Out[2], Err[2];
    ASSERT_EQ(pipe(Out), 0);
    ASSERT_EQ(pipe(Err), 0);
    pid_t Pid = fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      dup2(Out[1], STDOUT_FILENO);
      dup2(Err[1], STDERR_FILENO);
      close(Out[0]);
      close(Out[1]);
      close(Err[0]);
      close(Err[1]);
      execl(ST_SERVE_PATH, ST_SERVE_PATH, "--listen=tcp:127.0.0.1:0",
            "--print-port", static_cast<char *>(nullptr));
      _exit(127);
    }
    close(Out[1]);
    close(Err[1]);
    std::string Port;
    char C;
    while (read(Out[0], &C, 1) == 1 && C != '\n')
      Port += C;
    kill(Pid, SIGTERM);
    std::string Stderr = drain(Err[0]);
    close(Out[0]);
    close(Err[0]);
    int Status = 0;
    ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
    EXPECT_FALSE(Port.empty()) << Stderr;
    ASSERT_TRUE(WIFEXITED(Status))
        << "killed by signal " << WTERMSIG(Status) << "\n" << Stderr;
    EXPECT_EQ(WEXITSTATUS(Status), 0) << Stderr;
    EXPECT_NE(Stderr.find("st-serve: 0 accepted, 0 completed, 0 evicted, "
                          "0 rejected, 0 protocol-error(s)"),
              std::string::npos)
        << Stderr;
  }
}

} // namespace
