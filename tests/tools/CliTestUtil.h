//===- tests/tools/CliTestUtil.h - Shared plumbing for the CLI tests ------===//
//
// The CLI suites shell out to the real binaries: runCommand captures a
// command's combined output and exit status, and the masking helpers
// blank the timing values, the only report bytes that differ between two
// runs over one input.
//
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_TESTS_TOOLS_CLITESTUTIL_H
#define SMARTTRACK_TESTS_TOOLS_CLITESTUTIL_H

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <sys/wait.h>

namespace st {
namespace cli_test {

struct RunResult {
  int ExitCode = -1;
  std::string Output; // stdout + stderr, interleaved
};

/// Runs \p ShellCommand under `sh -c`, capturing stdout and stderr.
inline RunResult runCommand(const std::string &ShellCommand) {
  RunResult Result;
  std::string Wrapped = "{ " + ShellCommand + " ; } 2>&1";
  FILE *Pipe = popen(Wrapped.c_str(), "r");
  EXPECT_NE(Pipe, nullptr) << "popen failed for: " << Wrapped;
  if (!Pipe)
    return Result;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    Result.Output.append(Buf, N);
  int Status = pclose(Pipe);
  Result.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return Result;
}

/// Replaces the value after every \p Key (up to the next ',' or '}')
/// with "_".
inline std::string maskValues(std::string S, const std::string &Key) {
  for (size_t P = S.find(Key); P != std::string::npos; P = S.find(Key, P)) {
    P += Key.size();
    S.replace(P, S.find_first_of(",}", P) - P, "_");
  }
  return S;
}

/// Blanks the values of the timing fields ("seconds", "wall_seconds").
inline std::string maskTimings(const std::string &S) {
  return maskValues(maskValues(S, "\"seconds\":"), "\"wall_seconds\":");
}

} // namespace cli_test
} // namespace st

#endif // SMARTTRACK_TESTS_TOOLS_CLITESTUTIL_H
