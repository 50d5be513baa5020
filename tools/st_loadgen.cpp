//===- tools/st_loadgen.cpp - Open-loop load generator CLI ----------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Drives a live st-serve instance open-loop (src/loadgen) and emits a
// schema-versioned latency report in the st-bench JSON envelope, so the
// same CI gate (tools/ci/bench_compare.py) that guards throughput cells
// validates tail-latency cells.
//
// Open-loop: request instants are drawn up front from a seeded
// exponential schedule targeting --events-per-sec; a slow server makes
// requests late, never fewer, and latency is measured from the
// *scheduled* send instant to stream-SUMMARY receipt (coordinated-
// omission corrected — docs/loadgen.md). late_sends reports how often
// the generator itself missed a send deadline, so an overloaded client
// host degrades visibly instead of silently converting the run into a
// closed-loop one.
//
// Usage:
//   st-loadgen --connect=ADDR [--events-per-sec=R] [--connections=C]
//              [--duration=S] [--seed=K] [--workload=NAME]
//              [--analysis=A,B,..] [--events-per-request=N]
//              [--dist=fixed|uniform|exp] [--out=FILE|-] [--quiet]
//
// Exit status: 0 on a measured run, 1 on usage/config errors or when no
// request completed (nothing was measured).
//
//===----------------------------------------------------------------------===//

#include "loadgen/Loadgen.h"
#include "serve/Socket.h"
#include "support/Json.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace st;

namespace {

struct Options {
  LoadgenOptions Gen;
  const char *Out = "LOADGEN_results.json";
  bool Quiet = false;
};

void printUsage(FILE *To) {
  std::fprintf(
      To,
      "usage: st-loadgen --connect=ADDR [options]\n"
      "\n"
      "Open-loop load generator for st-serve: exponential arrivals at a\n"
      "target event rate, latency percentiles at the race-report\n"
      "boundary, st-bench/v2 JSON out.\n"
      "\n"
      "  --connect=ADDR         unix:PATH | tcp:HOST:PORT | HOST:PORT\n"
      "  --events-per-sec=R     target offered load, events/sec (default\n"
      "                         100000), summed over all connections\n"
      "  --connections=C        concurrent connection workers (default 4)\n"
      "  --duration=S           seconds of offered load (default 5)\n"
      "  --seed=K               top-level determinism seed (default 42):\n"
      "                         same seed => identical per-connection\n"
      "                         event streams and arrival schedules\n"
      "  --workload=NAME        workload profile (default avrora)\n"
      "  --analysis=A,B,..      analyses to request (default: server's)\n"
      "  --events-per-request=N mean events per request (default 2000)\n"
      "  --dist=KIND            per-request event count distribution:\n"
      "                         fixed | uniform | exp (default fixed)\n"
      "  --recv-timeout=S       per-socket receive timeout in seconds,\n"
      "                         0 < S <= %.0f (default 30)\n"
      "  --out=FILE|-           JSON report path (default\n"
      "                         LOADGEN_results.json; - for stdout)\n"
      "  --quiet                no human summary on stderr\n"
      "  --help                 this text\n",
      MaxTimeoutSeconds);
}

bool parseUInt(const char *S, uint64_t &Out) {
  errno = 0;
  char *End = nullptr;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || End == S || *End)
    return false;
  Out = V;
  return true;
}

bool parseDouble(const char *S, double &Out) {
  errno = 0;
  char *End = nullptr;
  double V = std::strtod(S, &End);
  if (errno || End == S || *End)
    return false;
  Out = V;
  return true;
}

void splitList(const char *S, std::vector<std::string> &Out) {
  std::string Cur;
  for (; *S; ++S) {
    if (*S == ',') {
      if (!Cur.empty())
        Out.push_back(Cur);
      Cur.clear();
    } else {
      Cur += *S;
    }
  }
  if (!Cur.empty())
    Out.push_back(Cur);
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  auto Value = [](const char *Arg, const char *Flag) -> const char * {
    size_t N = std::strlen(Flag);
    if (std::strncmp(Arg, Flag, N) == 0 && Arg[N] == '=')
      return Arg + N + 1;
    return nullptr;
  };
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    const char *V;
    uint64_t U;
    if (std::strcmp(Arg, "--help") == 0) {
      printUsage(stdout);
      std::exit(0);
    } else if (std::strcmp(Arg, "--quiet") == 0) {
      Opts.Quiet = true;
    } else if ((V = Value(Arg, "--connect"))) {
      Opts.Gen.Connect = V;
    } else if ((V = Value(Arg, "--events-per-sec"))) {
      if (!parseDouble(V, Opts.Gen.EventsPerSec) ||
          Opts.Gen.EventsPerSec <= 0) {
        std::fprintf(stderr, "error: bad --events-per-sec: %s\n", V);
        return false;
      }
    } else if ((V = Value(Arg, "--connections"))) {
      if (!parseUInt(V, U) || U == 0 || U > 1024) {
        std::fprintf(stderr, "error: bad --connections: %s\n", V);
        return false;
      }
      Opts.Gen.Connections = static_cast<unsigned>(U);
    } else if ((V = Value(Arg, "--duration"))) {
      if (!parseDouble(V, Opts.Gen.DurationSeconds) ||
          Opts.Gen.DurationSeconds <= 0) {
        std::fprintf(stderr, "error: bad --duration: %s\n", V);
        return false;
      }
    } else if ((V = Value(Arg, "--seed"))) {
      if (!parseUInt(V, Opts.Gen.Seed)) {
        std::fprintf(stderr, "error: bad --seed: %s\n", V);
        return false;
      }
    } else if ((V = Value(Arg, "--workload"))) {
      Opts.Gen.Workload = V;
    } else if ((V = Value(Arg, "--analysis"))) {
      splitList(V, Opts.Gen.Analyses);
    } else if ((V = Value(Arg, "--events-per-request"))) {
      if (!parseUInt(V, Opts.Gen.EventsPerRequest) ||
          Opts.Gen.EventsPerRequest == 0) {
        std::fprintf(stderr, "error: bad --events-per-request: %s\n", V);
        return false;
      }
    } else if ((V = Value(Arg, "--dist"))) {
      if (std::strcmp(V, "fixed") == 0)
        Opts.Gen.Dist = EventCountDist::Fixed;
      else if (std::strcmp(V, "uniform") == 0)
        Opts.Gen.Dist = EventCountDist::Uniform;
      else if (std::strcmp(V, "exp") == 0)
        Opts.Gen.Dist = EventCountDist::Exponential;
      else {
        std::fprintf(stderr, "error: bad --dist: %s\n", V);
        return false;
      }
    } else if ((V = Value(Arg, "--recv-timeout"))) {
      // Written so that NaN fails too.
      if (!parseDouble(V, Opts.Gen.RecvTimeoutSeconds) ||
          !(Opts.Gen.RecvTimeoutSeconds > 0 &&
            Opts.Gen.RecvTimeoutSeconds <= MaxTimeoutSeconds)) {
        std::fprintf(stderr, "error: bad --recv-timeout: %s\n", V);
        return false;
      }
    } else if ((V = Value(Arg, "--out"))) {
      Opts.Out = V;
    } else {
      std::fprintf(stderr, "error: unknown argument: %s\n", Arg);
      printUsage(stderr);
      return false;
    }
  }
  if (Opts.Gen.Connect.empty()) {
    std::fprintf(stderr, "error: --connect=ADDR is required\n");
    printUsage(stderr);
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// JSON report (st-bench/v2 envelope, "latency" cells)
//===----------------------------------------------------------------------===//

void jsonHistogram(std::string &Out, const LatencyHistogram &H) {
  Out += "{\"count\": ";
  jsonAppendUInt(Out, H.count());
  Out += ", \"min\": ";
  jsonAppendUInt(Out, H.min());
  Out += ", \"mean\": ";
  jsonAppendNumber(Out, H.mean());
  Out += ", \"p50\": ";
  jsonAppendUInt(Out, H.percentile(0.50));
  Out += ", \"p90\": ";
  jsonAppendUInt(Out, H.percentile(0.90));
  Out += ", \"p99\": ";
  jsonAppendUInt(Out, H.percentile(0.99));
  Out += ", \"p999\": ";
  jsonAppendUInt(Out, H.percentile(0.999));
  Out += ", \"max\": ";
  jsonAppendUInt(Out, H.max());
  Out += "}";
}

std::string analysisLabel(const Options &Opts) {
  if (Opts.Gen.Analyses.empty())
    return "server-default";
  std::string Label;
  for (const std::string &A : Opts.Gen.Analyses) {
    if (!Label.empty())
      Label += '+';
    Label += A;
  }
  return Label;
}

std::string jsonReport(const Options &Opts, const LoadgenReport &R) {
  unsigned Cores = std::thread::hardware_concurrency();
  std::string Out = "{\n";
  Out += "  \"schema\": \"st-bench/v2\",\n  \"schema_version\": 2,\n";
  Out += "  \"suite\": \"loadgen\",\n";
  Out += "  \"config\": {\"connect\": ";
  jsonAppendEscaped(Out, Opts.Gen.Connect);
  Out += ", \"events_per_sec\": ";
  jsonAppendNumber(Out, Opts.Gen.EventsPerSec);
  Out += ", \"connections\": ";
  jsonAppendUInt(Out, Opts.Gen.Connections);
  Out += ", \"duration\": ";
  jsonAppendNumber(Out, Opts.Gen.DurationSeconds);
  Out += ", \"seed\": ";
  jsonAppendUInt(Out, Opts.Gen.Seed);
  Out += ", \"events_per_request\": ";
  jsonAppendUInt(Out, Opts.Gen.EventsPerRequest);
  Out += ", \"dist\": ";
  jsonAppendEscaped(Out, Opts.Gen.Dist == EventCountDist::Fixed ? "fixed"
                         : Opts.Gen.Dist == EventCountDist::Uniform
                             ? "uniform"
                             : "exp");
  // Host provenance: the tail gates in bench_compare.py read this to
  // self-skip on starved runners. The client and server share the host
  // in CI; a cross-host run records the client side, which is the
  // generator's own capability.
  Out += ", \"hardware_concurrency\": ";
  jsonAppendUInt(Out, Cores);
  Out += "},\n  \"results\": [\n";
  Out += "    {\"workload\": ";
  jsonAppendEscaped(Out, Opts.Gen.Workload);
  Out += ", \"analysis\": ";
  jsonAppendEscaped(Out, analysisLabel(Opts));
  Out += ", \"kind\": \"latency\"";
  Out += ",\n     \"connections\": ";
  jsonAppendUInt(Out, Opts.Gen.Connections);
  Out += ", \"requests\": ";
  jsonAppendUInt(Out, R.Requests);
  Out += ", \"completed\": ";
  jsonAppendUInt(Out, R.Completed);
  Out += ", \"errors\": ";
  jsonAppendUInt(Out, R.Errors);
  Out += ", \"late_sends\": ";
  jsonAppendUInt(Out, R.LateSends);
  Out += ",\n     \"events\": ";
  jsonAppendUInt(Out, R.EventsSent);
  Out += ", \"events_completed\": ";
  jsonAppendUInt(Out, R.EventsCompleted);
  Out += ", \"bytes_sent\": ";
  jsonAppendUInt(Out, R.BytesSent);
  Out += ", \"dynamic_races\": ";
  jsonAppendUInt(Out, R.Races);
  Out += ",\n     \"offered_events_per_sec\": ";
  jsonAppendNumber(Out, R.OfferedEventsPerSec);
  Out += ", \"achieved_events_per_sec\": ";
  jsonAppendNumber(Out, R.AchievedEventsPerSec);
  Out += ", \"events_per_sec_per_core\": ";
  jsonAppendNumber(Out, Cores ? R.AchievedEventsPerSec / Cores
                        : R.AchievedEventsPerSec);
  Out += ",\n     \"hardware_concurrency\": ";
  jsonAppendUInt(Out, Cores);
  Out += ", \"duration_seconds\": ";
  jsonAppendNumber(Out, Opts.Gen.DurationSeconds);
  Out += ", \"wall_seconds\": ";
  jsonAppendNumber(Out, R.WallSeconds);
  Out += ",\n     \"latency_ns\": ";
  jsonHistogram(Out, R.Latency);
  if (R.Service.count()) {
    Out += ",\n     \"service_ns\": ";
    jsonHistogram(Out, R.Service);
  }
  Out += "}\n  ]\n}\n";
  return Out;
}

void printSummary(const Options &Opts, const LoadgenReport &R) {
  std::fprintf(
      stderr,
      "st-loadgen: %llu requests (%llu completed, %llu errors, "
      "%llu late) over %.2fs\n",
      static_cast<unsigned long long>(R.Requests),
      static_cast<unsigned long long>(R.Completed),
      static_cast<unsigned long long>(R.Errors),
      static_cast<unsigned long long>(R.LateSends), R.WallSeconds);
  std::fprintf(
      stderr,
      "st-loadgen: offered %.0f events/s, achieved %.0f events/s "
      "(%llu races seen)\n",
      R.OfferedEventsPerSec, R.AchievedEventsPerSec,
      static_cast<unsigned long long>(R.Races));
  if (R.Latency.count())
    std::fprintf(stderr,
                 "st-loadgen: latency p50 %.3f ms, p99 %.3f ms, "
                 "p999 %.3f ms, max %.3f ms\n",
                 R.Latency.percentile(0.50) / 1e6,
                 R.Latency.percentile(0.99) / 1e6,
                 R.Latency.percentile(0.999) / 1e6,
                 R.Latency.max() / 1e6);
  if (R.Service.count())
    std::fprintf(stderr,
                 "st-loadgen: service p50 %.3f ms, p99 %.3f ms\n",
                 R.Service.percentile(0.50) / 1e6,
                 R.Service.percentile(0.99) / 1e6);
  (void)Opts;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 1;

  LoadgenReport Report;
  std::string Err;
  if (!runLoadgen(Opts.Gen, Report, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }

  std::string Json = jsonReport(Opts, Report);
  if (std::strcmp(Opts.Out, "-") == 0) {
    size_t Written = std::fwrite(Json.data(), 1, Json.size(), stdout);
    if (std::fflush(stdout) != 0 || std::ferror(stdout) ||
        Written != Json.size()) {
      std::fprintf(stderr, "error: writing - failed\n");
      return 1;
    }
  } else {
    FILE *F = std::fopen(Opts.Out, "wb");
    if (!F) {
      std::fprintf(stderr, "error: cannot write %s\n", Opts.Out);
      return 1;
    }
    size_t Written = std::fwrite(Json.data(), 1, Json.size(), F);
    if (std::fclose(F) != 0 || Written != Json.size()) {
      std::fprintf(stderr, "error: writing %s failed\n", Opts.Out);
      return 1;
    }
    if (!Opts.Quiet)
      std::fprintf(stderr, "st-loadgen: wrote %s\n", Opts.Out);
  }
  if (!Opts.Quiet)
    printSummary(Opts, Report);

  // A run where nothing completed measured nothing: fail loudly so CI
  // cannot mistake a dead server for a fast one.
  if (Report.Completed == 0) {
    std::fprintf(stderr, "error: no request completed\n");
    return 1;
  }
  return 0;
}
