//===- tools/st_bench.cpp - Declarative benchmark suite driver ------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Runs a declarative benchmark suite — synthetic DaCapo-shaped workloads
// (src/workload) crossed with the analysis ladder (AnalysisRegistry) — on
// top of the report-layer Session facade, and emits a stable,
// schema-versioned JSON report (BENCH_results.json) plus a human-readable
// table.
//
// Methodology: every (workload, analysis) cell streams the seeded workload
// generator through ONE analysis per Session run, so per-analysis
// time excludes event generation and co-running analyses. Each cell runs
// --warmup unmeasured trials then --repeats measured trials; the median is
// reported. The uninstrumented baseline (a pure stream drain) is measured
// per workload, giving per-analysis slowdown factors; per-analysis cost
// relative to the FT2 reference is also reported because that ratio is
// stable across machines, which is what the CI regression gate
// (tools/ci/bench_compare.py) compares against bench/baseline.json.
//
// Usage:
//   st-bench [--suite=smoke|ci|full] [--workloads=a,b,..] [--analyses=..]
//            [--events=N] [--warmup=N] [--repeats=N] [--batch=N] [--seed=N]
//            [--out=FILE|-] [--quiet] [--list]
//
// Exit status: 0 on success, 1 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "report/Session.h"
#include "support/Json.h"
#include "workload/Workload.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace st;

namespace {

/// The shape of one predefined suite. Workload/analysis lists are indexes
/// into the registry and profile tables, so suite declarations stay data.
struct SuiteSpec {
  const char *Name;
  const char *Description;
  std::vector<std::string> Workloads;
  std::vector<AnalysisKind> Analyses;
  uint64_t Events;
  unsigned Warmup;
  unsigned Repeats;
};

/// The ladder every suite measures by default: the FT2 reference plus the
/// epoch-optimized and SmartTrack configurations of each relation. Unopt
/// configurations are excluded from the small suites (their O(T) clocks
/// dominate run time without informing the hot-path trajectory).
std::vector<AnalysisKind> ladderAnalyses() {
  return {AnalysisKind::FT2,    AnalysisKind::FTOHB,
          AnalysisKind::FTOWCP, AnalysisKind::STWCP,
          AnalysisKind::FTODC,  AnalysisKind::STDC,
          AnalysisKind::FTOWDC, AnalysisKind::STWDC};
}

const std::vector<SuiteSpec> &suites() {
  static const std::vector<SuiteSpec> Suites = [] {
    std::vector<SuiteSpec> S;
    // Diverse thread counts: jython=2, avrora=7, tomcat=37 straddle the
    // VectorClock inline-storage boundary from both sides.
    std::vector<std::string> SmallSet = {"avrora", "jython", "tomcat"};
    S.push_back({"smoke",
                 "CTest-sized: 3 workloads x 8 analyses, 20k events, 1 trial",
                 SmallSet,
                 ladderAnalyses(),
                 20000,
                 0,
                 1});
    // The ci suite covers every main-table analysis (Tables 4-6's 11
    // configurations), so the regression gate sees the full WCP/DC/WDC
    // grid including the Unopt tiers and the WDC column. Relative costs
    // are quoted against the in-run Unopt-HB cell (the grid's first row;
    // FT2 is not a main-table configuration).
    S.push_back({"ci",
                 "CI regression gate: 3 workloads x 11 main-table analyses,"
                 " 200k events, median of 3",
                 SmallSet,
                 mainTableAnalysisKinds(),
                 200000,
                 1,
                 3});
    std::vector<std::string> All;
    for (const WorkloadProfile &P : dacapoProfiles())
      All.push_back(P.Name);
    std::vector<AnalysisKind> Full = ladderAnalyses();
    Full.push_back(AnalysisKind::UnoptHB);
    Full.push_back(AnalysisKind::UnoptWCP);
    Full.push_back(AnalysisKind::UnoptDC);
    Full.push_back(AnalysisKind::UnoptWDC);
    S.push_back({"full",
                 "all 10 workloads x 12 analyses, 500k events, median of 5",
                 All,
                 Full,
                 500000,
                 1,
                 5});
    return S;
  }();
  return Suites;
}

struct Options {
  const SuiteSpec *Suite = nullptr;
  std::vector<std::string> Workloads; // overrides suite when non-empty
  std::vector<AnalysisKind> Analyses; // overrides suite when non-empty
  uint64_t Events = 0;                // 0 = suite default
  unsigned Warmup = UINT_MAX;         // UINT_MAX = suite default
  unsigned Repeats = UINT_MAX;
  size_t BatchSize = 1 << 14;
  uint64_t Seed = 42;
  const char *OutPath = "BENCH_results.json";
  bool Quiet = false;
  ValidationMode Validation = ValidationMode::Off;
};

void printUsage(FILE *Out, const char *Prog) {
  std::fprintf(
      Out,
      "usage: %s [options]\n"
      "\n"
      "Runs a declarative benchmark suite (synthetic DaCapo-shaped\n"
      "workloads x the analysis ladder) through the streaming engine and\n"
      "writes a schema-versioned JSON report plus a human table.\n"
      "\n"
      "options:\n"
      "  --suite=NAME     predefined suite: smoke, ci (default), full\n"
      "  --workloads=a,b  workload profile names (see --list)\n"
      "  --analyses=a,b   analysis names (see --list); default: the ladder\n"
      "  --events=N       events per workload (default: suite's)\n"
      "  --warmup=N       unmeasured trials per cell (default: suite's)\n"
      "  --repeats=N      measured trials per cell, median reported\n"
      "  --batch=N        events per engine batch (default 16384)\n"
      "  --seed=N         workload generator seed (default 42)\n"
      "  --validate=MODE  Session lint pass: off (default), warn, or\n"
      "                   strict; lint runs in the source wrapper, so\n"
      "                   per-cell analysis times are comparable either\n"
      "                   way (the CI gate runs warn)\n"
      "  --out=FILE       JSON output path, '-' for stdout\n"
      "                   (default BENCH_results.json)\n"
      "  --quiet          suppress the human-readable table\n"
      "  --list           list suites, workloads, and analyses; exit\n"
      "  -h, --help       show this message\n",
      Prog);
}

void printList() {
  std::printf("suites:\n");
  for (const SuiteSpec &S : suites())
    std::printf("  %-6s %s\n", S.Name, S.Description);
  std::printf("workloads (src/workload profiles, Table 2 shapes):\n");
  for (const WorkloadProfile &P : dacapoProfiles())
    std::printf("  %-9s %2u threads, %5.1f%% NSEAs\n", P.Name, P.Threads,
                P.NseaFraction * 100);
  std::printf("analyses (Table 1 registry order):\n");
  for (AnalysisKind K : allAnalysisKinds())
    std::printf("  %s\n", analysisKindName(K));
}

bool parseCount(const char *Value, const char *Flag, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long N = std::strtoull(Value, &End, 10);
  if (End == Value || *End != '\0' || *Value == '-' || errno == ERANGE) {
    std::fprintf(stderr, "error: bad %s value '%s'\n", Flag, Value);
    return false;
  }
  Out = N;
  return true;
}

std::vector<std::string> splitCommas(const char *S) {
  std::vector<std::string> Out;
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
  return Out;
}

const SuiteSpec *findSuite(const char *Name) {
  for (const SuiteSpec &S : suites())
    if (std::strcmp(S.Name, Name) == 0)
      return &S;
  return nullptr;
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    uint64_t N = 0;
    if (std::strncmp(Arg, "--suite=", 8) == 0) {
      Opts.Suite = findSuite(Arg + 8);
      if (!Opts.Suite) {
        std::fprintf(stderr, "error: unknown suite '%s' (try --list)\n",
                     Arg + 8);
        return false;
      }
    } else if (std::strncmp(Arg, "--workloads=", 12) == 0) {
      for (const std::string &W : splitCommas(Arg + 12)) {
        if (!findProfile(W.c_str())) {
          std::fprintf(stderr, "error: unknown workload '%s' (try --list)\n",
                       W.c_str());
          return false;
        }
        Opts.Workloads.push_back(W);
      }
    } else if (std::strncmp(Arg, "--analyses=", 11) == 0) {
      for (const std::string &A : splitCommas(Arg + 11)) {
        AnalysisKind K;
        if (!findAnalysisKind(A.c_str(), K)) {
          std::fprintf(stderr, "error: unknown analysis '%s' (try --list)\n",
                       A.c_str());
          return false;
        }
        Opts.Analyses.push_back(K);
      }
    } else if (std::strncmp(Arg, "--events=", 9) == 0) {
      if (!parseCount(Arg + 9, "--events", Opts.Events))
        return false;
    } else if (std::strncmp(Arg, "--warmup=", 9) == 0) {
      if (!parseCount(Arg + 9, "--warmup", N))
        return false;
      Opts.Warmup = static_cast<unsigned>(N);
    } else if (std::strncmp(Arg, "--repeats=", 10) == 0) {
      if (!parseCount(Arg + 10, "--repeats", N))
        return false;
      if (N == 0) {
        std::fprintf(stderr, "error: --repeats must be >= 1\n");
        return false;
      }
      Opts.Repeats = static_cast<unsigned>(N);
    } else if (std::strncmp(Arg, "--batch=", 8) == 0) {
      if (!parseCount(Arg + 8, "--batch", N))
        return false;
      Opts.BatchSize = N ? static_cast<size_t>(N) : 1;
    } else if (std::strncmp(Arg, "--seed=", 7) == 0) {
      if (!parseCount(Arg + 7, "--seed", Opts.Seed))
        return false;
    } else if (std::strncmp(Arg, "--validate=", 11) == 0) {
      const char *V = Arg + 11;
      if (std::strcmp(V, "off") == 0) {
        Opts.Validation = ValidationMode::Off;
      } else if (std::strcmp(V, "warn") == 0) {
        Opts.Validation = ValidationMode::Warn;
      } else if (std::strcmp(V, "strict") == 0) {
        Opts.Validation = ValidationMode::Strict;
      } else {
        std::fprintf(stderr,
                     "error: bad --validate '%s' (expected off, warn, or "
                     "strict)\n",
                     V);
        return false;
      }
    } else if (std::strncmp(Arg, "--out=", 6) == 0) {
      Opts.OutPath = Arg + 6;
    } else if (std::strcmp(Arg, "--quiet") == 0) {
      Opts.Quiet = true;
    } else if (std::strcmp(Arg, "--list") == 0) {
      printList();
      std::exit(0);
    } else if (std::strcmp(Arg, "-h") == 0 ||
               std::strcmp(Arg, "--help") == 0) {
      printUsage(stdout, Argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg);
      printUsage(stderr, Argv[0]);
      return false;
    }
  }
  if (!Opts.Suite)
    Opts.Suite = findSuite("ci");
  if (Opts.Workloads.empty())
    Opts.Workloads = Opts.Suite->Workloads;
  if (Opts.Analyses.empty())
    Opts.Analyses = Opts.Suite->Analyses;
  if (Opts.Events == 0)
    Opts.Events = Opts.Suite->Events;
  if (Opts.Warmup == UINT_MAX)
    Opts.Warmup = Opts.Suite->Warmup;
  if (Opts.Repeats == UINT_MAX)
    Opts.Repeats = Opts.Suite->Repeats;
  return true;
}

//===----------------------------------------------------------------------===//
// Measurement
//===----------------------------------------------------------------------===//

/// One measured (workload, analysis) cell.
struct CellResult {
  std::string Workload;
  AnalysisKind Kind;
  uint64_t Events = 0;
  std::vector<double> Seconds; // all measured trials, run order
  double MedianSeconds = 0;
  size_t PeakFootprintBytes = 0;
  size_t FinalFootprintBytes = 0;
  uint64_t DynamicRaces = 0;
  unsigned StaticRaces = 0;

  double nsPerEvent() const {
    return Events ? MedianSeconds * 1e9 / static_cast<double>(Events) : 0;
  }
  double eventsPerSec() const {
    return MedianSeconds > 0 ? static_cast<double>(Events) / MedianSeconds
                             : 0;
  }
};

/// Everything one workload contributes to the report.
struct WorkloadResult {
  const WorkloadProfile *Profile = nullptr;
  uint64_t Events = 0;
  double DrainSeconds = 0; // uninstrumented baseline (median)
  std::vector<CellResult> Cells;
};

double median(std::vector<double> Xs) {
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  if (N == 0)
    return 0;
  return N % 2 ? Xs[N / 2] : (Xs[N / 2 - 1] + Xs[N / 2]) / 2;
}

/// Streams the workload through \p S once (rebuilding the generator so
/// every trial sees the identical event stream).
RunReport streamOnce(const WorkloadProfile &P, const Options &Opts,
                     Session &S) {
  WorkloadGenerator Gen(P, Opts.Events, Opts.Seed);
  GeneratorEventSource Src(Gen);
  return S.run(Src);
}

/// Median uninstrumented drain (event generation + engine batching alone),
/// warmed up like every analysis cell so the slowdown denominator does not
/// carry cold-start cost the cells already shed. A Session with zero
/// analyses is exactly that drain.
double measureDrain(const WorkloadProfile &P, const Options &Opts) {
  std::vector<double> Trials;
  for (unsigned T = 0; T != Opts.Warmup + std::max(Opts.Repeats, 1u); ++T) {
    SessionOptions SO;
    SO.BatchSize = Opts.BatchSize;
    SO.Validation = Opts.Validation;
    Session S(SO);
    RunReport Rep = streamOnce(P, Opts, S);
    if (T >= Opts.Warmup)
      Trials.push_back(Rep.WallSeconds);
  }
  return median(std::move(Trials));
}

CellResult measureCell(const WorkloadProfile &P, AnalysisKind Kind,
                       const Options &Opts) {
  CellResult Cell;
  Cell.Workload = P.Name;
  Cell.Kind = Kind;
  for (unsigned T = 0; T != Opts.Warmup + Opts.Repeats; ++T) {
    SessionOptions SO;
    SO.BatchSize = Opts.BatchSize;
    SO.SampleFootprint = true;
    SO.MaxStoredRaces = 64;
    SO.Validation = Opts.Validation;
    Session S(SO);
    S.add(Kind);
    RunReport Rep = streamOnce(P, Opts, S);
    Cell.Events = Rep.Stream.Events;
    if (T < Opts.Warmup)
      continue;
    const AnalysisRunResult &A = Rep.Analyses.front();
    Cell.Seconds.push_back(A.Seconds);
    Cell.PeakFootprintBytes =
        std::max(Cell.PeakFootprintBytes, A.PeakFootprintBytes);
    Cell.FinalFootprintBytes = A.FinalFootprintBytes;
    Cell.DynamicRaces = A.DynamicRaces;
    Cell.StaticRaces = A.StaticRaces;
  }
  Cell.MedianSeconds = median(Cell.Seconds);
  return Cell;
}

//===----------------------------------------------------------------------===//
// JSON report
//===----------------------------------------------------------------------===//

// Schema: bump on any breaking change to the JSON layout; the CI compare
// gate refuses to diff across schema versions.
constexpr unsigned SchemaVersion = 2;

std::string jsonReport(const Options &Opts,
                       const std::vector<WorkloadResult> &Workloads,
                       const char *ReferenceName) {
  std::string Out = "{\n";
  Out += "  \"schema\": \"st-bench/v2\",\n  \"schema_version\": ";
  jsonAppendUInt(Out, SchemaVersion);
  Out += ",\n  \"suite\": ";
  jsonAppendEscaped(Out, Opts.Suite->Name);
  Out += ",\n  \"config\": {\"events\": ";
  jsonAppendUInt(Out, Opts.Events);
  Out += ", \"warmup\": ";
  jsonAppendUInt(Out, Opts.Warmup);
  Out += ", \"repeats\": ";
  jsonAppendUInt(Out, Opts.Repeats);
  Out += ", \"batch\": ";
  jsonAppendUInt(Out, Opts.BatchSize);
  Out += ", \"seed\": ";
  jsonAppendUInt(Out, Opts.Seed);
  // Host provenance: comparison tooling can tell a starved machine from
  // a real regression.
  Out += ", \"hardware_concurrency\": ";
  jsonAppendUInt(Out, std::thread::hardware_concurrency());
  Out += ", \"reference\": ";
  jsonAppendEscaped(Out, ReferenceName ? ReferenceName : "");
  Out += "},\n  \"workloads\": [\n";
  for (size_t W = 0; W != Workloads.size(); ++W) {
    const WorkloadResult &WR = Workloads[W];
    Out += "    {\"name\": ";
    jsonAppendEscaped(Out, WR.Profile->Name);
    Out += ", \"threads\": ";
    jsonAppendUInt(Out, WR.Profile->Threads);
    Out += ", \"events\": ";
    jsonAppendUInt(Out, WR.Events);
    Out += ", \"drain_seconds\": ";
    jsonAppendNumber(Out, WR.DrainSeconds);
    Out += W + 1 != Workloads.size() ? "},\n" : "}\n";
  }
  Out += "  ],\n  \"results\": [\n";
  size_t Total = 0, Emitted = 0;
  for (const WorkloadResult &WR : Workloads)
    Total += WR.Cells.size();
  for (const WorkloadResult &WR : Workloads) {
    // The reference cell for relative costs lives in the same workload,
    // keeping the ratio free of cross-workload generation differences.
    const CellResult *Ref = nullptr;
    for (const CellResult &C : WR.Cells)
      if (ReferenceName &&
          std::strcmp(analysisKindName(C.Kind), ReferenceName) == 0)
        Ref = &C;
    for (const CellResult &C : WR.Cells) {
      Out += "    {\"workload\": ";
      jsonAppendEscaped(Out, C.Workload);
      Out += ", \"analysis\": ";
      jsonAppendEscaped(Out, analysisKindName(C.Kind));
      Out += ", \"events\": ";
      jsonAppendUInt(Out, C.Events);
      // Per-cell copy of the host's core count: comparison tooling reads
      // cells in isolation, and a cell's numbers are only meaningful
      // against the hardware they ran on.
      Out += ", \"hardware_concurrency\": ";
      jsonAppendUInt(Out, std::thread::hardware_concurrency());
      Out += ",\n     \"seconds\": [";
      for (size_t I = 0; I != C.Seconds.size(); ++I) {
        if (I)
          Out += ", ";
        jsonAppendNumber(Out, C.Seconds[I]);
      }
      Out += "], \"seconds_median\": ";
      jsonAppendNumber(Out, C.MedianSeconds);
      Out += ",\n     \"ns_per_event\": ";
      jsonAppendNumber(Out, C.nsPerEvent());
      Out += ", \"events_per_sec\": ";
      jsonAppendNumber(Out, C.eventsPerSec());
      if (Ref && Ref->MedianSeconds > 0) {
        Out += ", \"relative_cost\": ";
        jsonAppendNumber(Out, C.MedianSeconds / Ref->MedianSeconds);
      }
      if (WR.DrainSeconds > 0) {
        Out += ", \"slowdown_vs_drain\": ";
        jsonAppendNumber(Out, (WR.DrainSeconds + C.MedianSeconds) /
                                  WR.DrainSeconds);
      }
      Out += ",\n     \"peak_footprint_bytes\": ";
      jsonAppendUInt(Out, C.PeakFootprintBytes);
      Out += ", \"final_footprint_bytes\": ";
      jsonAppendUInt(Out, C.FinalFootprintBytes);
      Out += ", \"dynamic_races\": ";
      jsonAppendUInt(Out, C.DynamicRaces);
      Out += ", \"static_races\": ";
      jsonAppendUInt(Out, C.StaticRaces);
      Out += ++Emitted != Total ? "},\n" : "}\n";
    }
  }
  Out += "  ]\n}\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Human table
//===----------------------------------------------------------------------===//

void printTable(const std::vector<WorkloadResult> &Workloads,
                const char *ReferenceName) {
  for (const WorkloadResult &WR : Workloads) {
    std::printf("%s (%u threads, %llu events, drain %.1f ms)\n",
                WR.Profile->Name, WR.Profile->Threads,
                static_cast<unsigned long long>(WR.Events),
                WR.DrainSeconds * 1e3);
    std::printf("  %-9s %12s %14s %9s %10s %7s\n", "analysis", "ns/event",
                "events/sec", "vs-ref", "peak-KiB", "races");
    const CellResult *Ref = nullptr;
    for (const CellResult &C : WR.Cells)
      if (ReferenceName &&
          std::strcmp(analysisKindName(C.Kind), ReferenceName) == 0)
        Ref = &C;
    for (const CellResult &C : WR.Cells) {
      char RefBuf[16] = "-";
      if (Ref && Ref->MedianSeconds > 0)
        std::snprintf(RefBuf, sizeof(RefBuf), "%.2fx",
                      C.MedianSeconds / Ref->MedianSeconds);
      std::printf("  %-9s %12.1f %14.0f %9s %10.0f %7llu\n",
                  analysisKindName(C.Kind), C.nsPerEvent(), C.eventsPerSec(),
                  RefBuf, static_cast<double>(C.PeakFootprintBytes) / 1024,
                  static_cast<unsigned long long>(C.DynamicRaces));
    }
  }
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 1;

  // Relative costs are reported against FT2 when the selection includes
  // it (the paper's own baseline); otherwise against the first analysis.
  const char *ReferenceName = nullptr;
  for (AnalysisKind K : Opts.Analyses)
    if (K == AnalysisKind::FT2)
      ReferenceName = analysisKindName(K);
  if (!ReferenceName && !Opts.Analyses.empty())
    ReferenceName = analysisKindName(Opts.Analyses.front());

  std::vector<WorkloadResult> Workloads;
  for (const std::string &Name : Opts.Workloads) {
    const WorkloadProfile *P = findProfile(Name.c_str());
    if (!P) {
      std::fprintf(stderr, "error: unknown workload '%s'\n", Name.c_str());
      return 1;
    }
    WorkloadResult WR;
    WR.Profile = P;
    WR.DrainSeconds = measureDrain(*P, Opts);
    for (AnalysisKind K : Opts.Analyses) {
      if (!Opts.Quiet) {
        std::fprintf(stderr, "bench: %s / %s...\n", P->Name,
                     analysisKindName(K));
      }
      CellResult Cell = measureCell(*P, K, Opts);
      WR.Events = Cell.Events;
      WR.Cells.push_back(std::move(Cell));
    }
    Workloads.push_back(std::move(WR));
  }

  std::string Report = jsonReport(Opts, Workloads, ReferenceName);
  if (std::strcmp(Opts.OutPath, "-") == 0) {
    std::fwrite(Report.data(), 1, Report.size(), stdout);
  } else {
    FILE *Out = std::fopen(Opts.OutPath, "wb");
    if (!Out) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   Opts.OutPath);
      return 1;
    }
    size_t Written = std::fwrite(Report.data(), 1, Report.size(), Out);
    if (std::fclose(Out) != 0 || Written != Report.size()) {
      std::fprintf(stderr, "error: writing %s failed\n", Opts.OutPath);
      return 1;
    }
    if (!Opts.Quiet)
      std::fprintf(stderr, "bench: wrote %s\n", Opts.OutPath);
  }
  if (!Opts.Quiet)
    printTable(Workloads, ReferenceName);
  return 0;
}
