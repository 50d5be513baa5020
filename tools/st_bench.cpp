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
// view of the same cells.
//
// Methodology: every (workload, analysis) cell streams the seeded workload
// generator through ONE analysis per Session run, so per-analysis
// time excludes event generation and co-running analyses. Each cell runs
// --warmup unmeasured trials then --repeats measured trials; the median is
// reported. The uninstrumented baseline (a pure stream drain) is measured
// per workload, giving per-analysis slowdown factors; per-analysis cost
// relative to the FT2 reference is also reported because that ratio is
// stable across machines, which is what the CI regression gate
// (tools/ci/bench_compare.py) compares against tools/ci/baseline.json.
//
// Suites differ only in their workloads, analyses, sizes, and view: the
// smoke/ci/full suites print one table per workload, the paper suite
// prints the paper's Tables 2-7 and 12 from its cells, and the
// ablation-ccs suite prints the CCS held-fraction sweep.
//
// Usage:
//   st-bench [--suite=smoke|ci|full|paper|ablation-ccs] [--workloads=a,b,..]
//            [--analyses=..] [--events=N] [--warmup=N] [--repeats=N]
//            [--batch=N] [--seed=N] [--out=FILE|-] [--quiet] [--list]
//
// Exit status: 0 on success, 1 on usage errors.
//
//===----------------------------------------------------------------------===//

#include "report/Session.h"
#include "support/Json.h"
#include "support/Stats.h"
#include "support/Table.h"
#include "workload/Characteristics.h"
#include "workload/Workload.h"

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace st;

namespace {

struct SuiteSpec;

struct Options {
  const SuiteSpec *Suite = nullptr;
  std::vector<const WorkloadProfile *> Workloads;
  std::vector<AnalysisKind> Analyses;
  uint64_t Events = 0; // 0 = each workload's paper size (paperEvents)
  unsigned Warmup = 0;
  unsigned Repeats = 1;
  size_t BatchSize = 1 << 14;
  uint64_t Seed = 42;
  const char *OutPath = "BENCH_results.json";
  bool Quiet = false;
  ValidationMode Validation = ValidationMode::Off;
};

/// A workload's Table 2 event count scaled by 1/4000 and clamped to
/// [100k, 20M]: the paper suite's per-workload size.
uint64_t paperEvents(const WorkloadProfile &P) {
  return std::clamp<uint64_t>(P.PaperTotalEvents / 4000, 100000, 20000000);
}

/// The generator's target size for \p P under \p Opts.
uint64_t eventsFor(const Options &Opts, const WorkloadProfile &P) {
  return Opts.Events ? Opts.Events : paperEvents(P);
}

/// One measured (workload, analysis) cell.
struct CellResult {
  AnalysisKind Kind;
  uint64_t Events = 0;
  std::vector<double> Seconds;   // all measured trials, run order
  std::vector<size_t> PeakBytes; // peak footprint per measured trial
  double MedianSeconds = 0;
  size_t FinalFootprintBytes = 0;
  uint64_t DynamicRaces = 0;
  unsigned StaticRaces = 0;
  std::optional<CaseStats> Cases; // Table 12, for analyses that track it

  size_t peakFootprintBytes() const {
    return PeakBytes.empty() ? 0
                             : *std::max_element(PeakBytes.begin(),
                                                 PeakBytes.end());
  }
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

  const CellResult *cell(AnalysisKind K) const {
    for (const CellResult &C : Cells)
      if (C.Kind == K)
        return &C;
    return nullptr;
  }
  /// Run time relative to the uninstrumented drain for an analysis that
  /// took \p Seconds (the JSON's slowdown_vs_drain).
  double slowdown(double Seconds) const {
    return DrainSeconds > 0 ? (DrainSeconds + Seconds) / DrainSeconds : 0;
  }
};

using ViewFn = void (*)(const Options &, const std::vector<WorkloadResult> &);

/// The shape of one predefined suite: its own workload profiles, the
/// analyses it crosses them with, its default sizes, and the human view
/// it prints.
struct SuiteSpec {
  const char *Name;
  const char *Description;
  std::vector<WorkloadProfile> Workloads;
  std::vector<AnalysisKind> Analyses;
  uint64_t Events; // 0 = each workload's paper size
  unsigned Warmup;
  unsigned Repeats;
  ViewFn View;
};

//===----------------------------------------------------------------------===//
// Measurement
//===----------------------------------------------------------------------===//

/// Streams the workload through \p S once (rebuilding the generator so
/// every trial sees the identical event stream).
RunReport streamOnce(const WorkloadProfile &P, const Options &Opts,
                     Session &S) {
  WorkloadGenerator Gen(P, eventsFor(Opts, P), Opts.Seed);
  GeneratorEventSource Src(Gen);
  return S.run(Src);
}

/// Median uninstrumented drain (event generation + engine batching alone),
/// warmed up like every analysis cell so the slowdown denominator does not
/// carry cold-start cost the cells already shed. A Session with zero
/// analyses is exactly that drain.
double measureDrain(const WorkloadProfile &P, const Options &Opts) {
  std::vector<double> Trials;
  for (uint64_t T = 0; T != uint64_t{Opts.Warmup} + Opts.Repeats; ++T) {
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
  Cell.Kind = Kind;
  for (uint64_t T = 0; T != uint64_t{Opts.Warmup} + Opts.Repeats; ++T) {
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
    Cell.PeakBytes.push_back(A.PeakFootprintBytes);
    Cell.FinalFootprintBytes = A.FinalFootprintBytes;
    Cell.DynamicRaces = A.DynamicRaces;
    Cell.StaticRaces = A.StaticRaces;
    if (A.HasCaseStats)
      Cell.Cases = A.Cases;
  }
  Cell.MedianSeconds = median(Cell.Seconds);
  return Cell;
}

/// Relative costs are reported against FT2 when the selection includes
/// it (the paper's own baseline); otherwise against the first analysis.
std::optional<AnalysisKind>
referenceKind(const std::vector<AnalysisKind> &Analyses) {
  if (std::find(Analyses.begin(), Analyses.end(), AnalysisKind::FT2) !=
      Analyses.end())
    return AnalysisKind::FT2;
  if (Analyses.empty())
    return std::nullopt;
  return Analyses.front();
}

//===----------------------------------------------------------------------===//
// JSON report
//===----------------------------------------------------------------------===//

// Schema: bump on any breaking change to the JSON layout; the CI compare
// gate refuses to diff across schema versions.
constexpr unsigned SchemaVersion = 2;

std::string jsonReport(const Options &Opts,
                       const std::vector<WorkloadResult> &Workloads) {
  std::optional<AnalysisKind> Ref = referenceKind(Opts.Analyses);
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
  jsonAppendEscaped(Out, Ref ? analysisKindName(*Ref) : "");
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
    const CellResult *RefCell = Ref ? WR.cell(*Ref) : nullptr;
    for (const CellResult &C : WR.Cells) {
      Out += "    {\"workload\": ";
      jsonAppendEscaped(Out, WR.Profile->Name);
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
      if (RefCell && RefCell->MedianSeconds > 0) {
        Out += ", \"relative_cost\": ";
        jsonAppendNumber(Out, C.MedianSeconds / RefCell->MedianSeconds);
      }
      if (WR.DrainSeconds > 0) {
        Out += ", \"slowdown_vs_drain\": ";
        jsonAppendNumber(Out, WR.slowdown(C.MedianSeconds));
      }
      Out += ",\n     \"peak_footprint_bytes\": ";
      jsonAppendUInt(Out, C.peakFootprintBytes());
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
// Views
//===----------------------------------------------------------------------===//

/// The smoke/ci/full view: one table per workload.
void printCellTables(const Options &Opts,
                     const std::vector<WorkloadResult> &Workloads) {
  std::optional<AnalysisKind> Ref = referenceKind(Opts.Analyses);
  for (const WorkloadResult &WR : Workloads) {
    std::printf("%s (%u threads, %llu events, drain %.1f ms)\n",
                WR.Profile->Name, WR.Profile->Threads,
                static_cast<unsigned long long>(WR.Events),
                WR.DrainSeconds * 1e3);
    std::printf("  %-9s %12s %14s %9s %10s %7s\n", "analysis", "ns/event",
                "events/sec", "vs-ref", "peak-KiB", "races");
    const CellResult *RefCell = Ref ? WR.cell(*Ref) : nullptr;
    for (const CellResult &C : WR.Cells) {
      char RefBuf[16] = "-";
      if (RefCell && RefCell->MedianSeconds > 0)
        std::snprintf(RefBuf, sizeof(RefBuf), "%.2fx",
                      C.MedianSeconds / RefCell->MedianSeconds);
      std::printf("  %-9s %12.1f %14.0f %9s %10.0f %7llu\n",
                  analysisKindName(C.Kind), C.nsPerEvent(), C.eventsPerSec(),
                  RefBuf, static_cast<double>(C.peakFootprintBytes()) / 1024,
                  static_cast<unsigned long long>(C.DynamicRaces));
    }
  }
}

/// A paper-table value with the half-width of its 95% confidence
/// interval over the measured trials (0 with fewer than two).
struct Factor {
  double Value = 0;
  double Ci = 0;
};

/// Run time relative to the uninstrumented drain.
Factor slowdownFactor(const WorkloadResult &WR, const CellResult &C) {
  std::vector<double> Trials;
  for (double S : C.Seconds)
    Trials.push_back(WR.slowdown(S));
  return {WR.slowdown(C.MedianSeconds), ciHalfWidth95(Trials)};
}

/// Memory relative to a fixed 1 MiB uninstrumented-footprint proxy: the
/// workload generator streams, so there is no program heap to compare to.
Factor memoryFactor(const WorkloadResult &, const CellResult &C) {
  auto Factor1MiB = [](size_t Bytes) {
    return 1.0 + static_cast<double>(Bytes) / (1 << 20);
  };
  std::vector<double> Trials;
  for (size_t B : C.PeakBytes)
    Trials.push_back(Factor1MiB(B));
  return {Factor1MiB(C.peakFootprintBytes()), ciHalfWidth95(Trials)};
}

using FactorFn = Factor (*)(const WorkloadResult &, const CellResult &);

std::string factorText(const WorkloadResult &WR, AnalysisKind K,
                       FactorFn Fn) {
  const CellResult *C = WR.cell(K);
  if (!C)
    return "-";
  Factor F = Fn(WR, *C);
  return formatFactor(F.Value, F.Ci);
}

/// Geometric mean of \p Fn over every workload that measured \p K.
std::string geomeanText(const std::vector<WorkloadResult> &Workloads,
                        AnalysisKind K, FactorFn Fn) {
  std::vector<double> Values;
  for (const WorkloadResult &WR : Workloads)
    if (const CellResult *C = WR.cell(K))
      Values.push_back(Fn(WR, *C).Value);
  return Values.empty() ? "-" : formatFactor(geomean(Values));
}

/// Prints the paper's per-program block layout (Tables 4-7): relations as
/// rows, optimization levels as columns, ST-HB not applicable.
template <typename CellText> void printGrid(CellText Text) {
  static const char *const Relations[] = {"HB", "WCP", "DC", "WDC"};
  static const std::optional<AnalysisKind> Kinds[4][3] = {
      {AnalysisKind::UnoptHB, AnalysisKind::FTOHB, std::nullopt},
      {AnalysisKind::UnoptWCP, AnalysisKind::FTOWCP, AnalysisKind::STWCP},
      {AnalysisKind::UnoptDC, AnalysisKind::FTODC, AnalysisKind::STDC},
      {AnalysisKind::UnoptWDC, AnalysisKind::FTOWDC, AnalysisKind::STWDC},
  };
  TablePrinter Table({"", "Unopt-", "FTO-", "ST-"});
  for (unsigned R = 0; R != 4; ++R) {
    std::vector<std::string> Row = {Relations[R]};
    for (const std::optional<AnalysisKind> &K : Kinds[R])
      Row.push_back(K ? Text(*K) : "N/A");
    Table.addRow(std::move(Row));
  }
  Table.print();
}

/// Prints one per-program block per workload (Tables 5-7).
template <typename CellText>
void printProgramGrids(const std::vector<WorkloadResult> &Workloads,
                       CellText Text) {
  for (const WorkloadResult &WR : Workloads) {
    std::printf("%s\n", WR.Profile->Name);
    printGrid([&](AnalysisKind K) { return Text(WR, K); });
    std::printf("\n");
  }
}

/// "2.4M" / "35K" / "501", with \p KiloDigits decimals on the K form.
std::string formatCount(uint64_t N, int KiloDigits) {
  char Buf[32];
  if (N >= 1000000)
    std::snprintf(Buf, sizeof(Buf), "%.1fM", static_cast<double>(N) / 1e6);
  else if (N >= 1000)
    std::snprintf(Buf, sizeof(Buf), "%.*fK", KiloDigits,
                  static_cast<double>(N) / 1e3);
  else
    std::snprintf(Buf, sizeof(Buf), "%llu",
                  static_cast<unsigned long long>(N));
  return Buf;
}

std::string formatPct(double Fraction) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.2f%%", 100.0 * Fraction);
  return Buf;
}

/// Table 12's share of \p Part in \p Total, three significant digits.
std::string formatCasePct(uint64_t Part, uint64_t Total) {
  if (Total == 0)
    return "-";
  double Pct = 100.0 * static_cast<double>(Part) / static_cast<double>(Total);
  if (Pct != 0 && Pct < 0.001)
    return "<0.001%";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3g%%", Pct);
  return Buf;
}

void printTable2(const Options &Opts,
                 const std::vector<WorkloadResult> &Workloads) {
  std::printf("Table 2: run-time characteristics of the evaluated programs "
              "(paper targets in parentheses)\n\n");
  TablePrinter Table({"Program", "#Thr", "All", "NSEAs", ">=1 lock",
                      ">=2 locks", ">=3 locks"});
  for (const WorkloadResult &WR : Workloads) {
    const WorkloadProfile &P = *WR.Profile;
    WorkloadGenerator Gen(P, eventsFor(Opts, P), Opts.Seed);
    WorkloadCharacteristics C = measureCharacteristics(Gen);
    auto Held = [&](unsigned N, double Target) {
      return formatPct(C.heldFraction(N)) + " (" + formatPct(Target) + ")";
    };
    Table.addRow({P.Name, std::to_string(C.Threads),
                  formatCount(C.AllEvents, 0), formatCount(C.Nseas, 0),
                  Held(1, P.Held1), Held(2, P.Held2), Held(3, P.Held3)});
  }
  Table.print();
}

void printTable3(const std::vector<WorkloadResult> &Workloads) {
  static const AnalysisKind Kinds[] = {
      AnalysisKind::FT2,        AnalysisKind::FTOHB,
      AnalysisKind::UnoptDCwG,  AnalysisKind::UnoptDC,
      AnalysisKind::UnoptWDCwG, AnalysisKind::UnoptWDC,
  };
  std::printf("Table 3: baselines (run time and memory factors vs "
              "uninstrumented execution)\n\n");
  for (FactorFn Fn : {slowdownFactor, memoryFactor}) {
    TablePrinter Table({"Program", "FT2", "FTO", "UnoptDC w/G", "UnoptDC",
                        "UnoptWDC w/G", "UnoptWDC"});
    for (const WorkloadResult &WR : Workloads) {
      std::vector<std::string> Row = {WR.Profile->Name};
      for (AnalysisKind K : Kinds)
        Row.push_back(factorText(WR, K, Fn));
      Table.addRow(std::move(Row));
    }
    std::vector<std::string> Geo = {"geomean"};
    for (AnalysisKind K : Kinds)
      Geo.push_back(geomeanText(Workloads, K, Fn));
    Table.addRow(std::move(Geo));
    std::printf("%s\n", Fn == slowdownFactor ? "Run time" : "\nMemory usage");
    Table.print();
  }
}

void printTable12(const std::vector<WorkloadResult> &Workloads) {
  std::printf("Table 12: frequencies of non-same-epoch reads and writes "
              "for SmartTrack-WDC\n\n");
  TablePrinter Table({"Program", "Event", "Total", "Owned Excl",
                      "Owned Shared", "Unowned Excl", "Unowned Share",
                      "Unowned Shared"});
  for (const WorkloadResult &WR : Workloads) {
    const CellResult *C = WR.cell(AnalysisKind::STWDC);
    if (!C || !C->Cases)
      continue;
    const CaseStats &S = *C->Cases;
    uint64_t Reads = S.nonSameEpochReads(), Writes = S.nonSameEpochWrites();
    Table.addRow({WR.Profile->Name, "Read", formatCount(Reads, 1),
                  formatCasePct(S.ReadOwned, Reads),
                  formatCasePct(S.ReadSharedOwned, Reads),
                  formatCasePct(S.ReadExclusive, Reads),
                  formatCasePct(S.ReadShare, Reads),
                  formatCasePct(S.ReadShared, Reads)});
    Table.addRow({"", "Write", formatCount(Writes, 1),
                  formatCasePct(S.WriteOwned, Writes), "N/A",
                  formatCasePct(S.WriteExclusive, Writes), "N/A",
                  formatCasePct(S.WriteShared, Writes)});
  }
  Table.print();
}

/// The paper suite's view: Tables 2-7 and 12 from one set of cells.
/// With two or more repeats the factors carry 95% confidence intervals,
/// which makes Tables 5 and 6 the appendix's Tables 9 and 10.
void printPaperTables(const Options &Opts,
                      const std::vector<WorkloadResult> &Workloads) {
  std::printf("Paper tables: seed %llu, median of %u trial(s) per cell\n\n",
              static_cast<unsigned long long>(Opts.Seed), Opts.Repeats);
  printTable2(Opts, Workloads);
  std::printf("\n");
  printTable3(Workloads);

  std::printf("\nTable 4: geometric mean of run time and memory usage "
              "across the evaluated programs\n\n");
  for (FactorFn Fn : {slowdownFactor, memoryFactor}) {
    std::printf("%s\n", Fn == slowdownFactor ? "Run time" : "\nMemory usage");
    printGrid([&](AnalysisKind K) { return geomeanText(Workloads, K, Fn); });
  }

  std::printf("\nTable 5: run time, relative to uninstrumented execution, "
              "per program\n\n");
  printProgramGrids(Workloads, [](const WorkloadResult &WR, AnalysisKind K) {
    return factorText(WR, K, slowdownFactor);
  });
  std::printf("Table 6: memory usage, relative to uninstrumented "
              "execution, per program\n\n");
  printProgramGrids(Workloads, [](const WorkloadResult &WR, AnalysisKind K) {
    return factorText(WR, K, memoryFactor);
  });
  std::printf("Table 7: races reported (statically distinct, with dynamic "
              "races in parentheses)\n\n");
  printProgramGrids(Workloads, [](const WorkloadResult &WR, AnalysisKind K) {
    const CellResult *C = WR.cell(K);
    return C ? formatRaces(C->StaticRaces, C->DynamicRaces)
             : std::string("-");
  });
  printTable12(Workloads);
}

/// The ablation-ccs view: how the DC ladder's run time moves with the
/// fraction of accesses made inside critical sections.
void printCcsSweep(const Options &,
                   const std::vector<WorkloadResult> &Workloads) {
  std::printf("Ablation: CCS optimizations vs fraction of accesses in "
              "critical sections (DC analyses)\n\n");
  TablePrinter Table({"held>=1", "Unopt-DC", "FTO-DC", "ST-DC",
                      "FTO/ST speedup", "Unopt/FTO speedup"});
  auto Ratio = [](const CellResult *Num, const CellResult *Den) {
    if (!Num || !Den || Den->MedianSeconds <= 0)
      return std::string("-");
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.2fx",
                  Num->MedianSeconds / Den->MedianSeconds);
    return std::string(Buf);
  };
  for (const WorkloadResult &WR : Workloads) {
    char Held[16];
    std::snprintf(Held, sizeof(Held), "%.0f%%", WR.Profile->Held1 * 100);
    const CellResult *Unopt = WR.cell(AnalysisKind::UnoptDC);
    const CellResult *FTO = WR.cell(AnalysisKind::FTODC);
    const CellResult *ST = WR.cell(AnalysisKind::STDC);
    auto Slowdown = [&WR](AnalysisKind K) {
      return factorText(WR, K, slowdownFactor);
    };
    Table.addRow({Held, Slowdown(AnalysisKind::UnoptDC),
                  Slowdown(AnalysisKind::FTODC), Slowdown(AnalysisKind::STDC),
                  Ratio(FTO, ST), Ratio(Unopt, FTO)});
  }
  Table.print();
  std::printf("\nExpected shape: the FTO/ST speedup grows with the held "
              "fraction (CCS work dominates),\nwhile Unopt/FTO reflects "
              "the epoch/ownership benefit throughout.\n");
}

//===----------------------------------------------------------------------===//
// Suites
//===----------------------------------------------------------------------===//

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

std::vector<WorkloadProfile> dacapo(const std::vector<const char *> &Names) {
  std::vector<WorkloadProfile> Out;
  for (const char *N : Names)
    Out.push_back(*findProfile(N));
  return Out;
}

/// The CCS sweep (§4.2, §5.5): 8 threads, a quarter of the accesses
/// non-same-epoch, no seeded races, and the fraction of NSEAs holding at
/// least one lock stepped from none to nearly all.
std::vector<WorkloadProfile> ccsSweepProfiles() {
  static const char *const Names[] = {"held0",  "held20", "held40",
                                      "held60", "held80", "held99"};
  static const double Held[] = {0.0, 0.2, 0.4, 0.6, 0.8, 0.99};
  std::vector<WorkloadProfile> Out;
  for (size_t I = 0; I != 6; ++I) {
    WorkloadProfile P;
    P.Name = Names[I];
    P.Threads = 8;
    P.PaperTotalEvents = 400000;
    P.NseaFraction = 0.25;
    P.Held1 = Held[I];
    P.Held2 = Held[I] * 0.5;
    P.Held3 = Held[I] * 0.1;
    P.EpisodesPerMillion = 0;
    Out.push_back(P);
  }
  return Out;
}

const std::vector<SuiteSpec> &suites() {
  static const std::vector<SuiteSpec> Suites = [] {
    std::vector<SuiteSpec> S;
    // Diverse thread counts: jython=2, avrora=7, tomcat=37 straddle the
    // VectorClock inline-storage boundary from both sides.
    std::vector<WorkloadProfile> SmallSet =
        dacapo({"avrora", "jython", "tomcat"});
    S.push_back({"smoke",
                 "CTest-sized: 3 workloads x 8 analyses, 20k events, 1 trial",
                 SmallSet,
                 ladderAnalyses(),
                 20000,
                 0,
                 1,
                 printCellTables});
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
                 3,
                 printCellTables});
    std::vector<AnalysisKind> Full = ladderAnalyses();
    Full.push_back(AnalysisKind::UnoptHB);
    Full.push_back(AnalysisKind::UnoptWCP);
    Full.push_back(AnalysisKind::UnoptDC);
    Full.push_back(AnalysisKind::UnoptWDC);
    S.push_back({"full",
                 "all 10 workloads x 12 analyses, 500k events, median of 5",
                 dacapoProfiles(),
                 Full,
                 500000,
                 1,
                 5,
                 printCellTables});
    // The paper's evaluation: the 11 main-table analyses plus Table 3's
    // extra baselines, each workload at its Table 2 size / 4000.
    std::vector<AnalysisKind> Paper = mainTableAnalysisKinds();
    Paper.push_back(AnalysisKind::FT2);
    Paper.push_back(AnalysisKind::UnoptDCwG);
    Paper.push_back(AnalysisKind::UnoptWDCwG);
    S.push_back({"paper",
                 "Tables 2-7 and 12: 10 workloads x 14 analyses, Table 2"
                 " sizes / 4000, median of 3",
                 dacapoProfiles(),
                 Paper,
                 0,
                 1,
                 3,
                 printPaperTables});
    std::vector<AnalysisKind> Dc = {AnalysisKind::UnoptDC, AnalysisKind::FTODC,
                                    AnalysisKind::STDC};
    S.push_back({"ablation-ccs",
                 "CCS sweep: 6 held-fraction workloads x 3 DC analyses,"
                 " 400k events, median of 3",
                 ccsSweepProfiles(),
                 Dc,
                 400000,
                 1,
                 3,
                 printCcsSweep});
    return S;
  }();
  return Suites;
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

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
      "  --suite=NAME     predefined suite: smoke, ci (default), full,\n"
      "                   paper (the paper's tables), ablation-ccs\n"
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
    std::printf("  %-12s %s\n", S.Name, S.Description);
  std::printf("workloads (src/workload profiles, Table 2 shapes):\n");
  for (const WorkloadProfile &P : dacapoProfiles())
    std::printf("  %-9s %2u threads, %5.1f%% NSEAs\n", P.Name, P.Threads,
                P.NseaFraction * 100);
  for (const SuiteSpec &S : suites())
    for (const WorkloadProfile &P : S.Workloads)
      if (!findProfile(P.Name))
        std::printf("  %-9s %2u threads, %5.1f%% NSEAs, %.0f%% held "
                    "(%s suite)\n",
                    P.Name, P.Threads, P.NseaFraction * 100, P.Held1 * 100,
                    S.Name);
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

/// parseCount for a trial count, which must fit an unsigned.
bool parseTrials(const char *Value, const char *Flag,
                 std::optional<unsigned> &Out) {
  uint64_t N = 0;
  if (!parseCount(Value, Flag, N))
    return false;
  if (N > UINT_MAX) {
    std::fprintf(stderr, "error: %s value '%s' out of range (max %u)\n",
                 Flag, Value, UINT_MAX);
    return false;
  }
  Out = static_cast<unsigned>(N);
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

/// A workload name resolves in the suite's own profiles first, then in
/// the DaCapo table.
const WorkloadProfile *findWorkload(const SuiteSpec &S, const char *Name) {
  for (const WorkloadProfile &P : S.Workloads)
    if (std::strcmp(P.Name, Name) == 0)
      return &P;
  return findProfile(Name);
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  std::vector<std::string> WorkloadNames;
  std::optional<unsigned> Warmup, Repeats;
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
      for (const std::string &W : splitCommas(Arg + 12))
        WorkloadNames.push_back(W);
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
      if (!parseTrials(Arg + 9, "--warmup", Warmup))
        return false;
    } else if (std::strncmp(Arg, "--repeats=", 10) == 0) {
      if (!parseTrials(Arg + 10, "--repeats", Repeats))
        return false;
      if (*Repeats == 0) {
        std::fprintf(stderr, "error: --repeats must be >= 1\n");
        return false;
      }
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
  for (const std::string &W : WorkloadNames) {
    const WorkloadProfile *P = findWorkload(*Opts.Suite, W.c_str());
    if (!P) {
      std::fprintf(stderr, "error: unknown workload '%s' (try --list)\n",
                   W.c_str());
      return false;
    }
    Opts.Workloads.push_back(P);
  }
  if (Opts.Workloads.empty())
    for (const WorkloadProfile &P : Opts.Suite->Workloads)
      Opts.Workloads.push_back(&P);
  if (Opts.Analyses.empty())
    Opts.Analyses = Opts.Suite->Analyses;
  if (Opts.Events == 0)
    Opts.Events = Opts.Suite->Events;
  Opts.Warmup = Warmup.value_or(Opts.Suite->Warmup);
  Opts.Repeats = Repeats.value_or(Opts.Suite->Repeats);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 1;

  std::vector<WorkloadResult> Workloads;
  for (const WorkloadProfile *P : Opts.Workloads) {
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

  std::string Report = jsonReport(Opts, Workloads);
  if (std::strcmp(Opts.OutPath, "-") == 0) {
    size_t Written = std::fwrite(Report.data(), 1, Report.size(), stdout);
    if (std::fflush(stdout) != 0 || std::ferror(stdout) ||
        Written != Report.size()) {
      std::fprintf(stderr, "error: writing - failed\n");
      return 1;
    }
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
    Opts.Suite->View(Opts, Workloads);
  return 0;
}
