//===- bench/figures_paper.cpp - Executable Figures 1-4 -------------------===//
//
// Regenerates the paper's figures as executable checks: each figure trace
// is printed, run through every analysis configuration, and its detected
// WDC races are vindicated. The output mirrors the figures' captions:
// which relations race, and whether the race is a true predictable race.
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisRegistry.h"
#include "graph/EdgeRecorder.h"
#include "oracle/PredictableRace.h"
#include "support/Table.h"
#include "trace/TraceText.h"
#include "vindicate/Vindicator.h"
#include "workload/Figures.h"

#include <cstdio>

using namespace st;

static void runFigure(const char *Name, const char *Caption, Trace Tr) {
  std::printf("=== %s: %s ===\n", Name, Caption);
  std::printf("%s", printTraceText(Tr).c_str());

  TablePrinter Table({"Analysis", "Races", "Verdict"});
  long WdcRaceEvent = -1;
  for (AnalysisKind K : allAnalysisKinds()) {
    EdgeRecorder Graph;
    auto A = createAnalysis(K, &Graph);
    A->processTrace(Tr);
    Table.addRow({analysisKindName(K), std::to_string(A->dynamicRaces()),
                  A->dynamicRaces() ? "race" : "no race"});
    if (K == AnalysisKind::UnoptWDC && A->dynamicRaces())
      WdcRaceEvent = static_cast<long>(A->raceRecords().front().EventIdx);
  }
  Table.print();

  if (WdcRaceEvent >= 0) {
    VindicationResult R =
        vindicateRaceAtEvent(Tr, static_cast<size_t>(WdcRaceEvent));
    if (R.Vindicated) {
      std::printf("vindication: SUCCESS — witness prefix of %zu events, "
                  "racing pair (%zu, %zu)\n",
                  R.Witness.Prefix.size(), R.Witness.First,
                  R.Witness.Second);
    } else {
      std::printf("vindication: FAILED — %s\n", R.FailureReason.c_str());
    }
    auto Oracle = findPredictableRace(Tr);
    std::printf("exhaustive oracle: %s\n",
                Oracle ? "predictable race exists"
                       : "no predictable race (false WDC race)");
  } else {
    std::printf("no WDC race; nothing to vindicate\n");
  }
  std::printf("\n");
}

int main() {
  runFigure("Figure 1(a)",
            "predictable race on x that HB misses; WCP/DC/WDC detect it",
            figures::fig1a());
  runFigure("Figure 2(a)",
            "DC-race that is not a WCP-race (WCP composes with HB)",
            figures::fig2a());
  runFigure("Figure 3",
            "WDC-race that is NOT a predictable race (rule (b) matters)",
            figures::fig3());
  runFigure("Figure 4(a)", "SmartTrack CS-list walkthrough; race-free",
            figures::fig4a());
  runFigure("Figure 4(b) extended",
            "[Read Share] must preserve critical-section information",
            figures::fig4bExtended());
  runFigure("Figure 4(c) extended",
            "extra metadata E^w must preserve lost write sections",
            figures::fig4cExtended());
  runFigure("Figure 4(d) extended",
            "extra metadata E^r must preserve lost read sections",
            figures::fig4dExtended());
  return 0;
}
