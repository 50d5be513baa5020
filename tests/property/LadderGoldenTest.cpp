//===- tests/property/LadderGoldenTest.cpp - Frozen ladder behavior -------===//
//
// Ladder agreement across refactors: race reports and case statistics for
// the full 14-analysis registry on seeded RandomTrace workloads, frozen as
// golden values. The goldens were captured from the per-relation analysis
// classes that predate the FTOCore/STCore policy refactor, so any drift in
// the unified cores' verdicts or dispatch-case frequencies — however
// subtle — fails here even if the cross-analysis agreement properties in
// PropertyTest.cpp still hold.
//
// Workload 3 was added later; its goldens were captured from the
// shared-pointer CS-list STCore that the pooled cons-cell lists replaced.
//
// If a deliberate semantic change invalidates a golden, re-derive it by
// running the configs (GoldenConfigs.h) through the registry and update
// the table in the same commit that changes the behavior.
//
//===----------------------------------------------------------------------===//

#include "GoldenConfigs.h"

#include "analysis/AnalysisRegistry.h"
#include "graph/EdgeRecorder.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace st;

namespace {

struct Golden {
  unsigned Workload;
  const char *Analysis;
  uint64_t DynamicRaces;
  unsigned StaticRaces;
  /// ReadSameEpoch, SharedSameEpoch, WriteSameEpoch, ReadOwned,
  /// ReadSharedOwned, ReadExclusive, ReadShare, ReadShared, WriteOwned,
  /// WriteExclusive, WriteShared — all zero for analyses without
  /// caseStats().
  uint64_t Cases[11];
};

// Captured from the pre-refactor per-relation classes (see file header).
const Golden Goldens[] = {
    // workload 0 (602 events)
    {0, "Unopt-HB", 331, 6, {}},
    {0, "FT2", 304, 6, {}},
    {0, "FTO-HB", 293, 6, {21, 28, 26, 9, 29, 7, 96, 32, 12, 85, 95}},
    {0, "Unopt-WCP", 347, 6, {}},
    {0, "FTO-WCP", 300, 6, {21, 28, 26, 9, 29, 6, 96, 33, 12, 85, 95}},
    {0, "ST-WCP", 300, 6, {21, 28, 26, 9, 30, 4, 97, 33, 12, 84, 96}},
    {0, "Unopt-DC", 354, 6, {}},
    {0, "Unopt-DC w/G", 354, 6, {}},
    {0, "FTO-DC", 300, 6, {21, 28, 26, 9, 29, 6, 96, 33, 12, 85, 95}},
    {0, "ST-DC", 300, 6, {21, 28, 26, 9, 30, 4, 97, 33, 12, 84, 96}},
    {0, "Unopt-WDC", 354, 6, {}},
    {0, "Unopt-WDC w/G", 354, 6, {}},
    {0, "FTO-WDC", 300, 6, {21, 28, 26, 9, 29, 6, 96, 33, 12, 85, 95}},
    {0, "ST-WDC", 300, 6, {21, 28, 26, 9, 30, 4, 97, 33, 12, 84, 96}},
    // workload 1 (510 events)
    {1, "Unopt-HB", 274, 4, {}},
    {1, "FT2", 297, 4, {}},
    {1, "FTO-HB", 293, 4, {17, 39, 19, 4, 14, 4, 73, 59, 5, 98, 71}},
    {1, "Unopt-WCP", 275, 4, {}},
    {1, "FTO-WCP", 294, 4, {17, 39, 19, 4, 14, 4, 73, 59, 5, 98, 71}},
    {1, "ST-WCP", 294, 4, {17, 39, 19, 4, 15, 2, 74, 59, 5, 97, 72}},
    {1, "Unopt-DC", 275, 4, {}},
    {1, "Unopt-DC w/G", 275, 4, {}},
    {1, "FTO-DC", 294, 4, {17, 39, 19, 4, 14, 4, 73, 59, 5, 98, 71}},
    {1, "ST-DC", 294, 4, {17, 39, 19, 4, 15, 2, 74, 59, 5, 97, 72}},
    {1, "Unopt-WDC", 275, 4, {}},
    {1, "Unopt-WDC w/G", 275, 4, {}},
    {1, "FTO-WDC", 294, 4, {17, 39, 19, 4, 14, 4, 73, 59, 5, 98, 71}},
    {1, "ST-WDC", 294, 4, {17, 39, 19, 4, 15, 2, 74, 59, 5, 97, 72}},
    // workload 2 (804 events)
    {2, "Unopt-HB", 449, 10, {}},
    {2, "FT2", 592, 10, {}},
    {2, "FTO-HB", 593, 10, {8, 17, 46, 5, 4, 3, 121, 45, 6, 322, 119}},
    {2, "Unopt-WCP", 449, 10, {}},
    {2, "FTO-WCP", 594, 10, {8, 17, 46, 5, 4, 2, 122, 45, 6, 321, 120}},
    {2, "ST-WCP", 595, 10, {8, 17, 46, 5, 4, 2, 122, 45, 6, 321, 120}},
    {2, "Unopt-DC", 449, 10, {}},
    {2, "Unopt-DC w/G", 449, 10, {}},
    {2, "FTO-DC", 594, 10, {8, 17, 46, 5, 4, 2, 122, 45, 6, 321, 120}},
    {2, "ST-DC", 595, 10, {8, 17, 46, 5, 4, 2, 122, 45, 6, 321, 120}},
    {2, "Unopt-WDC", 449, 10, {}},
    {2, "Unopt-WDC w/G", 449, 10, {}},
    {2, "FTO-WDC", 594, 10, {8, 17, 46, 5, 4, 2, 122, 45, 6, 321, 120}},
    {2, "ST-WDC", 595, 10, {8, 17, 46, 5, 4, 2, 122, 45, 6, 321, 120}},
    // workload 3 (20005 events; captured before the cons-cell CS lists)
    {3, "Unopt-HB", 11783, 50, {}},
    {3, "FT2", 10945, 50, {}},
    {3, "FTO-HB", 10729, 50,
     {245, 293, 259, 341, 788, 604, 3364, 2314, 287, 3972, 3344}},
    {3, "Unopt-WCP", 13124, 50, {}},
    {3, "FTO-WCP", 11957, 50,
     {234, 304, 259, 322, 846, 298, 3516, 2429, 270, 3837, 3496}},
    {3, "ST-WCP", 12029, 50,
     {233, 305, 259, 315, 862, 192, 3571, 2471, 268, 3784, 3551}},
    {3, "Unopt-DC", 14329, 50, {}},
    {3, "Unopt-DC w/G", 14329, 50, {}},
    {3, "FTO-DC", 12631, 50,
     {231, 307, 259, 318, 859, 190, 3569, 2475, 265, 3790, 3548}},
    {3, "ST-DC", 12666, 50,
     {229, 309, 259, 312, 873, 95, 3621, 2510, 264, 3739, 3600}},
    {3, "Unopt-WDC", 14336, 50, {}},
    {3, "Unopt-WDC w/G", 14336, 50, {}},
    {3, "FTO-WDC", 12639, 50,
     {230, 308, 259, 318, 859, 189, 3570, 2475, 265, 3789, 3549}},
    {3, "ST-WDC", 12674, 50,
     {228, 310, 259, 312, 873, 94, 3622, 2510, 264, 3738, 3601}},
};

class LadderGolden : public ::testing::TestWithParam<unsigned> {};

TEST_P(LadderGolden, RegistryMatchesFrozenBehavior) {
  unsigned W = GetParam();
  Trace Tr = generateRandomTrace(goldenConfig(W));

  size_t Checked = 0;
  for (AnalysisKind K : allAnalysisKinds()) {
    EdgeRecorder Graph;
    auto A = createAnalysis(K, buildsGraph(K) ? &Graph : nullptr);
    A->processTrace(Tr);

    const Golden *G = nullptr;
    for (const Golden &Row : Goldens)
      if (Row.Workload == W &&
          std::strcmp(Row.Analysis, analysisKindName(K)) == 0)
        G = &Row;
    ASSERT_NE(G, nullptr) << "no golden row for " << analysisKindName(K);
    ++Checked;

    EXPECT_EQ(A->dynamicRaces(), G->DynamicRaces) << analysisKindName(K);
    EXPECT_EQ(A->staticRaces(), G->StaticRaces) << analysisKindName(K);

    const CaseStats *S = A->caseStats();
    if (!S)
      continue;
    const uint64_t Got[11] = {
        S->ReadSameEpoch, S->SharedSameEpoch, S->WriteSameEpoch,
        S->ReadOwned,     S->ReadSharedOwned, S->ReadExclusive,
        S->ReadShare,     S->ReadShared,      S->WriteOwned,
        S->WriteExclusive, S->WriteShared};
    for (size_t I = 0; I != 11; ++I)
      EXPECT_EQ(Got[I], G->Cases[I])
          << analysisKindName(K) << " case counter " << I;
  }
  EXPECT_EQ(Checked, allAnalysisKinds().size());
}

INSTANTIATE_TEST_SUITE_P(Workloads, LadderGolden,
                         ::testing::Range(0u, NumGoldenConfigs));

} // namespace
