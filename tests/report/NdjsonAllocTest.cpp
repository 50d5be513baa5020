//===- tests/report/NdjsonAllocTest.cpp - Race lines allocate nothing -----===//
//
// Counts the work of the output stage: once every analysis has emitted
// one line, NdjsonSink::onRace makes no heap allocation, whatever the
// names, ids, sites and priors of the reports. Its own binary, because it
// replaces the global operator new and delete to count calls. FrameSink,
// which wraps NdjsonSink for served race frames, holds to the same.
//
//===----------------------------------------------------------------------===//

#include "report/FrameSink.h"
#include "report/RaceSink.h"
#include "serve/Frame.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> Allocations{0};

void *countedAlloc(std::size_t N) {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(N ? N : 1))
    return P;
  throw std::bad_alloc();
}

} // namespace

void *operator new(std::size_t N) { return countedAlloc(N); }
void *operator new[](std::size_t N) { return countedAlloc(N); }
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

using namespace st;

namespace {

/// Accepts and drops every byte, so only the encoder is measured.
class DiscardingSink : public ByteSink {
public:
  bool write(const char *, size_t N) override {
    Bytes += N;
    return true;
  }
  uint64_t Bytes = 0;
};

const char *const AnalysisNames[] = {"ST-WDC", "FTO-WDC"};

/// Report \p I of a stream mixing named and fallback symbols, explicit
/// and fallback sites, reports with and without a prior, and two
/// analyses.
RaceReport makeReport(uint64_t I) {
  RaceReport R;
  R.EventIdx = I * 7919;
  R.Var = static_cast<VarId>(I % 80);   // 16 ids fall back to x<id>
  R.Tid = static_cast<ThreadId>(I % 6); // 2 fall back to T<id>
  R.IsWrite = I % 2;
  R.Site = static_cast<SiteId>(I);
  R.Provenance =
      I % 5 ? SiteProvenance::Explicit : SiteProvenance::FallbackVar;
  if (I % 4)
    R.Prior = Epoch::make(static_cast<ThreadId>((I + 1) % 6),
                          static_cast<ClockValue>(I));
  R.AnalysisName = AnalysisNames[I % 2];
  return R;
}

struct Tables {
  std::vector<std::string> Threads = {"main", "worker-1",
                                      std::string(300, 'w'), "q\"t"};
  std::vector<std::string> Vars;
  Tables() {
    for (int I = 0; I != 64; ++I)
      Vars.push_back("var_" + std::string(static_cast<size_t>(I), 'v') +
                     (I % 3 ? "" : "\\\n"));
  }
};

/// Heap allocations \p S makes for 10,000 reports after one warm-up
/// report per analysis (which must allocate: it builds the prefixes).
template <class Sink> uint64_t allocationsAfterWarmUp(Sink &S) {
  uint64_t Cold = Allocations.load();
  S.onRace(makeReport(0));
  S.onRace(makeReport(1));
  EXPECT_GT(Allocations.load(), Cold);

  std::vector<RaceReport> Reports;
  for (uint64_t I = 2; I != 10002; ++I)
    Reports.push_back(makeReport(I));
  uint64_t Before = Allocations.load();
  for (const RaceReport &R : Reports)
    S.onRace(R);
  return Allocations.load() - Before;
}

TEST(NdjsonAllocTest, RaceLinesMakeNoHeapAllocationAfterWarmUp) {
  Tables T;
  DiscardingSink Out;
  NdjsonSink S(Out);
  S.setSymbols(&T.Threads, &T.Vars);
  EXPECT_EQ(allocationsAfterWarmUp(S), 0u);
  EXPECT_TRUE(S.ok());
  EXPECT_GT(Out.Bytes, 10000u * 100); // every line was written
}

TEST(NdjsonAllocTest, RaceFramesMakeNoHeapAllocationAfterWarmUp) {
  Tables T;
  DiscardingSink Out;
  FrameWriter Frames(Out);
  FrameSink S(Frames);
  S.setSymbols(&T.Threads, &T.Vars);
  EXPECT_EQ(allocationsAfterWarmUp(S), 0u);
  EXPECT_TRUE(S.ok());
  EXPECT_GT(Out.Bytes, 10000u * 100);
}

} // namespace
