//===- tests/lint/LintEngineTest.cpp - Lint engine and rule units ---------===//

#include "lint/LintingEventSource.h"
#include "trace/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace st;

namespace {

std::vector<LintCode> codesOf(const std::vector<LintDiagnostic> &Diags) {
  std::vector<LintCode> Codes;
  for (const LintDiagnostic &D : Diags)
    Codes.push_back(D.Code);
  return Codes;
}

bool hasCode(const std::vector<LintDiagnostic> &Diags, LintCode C) {
  return std::any_of(Diags.begin(), Diags.end(),
                     [C](const LintDiagnostic &D) { return D.Code == C; });
}

TEST(LintEngineTest, NonLatchingReportsEveryViolation) {
  // Three independent violations in one stream; the pre-lint checker
  // would have stopped at the first.
  std::vector<Event> Events = {
      Event(EventKind::Acquire, 0, 0), Event(EventKind::Acquire, 1, 0),
      Event(EventKind::Release, 2, 1), Event(EventKind::Fork, 0, 0)};
  LintEngine Eng;
  addHardRules(Eng);
  Eng.processBatch(Events.data(), Events.size());
  Eng.finish();
  EXPECT_EQ(Eng.errorCount(), 3u);
  std::vector<LintCode> Codes = codesOf(Eng.diagnostics());
  EXPECT_EQ(Codes, (std::vector<LintCode>{LintCode::AcquireHeld,
                                          LintCode::ReleaseUnheld,
                                          LintCode::SelfForkJoin}));
}

TEST(LintEngineTest, DiagnosticCarriesEventIndexTidAndProvenance) {
  LintEngine Eng;
  addHardRules(Eng);
  Eng.processEvent(Event(EventKind::Acquire, 0, 0));
  Eng.setProvenance(/*Line=*/7, /*Byte=*/0);
  Eng.processEvent(Event(EventKind::Acquire, 3, 0));
  ASSERT_EQ(Eng.diagnostics().size(), 1u);
  const LintDiagnostic &D = Eng.diagnostics()[0];
  EXPECT_EQ(D.EventIdx, 1u);
  EXPECT_EQ(D.Tid, 3u);
  EXPECT_EQ(D.Line, 7u);
  EXPECT_FALSE(D.streamLevel());
  std::string S = formatDiagnostic(D);
  EXPECT_NE(S.find("event 1 (line 7)"), std::string::npos) << S;
  EXPECT_NE(S.find("STL001"), std::string::npos) << S;
}

TEST(LintEngineTest, ErrorPoisonsEventForLaterRules) {
  // An out-of-range fork child must be stopped by the id-range rule
  // before the lifecycle rule would size per-thread state off it.
  LintEngine Eng;
  addAllRules(Eng);
  Eng.processEvent(Event(EventKind::Fork, 0, 0xfffffffeu));
  Eng.finish();
  EXPECT_EQ(Eng.errorCount(), 1u);
  ASSERT_EQ(Eng.diagnostics().size(), 1u);
  EXPECT_EQ(Eng.diagnostics()[0].Code, LintCode::IdOutOfRange);
  // The soft unjoined-thread rule never saw the fork (poisoned), so no
  // STL021 at end of stream either.
  EXPECT_EQ(Eng.warningCount(), 0u);
}

TEST(LintEngineTest, IdRangeCoversAllIdSpaces) {
  const uint32_t Huge = LintEngine::MaxCheckableIds;
  const Event Cases[] = {
      Event(EventKind::Read, Huge, 0),          // thread id
      Event(EventKind::Read, 0, Huge),          // variable id
      Event(EventKind::Acquire, 0, Huge),       // lock id
      Event(EventKind::VolRead, 0, Huge),       // volatile id
      Event(EventKind::Join, 0, Huge),          // child thread id
      Event(EventKind::Write, 0, 0, Huge),      // site id
  };
  for (const Event &E : Cases) {
    LintEngine Eng;
    addHardRules(Eng);
    Eng.processEvent(E);
    EXPECT_EQ(Eng.errorCount(), 1u);
    ASSERT_EQ(Eng.diagnostics().size(), 1u);
    EXPECT_EQ(Eng.diagnostics()[0].Code, LintCode::IdOutOfRange);
    EXPECT_NE(Eng.diagnostics()[0].Message.find("out of range"),
              std::string::npos);
  }
}

TEST(LintEngineTest, StoreCapCountsDroppedAndCallbackSeesAll) {
  LintOptions Opts;
  Opts.MaxStoredDiagnostics = 2;
  LintEngine Eng(Opts);
  addHardRules(Eng);
  size_t CallbackCount = 0;
  Eng.setDiagnosticCallback(
      [&CallbackCount](const LintDiagnostic &) { ++CallbackCount; });
  for (int I = 0; I != 5; ++I)
    Eng.processEvent(Event(EventKind::Release, 0, 0)); // unheld release x5
  EXPECT_EQ(Eng.errorCount(), 5u);
  EXPECT_EQ(Eng.diagnostics().size(), 2u);
  EXPECT_EQ(Eng.droppedDiagnostics(), 3u);
  EXPECT_EQ(CallbackCount, 5u) << "callback streams past the store cap";
  std::string Summary = Eng.summaryString();
  EXPECT_NE(Summary.find("and 3 more"), std::string::npos) << Summary;
}

TEST(LintEngineTest, FinishIsIdempotent) {
  LintEngine Eng;
  addAllRules(Eng);
  Eng.processEvent(Event(EventKind::Acquire, 0, 0));
  Eng.finish();
  EXPECT_EQ(Eng.warningCount(), 1u); // lock held at end
  Eng.finish();
  EXPECT_EQ(Eng.warningCount(), 1u) << "onEnd must not re-fire";
}

TEST(LintRulesTest, LockDisciplineRecoversAfterDoubleAcquire) {
  // After a double acquire the lock is handed to the second acquirer, so
  // its release is not a spurious second violation.
  std::vector<Event> Events = {Event(EventKind::Acquire, 0, 0),
                               Event(EventKind::Acquire, 1, 0),
                               Event(EventKind::Release, 1, 0)};
  LintEngine Eng;
  addHardRules(Eng);
  Eng.processBatch(Events.data(), Events.size());
  EXPECT_EQ(Eng.errorCount(), 1u);
  EXPECT_EQ(Eng.diagnostics()[0].Code, LintCode::AcquireHeld);
}

TEST(LintRulesTest, EmptyCriticalSectionNeedsNoInterveningEvent) {
  Trace WithWork = TraceBuilder()
                       .acq(0, 0)
                       .write(0, 0)
                       .rel(0, 0)
                       .build();
  EXPECT_FALSE(hasCode(lintTrace(WithWork), LintCode::EmptyCriticalSection));

  Trace Empty = TraceBuilder().acq(0, 0).rel(0, 0).build();
  std::vector<LintDiagnostic> Diags = lintTrace(Empty);
  EXPECT_TRUE(hasCode(Diags, LintCode::EmptyCriticalSection));

  // Another thread's event between acq and rel does not fill the
  // critical section: the pending state is per-thread.
  Trace Interleaved =
      TraceBuilder().acq(0, 0).write(1, 0).rel(0, 0).build();
  EXPECT_TRUE(
      hasCode(lintTrace(Interleaved), LintCode::EmptyCriticalSection));
}

TEST(LintRulesTest, VolatileDataAliasIsANoteAndDeduplicated) {
  Trace Tr = TraceBuilder()
                 .volWrite(0, 2)
                 .read(1, 2)
                 .write(0, 2) // same alias again: no second note
                 .build();
  std::vector<LintDiagnostic> Diags = lintTrace(Tr);
  size_t Aliases = 0;
  for (const LintDiagnostic &D : Diags)
    if (D.Code == LintCode::VolatileDataAlias) {
      ++Aliases;
      EXPECT_EQ(D.Severity, LintSeverity::Note);
    }
  EXPECT_EQ(Aliases, 1u);
}

TEST(LintRulesTest, SiteTableChecksDeclaredBoundOncePerSite) {
  LintEngine Eng;
  addSoftRules(Eng);
  LintDeclared Declared;
  Declared.Sites = 2;
  Eng.setDeclared(Declared);
  Eng.processEvent(Event(EventKind::Read, 0, 0, /*Site=*/1));  // in range
  Eng.processEvent(Event(EventKind::Read, 0, 0, /*Site=*/5));  // out
  Eng.processEvent(Event(EventKind::Write, 0, 0, /*Site=*/5)); // dup
  Eng.processEvent(Event(EventKind::Read, 0, 0, /*Site=*/7));  // out
  Eng.finish();
  size_t SiteDiags = 0;
  for (const LintDiagnostic &D : Eng.diagnostics())
    if (D.Code == LintCode::SiteOutOfTable)
      ++SiteDiags;
  EXPECT_EQ(SiteDiags, 2u);
}

TEST(LintRulesTest, SiteTableInertWithoutDeclaration) {
  // Text inputs declare nothing; undeclared tables never fire STL024.
  LintEngine Eng;
  addSoftRules(Eng);
  Eng.processEvent(Event(EventKind::Read, 0, 0, /*Site=*/999));
  Eng.finish();
  EXPECT_FALSE(hasCode(Eng.diagnostics(), LintCode::SiteOutOfTable));
}

TEST(LintRulesTest, SparseThreadIdSpaceWarns) {
  LintEngine Eng;
  addSoftRules(Eng);
  Eng.processEvent(Event(EventKind::Write, 100000, 0));
  Eng.finish();
  ASSERT_TRUE(hasCode(Eng.diagnostics(), LintCode::SparseIdSpace));

  // Dense ids of any count stay quiet.
  LintEngine Dense;
  addSoftRules(Dense);
  for (ThreadId T = 0; T != 5000; ++T)
    Dense.processEvent(Event(EventKind::Write, T, 0));
  Dense.finish();
  EXPECT_FALSE(hasCode(Dense.diagnostics(), LintCode::SparseIdSpace));
}

TEST(LintRulesTest, NearCapThreadIdWarnsOnce) {
  LintEngine Eng;
  addSoftRules(Eng);
  Eng.processEvent(Event(EventKind::Write, LintEngine::MaxCheckableIds / 2, 0));
  Eng.processEvent(
      Event(EventKind::Write, LintEngine::MaxCheckableIds / 2 + 1, 0));
  size_t NearCap = 0;
  for (const LintDiagnostic &D : Eng.diagnostics())
    if (D.Code == LintCode::SparseIdSpace)
      ++NearCap;
  EXPECT_EQ(NearCap, 1u);
}

TEST(LintingEventSourceTest, AggregatesAllViolations) {
  Trace Tr({Event(EventKind::Acquire, 0, 0), Event(EventKind::Acquire, 1, 0),
            Event(EventKind::Release, 2, 1)});
  TraceEventSource Inner(Tr);
  LintEngine Eng;
  addHardRules(Eng);
  LintingEventSource Src(Inner, Eng, /*Reject=*/false);
  Event Buf[4];
  EXPECT_EQ(Src.read(Buf, 4), 1u) << "delivers the well-formed prefix";
  EXPECT_EQ(Src.read(Buf, 4), 0u) << "then stops, but keeps collecting";
  EXPECT_TRUE(Src.cut());
  std::string Msg;
  ASSERT_TRUE(Src.error(&Msg));
  EXPECT_NE(Msg.find("acquire of a held lock"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("does not hold"), std::string::npos) << Msg;
  EXPECT_EQ(Eng.errorCount(), 2u);
}

TEST(LintingEventSourceTest, DecodeErrorAfterCutIsDiagnosedNotAppended) {
  // The error message lists the hard violations only; the decode error
  // that ends the drain still reaches the diagnostics as STL008.
  MemoryByteSource Bytes("T1: rel(m)\nT1: frobnicate(x)\n");
  OpenedEventSource In = openEventSource(Bytes, /*Validate=*/true);
  Event Buf[4];
  EXPECT_EQ(In.Events->read(Buf, 4), 0u);
  std::string Msg;
  ASSERT_TRUE(In.Events->error(&Msg));
  EXPECT_EQ(Msg.find("frobnicate"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("event 0 (line 1): error STL002"), std::string::npos)
      << Msg;
  ASSERT_NE(In.Lint, nullptr);
  EXPECT_TRUE(hasCode(In.Lint->diagnostics(), LintCode::MalformedInput));
}

TEST(LintingEventSourceTest, ForwardsPositionsOfTheDeliveredPrefix) {
  MemoryByteSource Bytes("T1: acq(m)\n# c\nT1: wr(x)\nT2: rel(m)\n");
  OpenedEventSource In = openEventSource(Bytes, /*Validate=*/true);
  Event Buf[8];
  ASSERT_EQ(In.Events->read(Buf, 8), 2u);
  ASSERT_NE(In.Events->eventLines(), nullptr);
  EXPECT_EQ(In.Events->eventLines()[0], 1u);
  EXPECT_EQ(In.Events->eventLines()[1], 3u);
  EXPECT_EQ(In.Events->read(Buf, 8), 0u);
  std::string Msg;
  ASSERT_TRUE(In.Events->error(&Msg));
  EXPECT_NE(Msg.find("event 2 (line 4)"), std::string::npos) << Msg;
}

TEST(TraceValidateTest, AggregatesEveryViolation) {
  std::vector<Event> Events = {Event(EventKind::Release, 0, 0),
                               Event(EventKind::Fork, 1, 1)};
  Trace Tr(std::move(Events));
  std::string Error;
  EXPECT_FALSE(Tr.validate(&Error));
  EXPECT_NE(Error.find("STL002"), std::string::npos) << Error;
  EXPECT_NE(Error.find("STL006"), std::string::npos) << Error;
}

TEST(TraceBuilderTest, BuildThrowsInAllBuildTypes) {
  // The legacy debug-only assert let ill-formed builder traces through
  // release binaries; now every build type diagnoses them.
  TraceBuilder B;
  B.acq(0, 0).acq(1, 0).rel(2, 1);
  try {
    B.build();
    FAIL() << "build() must throw on an ill-formed trace";
  } catch (const IllFormedTraceError &E) {
    EXPECT_NE(std::string(E.what()).find("not well formed"),
              std::string::npos);
    EXPECT_EQ(E.diagnostics().size(), 2u) << "carries every violation";
    EXPECT_EQ(E.diagnostics()[0].Code, LintCode::AcquireHeld);
    EXPECT_EQ(E.diagnostics()[1].Code, LintCode::ReleaseUnheld);
  }
}

TEST(TraceBuilderTest, BuildStillReturnsWellFormedTraces) {
  EXPECT_NO_THROW({
    Trace Tr = TraceBuilder().fork(0, 1).write(1, 0).join(0, 1).build();
    EXPECT_EQ(Tr.size(), 3u);
  });
}

TEST(LintTraceTest, HardOnlySkipsSoftRules) {
  Trace Tr = TraceBuilder().acq(0, 0).rel(0, 0).build(); // empty CS
  EXPECT_TRUE(lintTrace(Tr, /*SoftRules=*/false).empty());
  EXPECT_FALSE(lintTrace(Tr, /*SoftRules=*/true).empty());
}

} // namespace
