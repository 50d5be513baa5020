//===- report/Session.cpp - One-stop analysis session facade --------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "report/Session.h"

#include "engine/EventSource.h"
#include "lint/LintingEventSource.h"

#include <mutex>

using namespace st;

namespace {

/// Serializes onRace() calls from the parallel engine's per-analysis
/// worker threads, so user sinks never need their own locking.
class SerializedSink : public RaceSink {
public:
  explicit SerializedSink(RaceSink &Inner) : Inner(Inner) {}

  void onRace(const RaceReport &R) override {
    std::lock_guard<std::mutex> Lock(M);
    Inner.onRace(R);
  }

private:
  std::mutex M;
  RaceSink &Inner;
};

DriverOptions driverOptions(const SessionOptions &Opts) {
  DriverOptions D;
  D.BatchSize = Opts.BatchSize;
  D.Parallel = Opts.Parallel;
  D.SampleFootprint = Opts.SampleFootprint;
  D.MaxStoredRaces = Opts.MaxStoredRaces;
  D.OnBatchPublish = Opts.OnBatchPublish;
  return D;
}

} // namespace

Session::Session(SessionOptions Opts)
    : Opts(Opts), Driver(driverOptions(Opts)) {}

Analysis &Session::add(AnalysisKind K) { return Driver.add(K); }

Analysis &Session::add(std::unique_ptr<Analysis> A) {
  Analysis &Ref = Driver.add(std::move(A));
  Ref.setMaxStoredRaces(Opts.MaxStoredRaces);
  return Ref;
}

void Session::addSink(RaceSink &S) { Fanout.addSink(S); }

RunReport Session::run(EventSource &Src) {
  // Wire the fan-out late so sinks added after the analyses still see
  // every report; skip the indirection entirely when no sink is attached.
  // Parallel mode fans analyses out to worker threads, so the shared
  // sinks go behind a serializing wrapper there.
  RaceSink *Wire = nullptr;
  if (!Fanout.empty()) {
    Wire = &Fanout;
    if (Opts.Parallel && Driver.size() > 1) {
      SerializedFanout = std::make_unique<SerializedSink>(Fanout);
      Wire = SerializedFanout.get();
    }
  }
  // A sink the caller attached directly with Analysis::setRaceSink() is
  // composed with (never clobbered by) the session fan-out. Wired
  // remembers what this session installed and CallerSinks what the
  // caller had, so a re-run neither mistakes the session's own wiring
  // for a caller's nor drops a caller sink folded into a tee.
  Wired.resize(Driver.size(), nullptr);
  CallerSinks.resize(Driver.size(), nullptr);
  for (size_t I = 0; I != Driver.size(); ++I) {
    Analysis &A = Driver.analysis(I);
    RaceSink *Own = A.raceSink();
    if (Wired[I] && Own == Wired[I])
      Own = CallerSinks[I]; // unchanged since our last wiring
    else
      CallerSinks[I] = Own;
    if (!Wire) {
      A.setRaceSink(Own);
      Wired[I] = nullptr;
      continue;
    }
    RaceSink *Install = Wire;
    if (Own) {
      auto Both = std::make_unique<TeeSink>();
      Both->addSink(*Own);
      Both->addSink(*Wire);
      Install = Both.get();
      PerAnalysisTees.push_back(std::move(Both));
    }
    A.setRaceSink(Install);
    Wired[I] = Install;
  }

  // Warn/Strict interpose the lint pass between the source and the
  // driver. The wrapper always cuts delivery just before the first
  // error-severity event (the cores require well-formed streams); Strict
  // additionally marks the run rejected so no analysis result escapes.
  LintOptions LintOpts;
  LintOpts.MaxStoredDiagnostics = Opts.MaxStoredDiagnostics;
  LintEngine Lint(LintOpts);
  std::unique_ptr<LintingEventSource> Linted;
  EventSource *Input = &Src;
  if (Opts.Validation != ValidationMode::Off) {
    addAllRules(Lint);
    Linted = std::make_unique<LintingEventSource>(
        Src, Lint, Opts.Validation == ValidationMode::Strict);
    Input = Linted.get();
  }

  std::vector<Event> Captured;
  if (Opts.Vindicate) {
    // Vindication replays the trace, so it is the one mode that buffers
    // the event stream.
    CapturingEventSource Tee(*Input, Captured);
    Driver.run(Tee);
  } else {
    Driver.run(*Input);
  }

  RunReport Rep;
  Rep.Stream = Driver.streamStats();
  Rep.WallSeconds = Driver.wallSeconds();
  if (Linted) {
    Lint.finish(); // idempotent; already done on a clean end of stream
    Rep.Validation.Ran = true;
    Rep.Validation.Rejected = Linted->rejected();
    Rep.Validation.Diagnostics = Lint.diagnostics();
    Rep.Validation.Errors = Lint.errorCount();
    Rep.Validation.Warnings = Lint.warningCount();
    Rep.Validation.Notes = Lint.noteCount();
    Rep.Validation.Dropped = Lint.droppedDiagnostics();
    if (Rep.Validation.Rejected)
      // Never a partial analysis result: a rejected run reports its
      // diagnostics and stream statistics, nothing else.
      return Rep;
  }

  Trace CapturedTr(std::move(Captured));
  for (size_t I = 0; I != Driver.size(); ++I) {
    const AnalysisDriver::Slot &S = Driver.slot(I);
    const Analysis &A = *S.A;
    AnalysisRunResult R;
    R.Name = A.name();
    R.DynamicRaces = A.dynamicRaces();
    R.StaticRaces = A.staticRaces();
    R.Seconds = S.Seconds;
    R.PeakFootprintBytes = S.PeakFootprintBytes;
    R.FinalFootprintBytes = S.FinalFootprintBytes;
    if (const CaseStats *Cs = A.caseStats()) {
      R.HasCaseStats = true;
      R.Cases = *Cs;
    }
    R.Races = A.raceRecords();
    if (Opts.Vindicate) {
      R.Vindications.reserve(R.Races.size());
      for (const RaceReport &RR : R.Races)
        R.Vindications.push_back(
            vindicateRaceAtEvent(CapturedTr, RR.EventIdx));
    }
    Rep.TotalDynamicRaces += R.DynamicRaces;
    Rep.Analyses.push_back(std::move(R));
  }
  return Rep;
}
