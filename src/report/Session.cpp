//===- report/Session.cpp - One-stop analysis session facade --------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "report/Session.h"

#include "lint/LintingEventSource.h"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

using namespace st;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

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

} // namespace

Session::Session(SessionOptions Opts) : Opts(std::move(Opts)) {}

Analysis &Session::addSlot(Slot S) {
  S.A->setMaxStoredRaces(Opts.MaxStoredRaces);
  Slots.push_back(std::move(S));
  return *Slots.back().A;
}

Analysis &Session::add(AnalysisKind K) {
  Slot S;
  if (buildsGraph(K))
    S.Graph = std::make_unique<EdgeRecorder>();
  S.A = createAnalysis(K, S.Graph.get());
  return addSlot(std::move(S));
}

Analysis &Session::add(std::unique_ptr<Analysis> A) {
  Slot S;
  S.A = std::move(A);
  return addSlot(std::move(S));
}

void Session::addSink(RaceSink &S) { Fanout.addSink(S); }

void Session::wireSinks() {
  // Wire the fan-out late so sinks added after the analyses still see
  // every report; skip the indirection entirely when no sink is attached.
  // Parallel mode fans analyses out to worker threads, so the shared
  // sinks go behind a serializing wrapper there.
  RaceSink *Wire = nullptr;
  if (!Fanout.empty()) {
    Wire = &Fanout;
    if (Opts.Parallel && Slots.size() > 1) {
      SerializedFanout = std::make_unique<SerializedSink>(Fanout);
      Wire = SerializedFanout.get();
    }
  }
  // A sink the caller attached directly with Analysis::setRaceSink() is
  // composed with (never clobbered by) the session fan-out.
  for (Slot &S : Slots) {
    RaceSink *Own = S.A->raceSink();
    if (S.Wired && Own == S.Wired)
      Own = S.CallerSink; // unchanged since our last wiring
    else
      S.CallerSink = Own;
    if (!Wire) {
      S.A->setRaceSink(Own);
      S.Wired = nullptr;
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
    S.A->setRaceSink(Install);
    S.Wired = Install;
  }
}

size_t Session::fillBatch(EventSource &Src, Event *Buf) {
  size_t N = 0;
  while (N < Opts.BatchSize) {
    size_t Got = Src.read(Buf + N, Opts.BatchSize - N);
    if (Got == 0)
      break;
    N += Got;
  }
  for (size_t I = 0; I != N; ++I)
    Stream.observe(Buf[I]);
  return N;
}

void Session::consume(Slot &S, const Event *Batch, size_t N) {
  auto T0 = Clock::now();
  S.A->processBatch(Batch, N);
  S.Seconds += secondsSince(T0);
  if (Opts.SampleFootprint) {
    size_t Bytes = S.A->footprintBytes();
    if (Bytes > S.PeakFootprintBytes)
      S.PeakFootprintBytes = Bytes;
  }
}

double Session::drive(EventSource &Src) {
  Stream = StreamStats();
  auto Start = Clock::now();
  if (Opts.Parallel && Slots.size() > 1)
    driveParallel(Src);
  else
    driveSequential(Src);
  double Wall = secondsSince(Start);
  if (Opts.SampleFootprint) {
    for (Slot &S : Slots) {
      S.FinalFootprintBytes = S.A->footprintBytes();
      if (S.FinalFootprintBytes > S.PeakFootprintBytes)
        S.PeakFootprintBytes = S.FinalFootprintBytes;
    }
  }
  return Wall;
}

void Session::driveSequential(EventSource &Src) {
  std::vector<Event> Batch(Opts.BatchSize);
  for (;;) {
    size_t N = fillBatch(Src, Batch.data());
    if (N == 0)
      break;
    if (Opts.OnBatchPublish)
      Opts.OnBatchPublish();
    for (Slot &S : Slots)
      consume(S, Batch.data(), N);
  }
}

void Session::driveParallel(EventSource &Src) {
  // Double-buffered batch ring: workers consume the published batch while
  // this thread decodes the next one into the other buffer.
  std::vector<Event> Bufs[2];
  Bufs[0].resize(Opts.BatchSize);
  Bufs[1].resize(Opts.BatchSize);

  std::mutex M;
  std::condition_variable WorkReady, BatchDone;
  const Event *Data = nullptr;
  size_t Count = 0;
  uint64_t Generation = 0;
  size_t Remaining = 0;
  bool Stop = false;

  auto Worker = [&](Slot &S) {
    uint64_t Seen = 0;
    for (;;) {
      const Event *MyData;
      size_t MyCount;
      {
        std::unique_lock<std::mutex> Lk(M);
        WorkReady.wait(Lk, [&] { return Stop || Generation != Seen; });
        if (Stop && Generation == Seen)
          return;
        Seen = Generation;
        MyData = Data;
        MyCount = Count;
      }
      consume(S, MyData, MyCount);
      {
        std::lock_guard<std::mutex> Lk(M);
        if (--Remaining == 0)
          BatchDone.notify_one();
      }
    }
  };

  std::vector<std::thread> Threads;
  Threads.reserve(Slots.size());
  for (Slot &S : Slots)
    Threads.emplace_back(Worker, std::ref(S));

  size_t Cur = 0;
  size_t N = fillBatch(Src, Bufs[Cur].data());
  while (N > 0) {
    // Quiet point: the workers finished the previous batch (or have not
    // started), this batch is fully decoded, and the overlap-decode of
    // the next one has not begun.
    if (Opts.OnBatchPublish)
      Opts.OnBatchPublish();
    {
      std::lock_guard<std::mutex> Lk(M);
      Data = Bufs[Cur].data();
      Count = N;
      Remaining = Slots.size();
      ++Generation;
    }
    WorkReady.notify_all();
    // Overlap: decode the next batch while the workers run this one.
    size_t Next = fillBatch(Src, Bufs[1 - Cur].data());
    {
      std::unique_lock<std::mutex> Lk(M);
      BatchDone.wait(Lk, [&] { return Remaining == 0; });
    }
    Cur = 1 - Cur;
    N = Next;
  }
  {
    std::lock_guard<std::mutex> Lk(M);
    Stop = true;
  }
  WorkReady.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

RunReport Session::run(EventSource &Src) {
  wireSinks();

  // Warn/Strict interpose the lint pass between the source and the
  // engine. The wrapper always cuts delivery just before the first
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

  RunReport Rep;
  std::vector<Event> Captured;
  if (Opts.Vindicate) {
    // Vindication replays the trace, so it is the one mode that buffers
    // the event stream.
    CapturingEventSource Tee(*Input, Captured);
    Rep.WallSeconds = drive(Tee);
  } else {
    Rep.WallSeconds = drive(*Input);
  }
  Rep.Stream = Stream;

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
  for (const Slot &S : Slots) {
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
