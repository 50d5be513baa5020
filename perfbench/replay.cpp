//===- perfbench/replay.cpp - In-process side of the pipeline benchmark ---===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Helper for perfbench/run.py. It only calls the library's public API and
// changes no program code. Subcommands (flags are "--key value"):
//
//   gen     Writes one workload input from a seed: an STB file from a
//           DaCapo-like profile (--profile) or a text-DSL random trace
//           (--random T,V,L). With --analyses it also prints the race
//           counts of a Session fed straight from the generator, with no
//           encode or decode in between.
//   replay  Replays an st-analyze job in process: the same decoding stack,
//           Session options and output sink the CLI builds. The untraced
//           replay times the job; with --trace 1 a traced replay adds spans
//           around the calls into each layer (decode, lint, sinks) and
//           reports per-layer numbers.
//   serve   Drives a live st-serve open-loop through the loadgen library,
//           then checks every request against an in-process Session run on
//           the same payload bytes. With --traced-requests it also runs a
//           closed-loop client with per-stage spans, and traced in-process
//           replays of the same payloads.
//   spawn   "spawn REPORT PROGRAM ARGS...": runs one program and writes its
//           exit code, wall time and peak RSS to REPORT. A child's peak RSS
//           starts at its parent's (exec keeps the old address space's high
//           water mark), so programs are started from this small process
//           rather than from the Python script. SIGTERM and SIGINT are
//           forwarded to the program.
//
// The other subcommands print one JSON object on stdout.
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisRegistry.h"
#include "engine/EventSource.h"
#include "lint/Lint.h"
#include "lint/LintingEventSource.h"
#include "loadgen/ExpArrivals.h"
#include "loadgen/Loadgen.h"
#include "report/FrameSink.h"
#include "report/Session.h"
#include "serve/Frame.h"
#include "serve/Socket.h"
#include "trace/Stb.h"
#include "trace/TraceText.h"
#include "workload/RandomTrace.h"
#include "workload/Workload.h"

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <csignal>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace st;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t nsBetween(Clock::time_point A, Clock::time_point B) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(B - A).count());
}

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "perfbench-replay: %s\n", Msg.c_str());
  std::exit(1);
}

//===----------------------------------------------------------------------===//
// Arguments and JSON output
//===----------------------------------------------------------------------===//

class Args {
public:
  Args(int Argc, char **Argv) {
    for (int I = 2; I < Argc; ++I) {
      if (std::strncmp(Argv[I], "--", 2) != 0 || I + 1 == Argc)
        die(std::string("bad argument: ") + Argv[I]);
      Values[Argv[I] + 2] = Argv[I + 1];
      ++I;
    }
  }

  std::string str(const char *Key, const char *Default = nullptr) const {
    auto It = Values.find(Key);
    if (It != Values.end())
      return It->second;
    if (!Default)
      die(std::string("missing --") + Key);
    return Default;
  }

  uint64_t num(const char *Key, const char *Default = nullptr) const {
    std::string S = str(Key, Default);
    char *End = nullptr;
    unsigned long long V = std::strtoull(S.c_str(), &End, 10);
    if (End == S.c_str() || *End)
      die(std::string("bad --") + Key + ": " + S);
    return V;
  }

  double real(const char *Key, const char *Default = nullptr) const {
    std::string S = str(Key, Default);
    char *End = nullptr;
    double V = std::strtod(S.c_str(), &End);
    if (End == S.c_str() || *End)
      die(std::string("bad --") + Key + ": " + S);
    return V;
  }

  bool has(const char *Key) const { return Values.count(Key) != 0; }

private:
  std::map<std::string, std::string> Values;
};

std::vector<std::string> splitCommas(const std::string &S) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos <= S.size()) {
    size_t Comma = S.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = S.size();
    if (Comma > Pos)
      Out.push_back(S.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return Out;
}

std::vector<AnalysisKind> parseKinds(const std::string &List) {
  std::vector<AnalysisKind> Kinds;
  for (const std::string &Name : splitCommas(List)) {
    AnalysisKind K;
    if (!findAnalysisKind(Name.c_str(), K))
      die("unknown analysis " + Name);
    Kinds.push_back(K);
  }
  return Kinds;
}

/// Flat JSON object writer; keys are identifier-shaped.
class JsonObject {
public:
  JsonObject &num(const std::string &Key, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
    return raw(Key, Buf);
  }
  JsonObject &count(const std::string &Key, uint64_t V) {
    return raw(Key, std::to_string(V));
  }
  JsonObject &str(const std::string &Key, const std::string &V) {
    std::string Quoted;
    jsonAppendEscaped(Quoted, V);
    return raw(Key, Quoted);
  }
  JsonObject &raw(const std::string &Key, const std::string &Json) {
    Out += Out.size() > 1 ? "," : "";
    jsonAppendEscaped(Out, Key);
    Out += ':';
    Out += Json;
    return *this;
  }
  std::string done() const { return Out + "}"; }

private:
  std::string Out = "{";
};

/// Nearest-rank percentile (Q in (0, 1]).
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank =
      static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::max<size_t>(Rank, 1) - 1];
}

//===----------------------------------------------------------------------===//
// Tracing: spans kept in memory, written out when the run ends
//===----------------------------------------------------------------------===//

struct Span {
  const char *Name;
  uint64_t StartNs;
  uint64_t EndNs;
  int64_t Parent; // index into the span list, -1 for a root
  uint64_t Request;
};

/// Single-threaded span recorder: the parent of a span is whatever span is
/// open when it begins.
class Tracer {
public:
  size_t begin(const char *Name, uint64_t Request) {
    int64_t Parent = Open.empty() ? -1 : static_cast<int64_t>(Open.back());
    Spans.push_back({Name, now(), 0, Parent, Request});
    Open.push_back(Spans.size() - 1);
    return Spans.size() - 1;
  }

  /// Closes span \p Id (the innermost open one); returns its duration.
  uint64_t end(size_t Id) {
    Spans[Id].EndNs = now();
    Open.pop_back();
    return Spans[Id].EndNs - Spans[Id].StartNs;
  }

  void appendJsonLines(const std::string &Path) const {
    FILE *F = std::fopen(Path.c_str(), "ab");
    if (!F)
      die("cannot write " + Path);
    for (const Span &S : Spans)
      std::fprintf(F,
                   "{\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu,"
                   "\"parent\":%lld,\"request\":%llu}\n",
                   S.Name, static_cast<unsigned long long>(S.StartNs),
                   static_cast<unsigned long long>(S.EndNs),
                   static_cast<long long>(S.Parent),
                   static_cast<unsigned long long>(S.Request));
    std::fclose(F);
  }

private:
  uint64_t now() const { return nsBetween(Epoch, Clock::now()); }

  Clock::time_point Epoch = Clock::now();
  std::vector<Span> Spans;
  std::vector<size_t> Open;
};

/// Forwards an event source, recording one span per read() call.
class TimedEventSource : public EventSource {
public:
  TimedEventSource(EventSource &Inner, Tracer &T, const char *Name,
                   uint64_t Request)
      : Inner(Inner), T(T), Name(Name), Request(Request) {}

  size_t read(Event *Buf, size_t Max) override {
    size_t Id = T.begin(Name, Request);
    size_t N = Inner.read(Buf, Max);
    BusyNs += T.end(Id);
    return N;
  }
  bool error(std::string *Msg = nullptr) const override {
    return Inner.error(Msg);
  }

  uint64_t BusyNs = 0;

private:
  EventSource &Inner;
  Tracer &T;
  const char *Name;
  uint64_t Request;
};

/// Forwards race reports to the output sink, timing each call. Calls are
/// summed per reporting analysis rather than kept as spans: a span per
/// race would make the trace as large as the report.
class TimedRaceSink : public RaceSink {
public:
  explicit TimedRaceSink(RaceSink &Inner) : Inner(Inner) {}

  void onRace(const RaceReport &R) override {
    Clock::time_point T0 = Clock::now();
    Inner.onRace(R);
    uint64_t Ns = nsBetween(T0, Clock::now());
    // Analysis names have stable storage, so the pointer is the key.
    auto It = std::find_if(
        NsByAnalysis.begin(), NsByAnalysis.end(),
        [&](const auto &P) { return P.first == R.AnalysisName; });
    if (It == NsByAnalysis.end())
      NsByAnalysis.emplace_back(R.AnalysisName, Ns);
    else
      It->second += Ns;
    TotalNs += Ns;
    ++Calls;
  }

  uint64_t nsFor(const std::string &Analysis) const {
    for (const auto &[Name, Ns] : NsByAnalysis)
      if (Analysis == Name)
        return Ns;
    return 0;
  }

  std::vector<std::pair<const char *, uint64_t>> NsByAnalysis;
  uint64_t TotalNs = 0;
  uint64_t Calls = 0;

private:
  RaceSink &Inner;
};

/// Counts the bytes and lines the report layer writes.
class CountingByteSink : public ByteSink {
public:
  explicit CountingByteSink(ByteSink &Inner) : Inner(Inner) {}

  bool write(const char *Buf, size_t N) override {
    Bytes += N;
    Lines += static_cast<uint64_t>(std::count(Buf, Buf + N, '\n'));
    return Inner.write(Buf, N);
  }

  uint64_t Bytes = 0;
  uint64_t Lines = 0;

private:
  ByteSink &Inner;
};

//===----------------------------------------------------------------------===//
// Per-layer accounting of one traced job
//===----------------------------------------------------------------------===//

/// Self times (ns) of the layers of one or more traced jobs, summed.
struct LayerTimes {
  double WallNs = 0;       // root span: the whole job
  double DecodeNs = 0;     // decoder read() calls
  double LintNs = 0;       // lint read() minus the decoder inside it
  double EngineNs = 0;     // engine wall minus its timed children
  double SinkNs = 0;       // output sink calls
  double ToolsNs = 0;      // job set-up and teardown around Session::run
  std::map<std::string, double> AnalysisNs; // analysis minus its sinks
  uint64_t Events = 0;
  uint64_t InputBytes = 0;
  uint64_t Batches = 0;
  uint64_t Diagnostics = 0;
  uint64_t SinkCalls = 0;
  uint64_t BytesOut = 0;
  uint64_t LinesOut = 0;
  std::map<std::string, double> PeakFootprintMb;

  void add(const LayerTimes &O) {
    WallNs += O.WallNs;
    DecodeNs += O.DecodeNs;
    LintNs += O.LintNs;
    EngineNs += O.EngineNs;
    SinkNs += O.SinkNs;
    ToolsNs += O.ToolsNs;
    for (const auto &[K, V] : O.AnalysisNs)
      AnalysisNs[K] += V;
    Events += O.Events;
    InputBytes += O.InputBytes;
    Batches += O.Batches;
    Diagnostics += O.Diagnostics;
    SinkCalls += O.SinkCalls;
    BytesOut += O.BytesOut;
    LinesOut += O.LinesOut;
    for (const auto &[K, V] : O.PeakFootprintMb)
      PeakFootprintMb[K] = std::max(PeakFootprintMb[K], V);
  }

  /// |wall - sum of self times| / wall. The engine's self time comes from
  /// the engine's own clock (AnalysisDriver), so time inside Session::run
  /// that no layer owns shows up here instead of vanishing into a residual.
  double closureError() const {
    double Sum = DecodeNs + LintNs + EngineNs + SinkNs + ToolsNs;
    for (const auto &[K, V] : AnalysisNs)
      Sum += V;
    return WallNs > 0 ? std::fabs(WallNs - Sum) / WallNs : 0;
  }
};

/// Records the peak analysis footprints of a run made with
/// SessionOptions::SampleFootprint. Such runs are kept apart from the timed
/// ones: the footprint walk costs more than some of the layers it would sit
/// beside.
void notePeakFootprint(LayerTimes &L, const RunReport &Rep) {
  for (const AnalysisRunResult &A : Rep.Analyses)
    L.PeakFootprintMb[A.Name] =
        std::max(L.PeakFootprintMb[A.Name],
                 static_cast<double>(A.PeakFootprintBytes) / (1 << 20));
}

/// Fills the engine/analysis parts of \p L from a traced run's report.
/// \p FirstStageNs is the busy time of the outermost timed source (lint
/// when it runs, else the decoder).
void attributeRun(LayerTimes &L, const RunReport &Rep,
                  const TimedRaceSink *Sink, double FirstStageNs) {
  double AnalysisTotal = 0;
  for (const AnalysisRunResult &A : Rep.Analyses) {
    double SinkNs = Sink ? static_cast<double>(Sink->nsFor(A.Name)) : 0;
    L.AnalysisNs[A.Name] += A.Seconds * 1e9 - SinkNs;
    AnalysisTotal += A.Seconds * 1e9;
  }
  double EngineWallNs = Rep.WallSeconds * 1e9;
  L.EngineNs += EngineWallNs - FirstStageNs - AnalysisTotal;
  if (Sink) {
    L.SinkNs += static_cast<double>(Sink->TotalNs);
    L.SinkCalls += Sink->Calls;
  }
  L.Events += Rep.Stream.Events;
}

std::string analysisCounts(const RunReport &Rep) {
  std::string Out = "[";
  for (const AnalysisRunResult &A : Rep.Analyses) {
    if (Out.size() > 1)
      Out += ',';
    uint64_t Nsea = A.Cases.nonSameEpochReads() + A.Cases.nonSameEpochWrites();
    Out += JsonObject()
               .str("name", A.Name)
               .count("dynamic", A.DynamicRaces)
               .count("static", A.StaticRaces)
               .num("nsea_frac",
                    A.HasCaseStats && Rep.Stream.Events
                        ? static_cast<double>(Nsea) /
                              static_cast<double>(Rep.Stream.Events)
                        : 0.0)
               .done();
  }
  return Out + "]";
}

std::string layerJson(const LayerTimes &L) {
  JsonObject J;
  J.num("wall_ns", L.WallNs)
      .num("decode_ns", L.DecodeNs)
      .num("lint_ns", L.LintNs)
      .num("engine_ns", L.EngineNs)
      .num("sink_ns", L.SinkNs)
      .num("tools_ns", L.ToolsNs)
      .num("closure_err_frac", L.closureError())
      .count("events", L.Events)
      .count("input_bytes", L.InputBytes)
      .count("batches", L.Batches)
      .count("diagnostics", L.Diagnostics)
      .count("sink_calls", L.SinkCalls)
      .count("bytes_out", L.BytesOut)
      .count("lines_out", L.LinesOut);
  JsonObject A, F;
  for (const auto &[K, V] : L.AnalysisNs)
    A.num(K, V);
  for (const auto &[K, V] : L.PeakFootprintMb)
    F.num(K, V);
  J.raw("analysis_ns", A.done()).raw("peak_footprint_mb", F.done());
  return J.done();
}

//===----------------------------------------------------------------------===//
// gen
//===----------------------------------------------------------------------===//

int cmdGen(const Args &A) {
  std::string OutPath = A.str("out");
  uint64_t Seed = A.num("seed");
  uint64_t Events = A.num("events");
  std::vector<AnalysisKind> Kinds = parseKinds(A.str("analyses", ""));
  SessionOptions SO;
  SO.MaxStoredRaces = 0; // only counts are compared
  Session S(SO);
  for (AnalysisKind K : Kinds)
    S.add(K);

  FILE *F = std::fopen(OutPath.c_str(), "wb");
  if (!F)
    die("cannot write " + OutPath);
  FileByteSink Sink(F);
  uint64_t Written = 0;
  bool Ok = true;
  RunReport Rep;
  if (A.has("profile")) {
    const WorkloadProfile *P = findProfile(A.str("profile").c_str());
    if (!P)
      die("unknown profile " + A.str("profile"));
    StbWriter W(Sink);
    Ok = W.writeHeader();
    WorkloadGenerator Gen(*P, Events, Seed);
    Event E;
    while (Ok && Events && Gen.next(E))
      Ok = W.writeEvent(E);
    Written = W.eventsWritten();
    if (!Kinds.empty()) {
      Gen.reset();
      GeneratorEventSource Src(Gen);
      Rep = S.run(Src);
    }
  } else {
    std::vector<std::string> Shape = splitCommas(A.str("random"));
    if (Shape.size() != 3)
      die("--random wants THREADS,VARS,LOCKS");
    RandomTraceConfig C;
    C.Threads = static_cast<unsigned>(std::stoul(Shape[0]));
    C.Vars = static_cast<unsigned>(std::stoul(Shape[1]));
    C.Locks = static_cast<unsigned>(std::stoul(Shape[2]));
    C.Events = static_cast<unsigned>(Events);
    C.Seed = Seed;
    std::vector<Event> Evs;
    if (Events)
      Evs = generateRandomTrace(C).events();
    for (size_t I = 0; Ok && I != Evs.size(); ++I)
      Ok = printTraceTextEvent(Evs[I], Sink);
    Written = Evs.size();
    if (!Kinds.empty()) {
      // The text DSL makes each access's source line its site (one event
      // per line here), so the generator's trace gets the same sites.
      for (size_t I = 0; I != Evs.size(); ++I)
        if (Evs[I].Site != InvalidId)
          Evs[I].Site = static_cast<SiteId>(I + 1);
      Trace Tr(std::move(Evs));
      TraceEventSource Src(Tr);
      Rep = S.run(Src);
    }
  }
  if (std::fclose(F) != 0 || !Ok)
    die("write failed: " + OutPath);

  std::printf("%s\n",
              JsonObject()
                  .count("events", Written)
                  .raw("expected", analysisCounts(Rep))
                  .count("hardware_concurrency",
                         std::thread::hardware_concurrency())
                  .done()
                  .c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// replay: one st-analyze job in process
//===----------------------------------------------------------------------===//

struct FileJob {
  std::string Input;
  std::string Output; // NDJSON race lines; empty for the text report
  std::vector<AnalysisKind> Kinds;
  bool Lint = false;
};

struct JobRun {
  double WallNs = 0;
  RunReport Rep;
  LayerTimes Layers; // traced runs only
};

/// Mirrors tools/st_analyze.cpp's local path. Untraced (T == nullptr) it
/// builds exactly what the CLI builds; traced, it wires the lint stage
/// itself (as Session does in Warn mode) so the decoder and lint reads can
/// be timed separately, and wraps the NDJSON sink. \p Footprint samples
/// analysis footprints (untraced runs only).
JobRun replayFile(const FileJob &J, Tracer *T, uint64_t Request,
                  const std::string &OutPath, bool Footprint = false) {
  JobRun R;
  Clock::time_point Start = Clock::now();
  size_t Root = T ? T->begin("tools.replay", Request) : 0;

  FILE *In = std::fopen(J.Input.c_str(), "rb");
  if (!In)
    die("cannot open " + J.Input);
  FILE *Out = nullptr;
  if (!J.Output.empty() && !(Out = std::fopen(OutPath.c_str(), "wb")))
    die("cannot write " + OutPath);
  FileByteSource Bytes(In);
  OpenOptions OO;
  OO.Validate = !J.Lint;
  OO.BufferBytes = SessionOptions().IoBufferBytes;
  OpenedEventSource Input = openEventSource(Bytes, OO);

  SessionOptions SO;
  SO.Validation =
      J.Lint && !T ? ValidationMode::Warn : ValidationMode::Off;
  SO.SampleFootprint = Footprint;
  const bool Ndjson = Out != nullptr;
  if (Ndjson)
    SO.MaxStoredRaces = 0;

  FileByteSink FileOut(Out);
  CountingByteSink Counted(FileOut);
  NdjsonSink Json(T ? static_cast<ByteSink &>(Counted) : FileOut);
  TimedRaceSink Timed(Json);
  uint64_t Batches = 0;
  if (Ndjson) {
    const TraceTextParser *P = Input.textParser();
    Json.setSymbols(P ? &P->threadNames() : nullptr,
                    P ? &P->varNames() : nullptr);
    SO.OnBatchPublish = [&Json, &Batches] {
      Json.refreshSymbols();
      ++Batches;
    };
  } else if (T) {
    SO.OnBatchPublish = [&Batches] { ++Batches; };
  }

  Session S(SO);
  for (AnalysisKind K : J.Kinds)
    S.add(K);
  if (Ndjson)
    S.addSink(T ? static_cast<RaceSink &>(Timed) : Json);

  double RunNs = 0;
  if (!T) {
    R.Rep = S.run(*Input.Events);
  } else {
    LintOptions LO;
    LO.MaxStoredDiagnostics = SO.MaxStoredDiagnostics;
    LintEngine Eng(LO);
    addAllRules(Eng);
    TimedEventSource Decode(*Input.Events, *T, "trace.decode", Request);
    LintingEventSource Linted(Decode, Eng, /*Reject=*/false);
    TimedEventSource LintRead(Linted, *T, "lint.read", Request);
    EventSource &Src = J.Lint ? static_cast<EventSource &>(LintRead) : Decode;
    size_t Run = T->begin("engine.run", Request);
    R.Rep = S.run(Src);
    RunNs = static_cast<double>(T->end(Run));
    Eng.finish();
    double First = static_cast<double>(J.Lint ? LintRead.BusyNs
                                              : Decode.BusyNs);
    R.Layers.DecodeNs = static_cast<double>(Decode.BusyNs);
    R.Layers.LintNs = J.Lint ? First - R.Layers.DecodeNs : 0;
    R.Layers.Diagnostics =
        J.Lint ? Eng.errorCount() + Eng.warningCount() + Eng.noteCount() : 0;
    attributeRun(R.Layers, R.Rep, Ndjson ? &Timed : nullptr, First);
  }
  std::string Err;
  if (Input.Events->error(&Err))
    die("replay parse error: " + Err);
  std::fclose(In);
  if (Out && std::fclose(Out) != 0)
    die("write failed: " + OutPath);

  R.WallNs = static_cast<double>(nsBetween(Start, Clock::now()));
  if (T) {
    T->end(Root);
    R.Layers.WallNs = R.WallNs;
    R.Layers.ToolsNs = R.WallNs - RunNs;
    R.Layers.Batches = Batches;
    R.Layers.BytesOut = Counted.Bytes;
    R.Layers.LinesOut = Counted.Lines;
  }
  return R;
}

int cmdReplay(const Args &A) {
  FileJob J;
  J.Input = A.str("input");
  J.Output = A.str("out", "");
  J.Kinds = parseKinds(A.str("analyses"));
  J.Lint = A.num("lint", "0") != 0;
  const bool Traced = A.num("trace", "0") != 0;
  const uint64_t RepIndex = A.num("rep", "0");
  std::string TracedOut = J.Output.empty() ? "" : J.Output + ".traced";

  FILE *In = std::fopen(J.Input.c_str(), "rb");
  if (!In)
    die("cannot open " + J.Input);
  std::fseek(In, 0, SEEK_END);
  uint64_t InputBytes = static_cast<uint64_t>(std::ftell(In));
  std::fclose(In);

  // One untraced and (with --trace 1) one traced replay; which goes first
  // alternates with --rep, so warm-up favours neither across a run.
  Tracer T;
  JobRun Plain, TracedRun;
  for (int Step = 0; Step != (Traced ? 2 : 1); ++Step) {
    if (Traced && (Step == 0) == (RepIndex % 2 == 1)) {
      TracedRun = replayFile(J, &T, RepIndex, TracedOut);
      TracedRun.Layers.InputBytes = InputBytes;
    } else {
      Plain = replayFile(J, nullptr, RepIndex, J.Output);
    }
  }

  JsonObject Out;
  Out.num("wall_ns", Plain.WallNs)
      .count("events", Plain.Rep.Stream.Events)
      .count("input_bytes", InputBytes)
      .raw("analyses", analysisCounts(Plain.Rep));
  if (Traced) {
    if (A.num("footprint", "0")) {
      JobRun FP =
          replayFile(J, nullptr, RepIndex, J.Output, /*Footprint=*/true);
      notePeakFootprint(TracedRun.Layers, FP.Rep);
    }
    Out.num("traced_wall_ns", TracedRun.WallNs)
        .raw("layers", layerJson(TracedRun.Layers));
    T.appendJsonLines(A.str("spans"));
  }
  std::printf("%s\n", Out.done().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// serve: open-loop load, request checks, traced closed-loop client
//===----------------------------------------------------------------------===//

/// One payload through an in-process Session set up the way st-serve sets
/// up a connection's (serve/Server.cpp): sequential, no stored races,
/// races streamed through a FrameSink.
struct PayloadRun {
  double WallNs = 0;
  uint64_t Races = 0;
  RunReport Rep;
  std::string RaceLines; // concatenated RACE frame payloads
  LayerTimes Layers;
};

PayloadRun runPayload(const std::vector<AnalysisKind> &Kinds,
                      const std::string &Payload, Tracer *T,
                      uint64_t Request, bool Footprint = false) {
  PayloadRun R;
  std::string Wire;
  double RunNs = 0;
  Clock::time_point Start = Clock::now();
  size_t Root = T ? T->begin("serve.inproc", Request) : 0;
  {
    MemoryByteSource Bytes(Payload);
    OpenOptions OO;
    OO.BufferBytes = SessionOptions().IoBufferBytes;
    OpenedEventSource Input = openEventSource(Bytes, OO);
    SessionOptions SO;
    SO.MaxStoredRaces = 0;
    SO.SampleFootprint = Footprint;
    uint64_t Batches = 0;
    if (T)
      SO.OnBatchPublish = [&Batches] { ++Batches; };
    Session S(SO);
    for (AnalysisKind K : Kinds)
      S.add(K);
    StringByteSink WireSink(Wire);
    CountingByteSink Counted(WireSink);
    FrameWriter Frames(T ? static_cast<ByteSink &>(Counted) : WireSink);
    FrameSink Races(Frames);
    TimedRaceSink Timed(Races);
    S.addSink(T ? static_cast<RaceSink &>(Timed) : Races);
    if (!T) {
      R.Rep = S.run(*Input.Events);
    } else {
      TimedEventSource Decode(*Input.Events, *T, "trace.decode", Request);
      size_t Run = T->begin("engine.run", Request);
      R.Rep = S.run(Decode);
      RunNs = static_cast<double>(T->end(Run));
      R.Layers.DecodeNs = static_cast<double>(Decode.BusyNs);
      attributeRun(R.Layers, R.Rep, &Timed, R.Layers.DecodeNs);
      R.Layers.Batches = Batches;
      R.Layers.InputBytes = Payload.size();
      R.Layers.BytesOut = Counted.Bytes;
      R.Layers.LinesOut = Timed.Calls;
    }
    if (Input.Events->error())
      die("in-process decode error on a request payload");
    R.Races = R.Rep.TotalDynamicRaces;
  }
  R.WallNs = static_cast<double>(nsBetween(Start, Clock::now()));
  if (T) {
    T->end(Root);
    R.Layers.WallNs = R.WallNs;
    R.Layers.ToolsNs = R.WallNs - RunNs;
  }
  // Unframe outside the timed region: the comparison is on the payloads.
  MemoryByteSource WireIn(Wire);
  FrameReader Reader(WireIn);
  Frame F;
  while (Reader.next(F) > 0)
    if (F.Type == FrameType::Race)
      R.RaceLines += F.Payload;
  return R;
}

/// Extracts "KEY":N from an NDJSON line; false when absent.
bool scanField(std::string_view Line, std::string_view Key, uint64_t &Out) {
  std::string Needle = "\"" + std::string(Key) + "\":";
  size_t P = Line.find(Needle);
  if (P == std::string_view::npos)
    return false;
  P += Needle.size();
  uint64_t V = 0;
  bool Any = false;
  for (; P < Line.size() && Line[P] >= '0' && Line[P] <= '9'; ++P) {
    V = V * 10 + static_cast<uint64_t>(Line[P] - '0');
    Any = true;
  }
  Out = V;
  return Any;
}

struct RequestRecord {
  bool Ok = false;
  uint64_t LatencyNs = 0;
  uint64_t ServiceNs = 0;
  uint64_t Races = 0;
  std::string RaceLines;
};

/// One closed-loop request with a span per client stage.
struct ClientStages {
  bool Ok = false;
  uint64_t ConnectNs = 0, HelloNs = 0, UploadNs = 0, SummaryWaitNs = 0;
  uint64_t TotalNs = 0, ServiceNs = 0, Races = 0;
  std::string RaceLines;
};

ClientStages tracedRequest(const ServeAddress &Addr,
                           const std::string &Hello,
                           const std::string &Payload, Tracer &T,
                           uint64_t Request) {
  ClientStages C;
  size_t Root = T.begin("serve.request", Request);
  size_t Id = T.begin("serve.connect", Request);
  int Fd = connectServeAddress(Addr, nullptr);
  C.ConnectNs = T.end(Id);
  if (Fd >= 0) {
    FdByteSink Out(Fd);
    FdByteSource In(Fd);
    FrameWriter Writer(Out);
    FrameReader Reader(In);
    Frame F;
    Id = T.begin("serve.hello_rtt", Request);
    bool Ok = Writer.write(FrameType::Hello, Hello) && Reader.next(F) > 0 &&
              F.Type == FrameType::Hello;
    C.HelloNs = T.end(Id);
    // Requests are small enough (a few KiB up, a few race lines down) to
    // fit the socket buffers, so one thread can upload, then read.
    Id = T.begin("serve.upload", Request);
    const size_t Chunk = 64 * 1024;
    for (size_t Off = 0; Ok && Off < Payload.size(); Off += Chunk)
      Ok = Writer.write(FrameType::Events,
                        std::string_view(Payload).substr(Off, Chunk));
    Ok = Ok && Writer.write(FrameType::Eos, std::string_view());
    ::shutdown(Fd, SHUT_WR);
    C.UploadNs = T.end(Id);
    Id = T.begin("serve.summary_wait", Request);
    bool Summary = false;
    while (Ok && !Summary && Reader.next(F) > 0) {
      if (F.Type == FrameType::Race)
        C.RaceLines += F.Payload;
      else if (F.Type == FrameType::Error)
        Ok = false;
      else if (F.Type == FrameType::Summary &&
               scanField(F.Payload, "total_dynamic_races", C.Races)) {
        Summary = true;
        scanField(F.Payload, "service_ns", C.ServiceNs);
      }
    }
    C.SummaryWaitNs = T.end(Id);
    C.Ok = Ok && Summary;
    closeFd(Fd);
  }
  C.TotalNs = T.end(Root);
  return C;
}

int cmdServe(const Args &A) {
  LoadgenOptions LO;
  LO.Connect = A.str("connect");
  LO.EventsPerSec = A.real("rate");
  LO.Connections = static_cast<unsigned>(A.num("connections"));
  LO.DurationSeconds = A.real("seconds");
  LO.Seed = A.num("seed");
  LO.Workload = A.str("profile");
  LO.Analyses = splitCommas(A.str("analyses"));
  LO.EventsPerRequest = A.num("events-per-request");
  std::vector<AnalysisKind> Kinds = parseKinds(A.str("analyses"));
  // Test hook for the benchmark's own self-test: a wrong expectation
  // must be caught by the request checks.
  const bool WrongExpected = A.str("inject", "none") == "wrong-expected";
  ServeAddress Addr;
  std::string Err;
  if (!parseServeAddress(LO.Connect, Addr, &Err))
    die(Err);

  // Open loop. The hook only records; all checking happens afterwards so
  // the workers stay on schedule.
  std::vector<std::vector<RequestRecord>> Records(LO.Connections);
  LO.OnRequest = [&Records](unsigned W, uint64_t R, const RequestOutcome &O) {
    std::vector<RequestRecord> &V = Records[W];
    if (V.size() <= R)
      V.resize(R + 1);
    V[R] = {O.Ok, O.LatencyNs, O.ServiceNs, O.Races, O.RaceBytes};
  };
  LoadgenReport Rep;
  if (!runLoadgen(LO, Rep, &Err))
    die(Err);

  // The schedule is a pure function of the seed: every arrival inside the
  // duration must have been attempted.
  uint64_t Scheduled = 0;
  const uint64_t DurationNs = static_cast<uint64_t>(LO.DurationSeconds * 1e9);
  for (unsigned W = 0; W != LO.Connections; ++W) {
    ExpArrivals Arr(arrivalSeed(LO.Seed, W), meanArrivalGapNs(LO));
    for (uint64_t Next = Arr.nextGapNs(); Next <= DurationNs;
         Next += Arr.nextGapNs())
      ++Scheduled;
  }

  uint64_t Mismatches = 0, Checked = 0;
  std::vector<double> Latency, Service, Queue;
  for (unsigned W = 0; W != LO.Connections; ++W) {
    for (uint64_t R = 0; R != Records[W].size(); ++R) {
      const RequestRecord &Rec = Records[W][R];
      if (!Rec.Ok)
        continue; // counted in Rep.Errors
      Latency.push_back(static_cast<double>(Rec.LatencyNs));
      Service.push_back(static_cast<double>(Rec.ServiceNs));
      Queue.push_back(static_cast<double>(Rec.LatencyNs) -
                      static_cast<double>(Rec.ServiceNs));
      PayloadRun In =
          runPayload(Kinds, buildRequestPayload(LO, W, R).Bytes, nullptr, R);
      uint64_t Expected = In.Races + (WrongExpected && Checked == 0 ? 1 : 0);
      ++Checked;
      if (Rec.Races != Expected || Rec.RaceLines != In.RaceLines)
        ++Mismatches;
    }
  }

  JsonObject Out;
  Out.count("scheduled", Scheduled)
      .count("requests", Rep.Requests)
      .count("completed", Rep.Completed)
      .count("errors", Rep.Errors)
      .count("checked", Checked)
      .count("mismatches", Mismatches)
      .count("late_sends", Rep.LateSends)
      .count("events_completed", Rep.EventsCompleted)
      .count("races", Rep.Races)
      .num("wall_s", Rep.WallSeconds)
      .num("offered_events_per_s", Rep.OfferedEventsPerSec)
      .num("achieved_events_per_s", Rep.AchievedEventsPerSec)
      .num("latency_p50_ns", percentile(Latency, 0.50))
      .num("latency_p99_ns", percentile(Latency, 0.99))
      .num("service_p50_ns", percentile(Service, 0.50))
      .num("queue_p50_ns", percentile(Queue, 0.50))
      .count("hardware_concurrency", std::thread::hardware_concurrency());

  uint64_t TracedRequests = A.num("traced-requests", "0");
  if (TracedRequests) {
    // Closed loop, one request at a time, so the client stages and the
    // server's service time are seen without queueing. Payloads are the
    // open loop's own (worker 0), replayed in process untraced and traced.
    HelloOptions H;
    H.Analyses = LO.Analyses;
    std::string Hello = encodeHello(H);
    Tracer T;
    std::vector<double> Connect, HelloRtt, Upload, SummaryWait, Svc, InProc,
        Overhead;
    LayerTimes Layers;
    RunReport Sum; // per-analysis counts summed over the traced requests
    double PlainNs = 0;
    uint64_t ClientFailures = 0;
    for (uint64_t R = 0; R != TracedRequests; ++R) {
      std::string Payload = buildRequestPayload(LO, 0, R).Bytes;
      ClientStages C = tracedRequest(Addr, Hello, Payload, T, R);
      // Alternate which in-process run goes first, so cache warmth
      // favours neither.
      PayloadRun Plain, Traced;
      if (R % 2) {
        Traced = runPayload(Kinds, Payload, &T, R);
        Plain = runPayload(Kinds, Payload, nullptr, R);
      } else {
        Plain = runPayload(Kinds, Payload, nullptr, R);
        Traced = runPayload(Kinds, Payload, &T, R);
      }
      Layers.add(Traced.Layers);
      PayloadRun FP =
          runPayload(Kinds, Payload, nullptr, R, /*Footprint=*/true);
      notePeakFootprint(Layers, FP.Rep);
      PlainNs += Plain.WallNs;
      Sum.Stream.Events += Plain.Rep.Stream.Events;
      Sum.Analyses.resize(Plain.Rep.Analyses.size());
      for (size_t I = 0; I != Sum.Analyses.size(); ++I) {
        AnalysisRunResult &To = Sum.Analyses[I];
        const AnalysisRunResult &From = Plain.Rep.Analyses[I];
        To.Name = From.Name;
        To.HasCaseStats = From.HasCaseStats;
        To.DynamicRaces += From.DynamicRaces;
        To.StaticRaces += From.StaticRaces;
        // Only the non-same-epoch totals are reported, so each request's
        // totals are summed into a single read case and write case.
        To.Cases.ReadOwned += From.Cases.nonSameEpochReads();
        To.Cases.WriteOwned += From.Cases.nonSameEpochWrites();
      }
      if (!C.Ok || C.Races != Plain.Races || C.RaceLines != Plain.RaceLines ||
          Traced.RaceLines != Plain.RaceLines) {
        ++ClientFailures;
        continue;
      }
      Connect.push_back(static_cast<double>(C.ConnectNs));
      HelloRtt.push_back(static_cast<double>(C.HelloNs));
      Upload.push_back(static_cast<double>(C.UploadNs));
      SummaryWait.push_back(static_cast<double>(C.SummaryWaitNs));
      Svc.push_back(static_cast<double>(C.ServiceNs));
      InProc.push_back(Plain.WallNs);
      Overhead.push_back(static_cast<double>(C.ServiceNs) - Plain.WallNs);
    }
    T.appendJsonLines(A.str("spans"));
    Out.raw("closed_loop",
            JsonObject()
                .count("requests", TracedRequests)
                .count("failures", ClientFailures)
                .num("connect_ns", percentile(Connect, 0.5))
                .num("hello_rtt_ns", percentile(HelloRtt, 0.5))
                .num("upload_ns", percentile(Upload, 0.5))
                .num("summary_wait_ns", percentile(SummaryWait, 0.5))
                .num("service_p50_ns", percentile(Svc, 0.5))
                .num("inproc_p50_ns", percentile(InProc, 0.5))
                .num("overhead_p50_ns", percentile(Overhead, 0.5))
                .num("plain_wall_ns", PlainNs)
                .raw("analyses", analysisCounts(Sum))
                .raw("layers", layerJson(Layers))
                .done());
  }
  std::printf("%s\n", Out.done().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// spawn
//===----------------------------------------------------------------------===//

volatile std::sig_atomic_t ChildPid = 0;

void forwardSignal(int Sig) {
  if (ChildPid > 0)
    ::kill(ChildPid, Sig);
}

int cmdSpawn(int Argc, char **Argv) {
  if (Argc < 4)
    die("usage: spawn REPORT PROGRAM [ARGS...]");
  struct sigaction Sa;
  std::memset(&Sa, 0, sizeof(Sa));
  Sa.sa_handler = forwardSignal;
  ::sigaction(SIGTERM, &Sa, nullptr);
  ::sigaction(SIGINT, &Sa, nullptr);

  Clock::time_point Start = Clock::now();
  pid_t Pid = ::fork();
  if (Pid < 0)
    die("fork failed");
  if (Pid == 0) {
    ::execv(Argv[3], Argv + 3);
    std::_Exit(127);
  }
  ChildPid = Pid;
  int Status = 0;
  struct rusage Ru;
  while (::wait4(Pid, &Status, 0, &Ru) < 0)
    if (errno != EINTR)
      die("wait4 failed");
  double Wall = static_cast<double>(nsBetween(Start, Clock::now())) / 1e9;
  int Exit = WIFEXITED(Status) ? WEXITSTATUS(Status) : -WTERMSIG(Status);

  FILE *F = std::fopen(Argv[2], "wb");
  if (!F)
    die(std::string("cannot write ") + Argv[2]);
  std::fprintf(F, "%s\n",
               JsonObject()
                   .raw("exit", std::to_string(Exit))
                   .num("wall_s", Wall)
                   .count("maxrss_kb", static_cast<uint64_t>(Ru.ru_maxrss))
                   .done()
                   .c_str());
  std::fclose(F);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr, "usage: perfbench-replay gen|replay|serve "
                         "[--key value]...\n");
    return 2;
  }
  std::string Cmd = Argv[1];
  if (Cmd == "spawn")
    return cmdSpawn(Argc, Argv);
  Args A(Argc, Argv);
  if (Cmd == "gen")
    return cmdGen(A);
  if (Cmd == "replay")
    return cmdReplay(A);
  if (Cmd == "serve")
    return cmdServe(A);
  die("unknown subcommand " + Cmd);
}
