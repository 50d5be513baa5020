//===- report/Session.h - One-stop analysis session facade -----*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The consumer-facing entry point to the whole pipeline, and the one path
/// from an EventSource to a RunReport. A Session runs any number of
/// registered analyses over ONE shared EventSource in a single pass: it
/// pulls chunked batches and fans each batch out to every analysis, so an
/// input streams through the whole Table 1 ladder with one parse and
/// O(analysis-metadata) memory. Races fan out to RaceSinks; vindication
/// is optional. In Parallel mode one worker thread per analysis consumes
/// a double-buffered batch ring while the next batch decodes. The CLIs,
/// the benches, and downstream users all sit on this.
///
///   Session S({.MaxStoredRaces = 100});
///   S.add(AnalysisKind::STWDC);
///   S.addSink(MyLiveSink);              // optional: races stream out
///   RunReport Rep = S.run(Source);      // one pass, any number of
///   Rep.Analyses[0].DynamicRaces;       // analyses
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_REPORT_SESSION_H
#define SMARTTRACK_REPORT_SESSION_H

#include "analysis/AnalysisRegistry.h"
#include "engine/EventSource.h"
#include "graph/EdgeRecorder.h"
#include "lint/Diagnostics.h"
#include "report/RaceSink.h"
#include "vindicate/Vindicator.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace st {

/// How a Session treats the lint pass (the full hard + soft rule set,
/// lint/Lint.h) over its input stream.
///
/// Off: no lint pass (openEventSource still enforces hard well-formedness
/// unless opened with Validate=false). In Warn and Strict the
/// full rule set runs ahead of the analyses and diagnostics land in
/// RunReport::Validation; in both, delivery stops just before the first
/// event with an error-severity finding — the cores require well-formed
/// streams, so the offending event (and everything after it, which is
/// only sound to analyze in stream order) never reaches them — while the
/// rest of the input is drained for a complete diagnosis. Warn then
/// reports the analyses' results over the delivered well-formed prefix;
/// Strict marks the run rejected and reports no analysis results at all.
/// (Streaming sinks may have seen races from the validated prefix before
/// the rejection point; a Strict report itself carries none.)
enum class ValidationMode : uint8_t { Off, Warn, Strict };

/// Everything a run can be configured with.
struct SessionOptions {
  /// Events per engine batch (also the footprint sampling period).
  size_t BatchSize = 1 << 14;
  /// Thread-per-analysis fan-out over the shared batch ring.
  bool Parallel = false;
  /// Track peak footprintBytes() per analysis (sampled once per batch).
  bool SampleFootprint = false;
  /// Cap on reports retained per analysis (counting and attached sinks
  /// are unaffected) — the bound that keeps multi-million-race runs in
  /// O(1) race memory.
  size_t MaxStoredRaces = SIZE_MAX;
  /// Buffer the stream and vindicate every retained race after the run
  /// (the one mode that is not O(analysis-metadata) in space).
  bool Vindicate = false;
  /// Lint pass over the input stream (see ValidationMode).
  ValidationMode Validation = ValidationMode::Off;
  /// Cap on lint diagnostics retained by the validation pass (severity
  /// counters keep counting past it; the overflow lands in
  /// ValidationReport::Dropped). st-analyze --max-diags and per-client
  /// server budgets tune this.
  size_t MaxStoredDiagnostics = 1024;
  /// Read-ahead chunk size for the decoding stack a consumer assembles
  /// for this session (openEventSource OpenOptions::BufferBytes). The
  /// Session itself never opens sources, but the knob lives here so one
  /// options struct carries the whole per-stream budget — st-serve sizes
  /// per-connection decode buffers from it.
  size_t IoBufferBytes = DefaultIoBufferBytes;
  /// Invoked at the engine's per-batch quiet point: the next batch is
  /// fully decoded and about to be handed to the analyses, and neither
  /// the decoder nor any worker thread is running. Decoder-owned state
  /// that grows during decode (the text parser's name tables) is safe to
  /// read exactly here — st-analyze refreshes its NDJSON symbol
  /// snapshots through this.
  std::function<void()> OnBatchPublish;
};

/// Everything one analysis contributed to a run, copied out so the report
/// outlives the session.
struct AnalysisRunResult {
  std::string Name;
  uint64_t DynamicRaces = 0;
  unsigned StaticRaces = 0;
  /// Wall time this analysis spent consuming batches.
  double Seconds = 0;
  /// Peak/final footprintBytes() (0 unless SampleFootprint).
  size_t PeakFootprintBytes = 0;
  size_t FinalFootprintBytes = 0;
  /// Table 12 case frequencies (HasCaseStats false for analyses that do
  /// not track them).
  bool HasCaseStats = false;
  CaseStats Cases;
  /// The retained reports (first MaxStoredRaces of the run).
  std::vector<RaceReport> Races;
  /// Parallel to Races when SessionOptions::Vindicate; empty otherwise.
  std::vector<VindicationResult> Vindications;
};

/// What the lint pass found over one run's input (empty/inert when
/// SessionOptions::Validation was Off).
struct ValidationReport {
  /// True when a lint pass ran (Warn or Strict).
  bool Ran = false;
  /// True when Strict mode withheld the stream from the analyses.
  bool Rejected = false;
  /// Every retained diagnostic, in stream order.
  std::vector<LintDiagnostic> Diagnostics;
  uint64_t Errors = 0, Warnings = 0, Notes = 0;
  /// Diagnostics beyond the engine's store cap (counted, not retained).
  uint64_t Dropped = 0;
};

/// The result of one Session::run(): stream statistics plus a per-analysis
/// results slice, as one self-contained struct.
struct RunReport {
  /// Id-space maxima and event count of the streamed input.
  StreamStats Stream;
  /// Wall-clock seconds of the whole run (decode + all analyses).
  double WallSeconds = 0;
  uint64_t TotalDynamicRaces = 0;
  std::vector<AnalysisRunResult> Analyses;
  /// Lint findings (ValidationMode Warn/Strict).
  ValidationReport Validation;

  bool anyRaces() const { return TotalDynamicRaces != 0; }
  /// True when Strict validation rejected the input: Analyses is empty
  /// and no analysis result is reported, partial or otherwise.
  bool rejected() const { return Validation.Rejected; }
};

/// EventSource → analyses → sinks in one pass. Configure with add()
/// and addSink(), then run() exactly once per input stream; analyses
/// accumulate state across runs (streaming semantics), so use a fresh
/// Session per independent input.
class Session {
public:
  explicit Session(SessionOptions Opts = SessionOptions());

  /// Registers a registry analysis (creating its constraint-graph
  /// recorder when the kind needs one).
  Analysis &add(AnalysisKind K);

  /// Registers an externally constructed analysis.
  Analysis &add(std::unique_ptr<Analysis> A);

  /// Attaches \p S to receive every registered analysis's race reports at
  /// detection time (RaceReport::AnalysisName identifies the producer).
  /// Borrowed; must outlive run(). In Parallel sessions the analyses run
  /// on worker threads, so the session serializes sink calls — sinks
  /// never need their own locking. Composes with (never replaces) a sink
  /// attached to one analysis via Analysis::setRaceSink().
  void addSink(RaceSink &S);

  /// Streams \p Src to completion through every registered analysis in
  /// one pass and returns the collected report. With zero analyses this
  /// is the uninstrumented drain (stream statistics only). Check
  /// Src.error() afterwards for truncated/malformed inputs.
  RunReport run(EventSource &Src);

  size_t analysisCount() const { return Slots.size(); }
  Analysis &analysis(size_t I) { return *Slots[I].A; }

private:
  /// One registered analysis, its per-run measurements, and its sink
  /// wiring.
  struct Slot {
    std::unique_ptr<Analysis> A;
    /// Constraint-graph recording for the w/G configurations (null
    /// otherwise); owned here so the graph outlives the analysis.
    std::unique_ptr<EdgeRecorder> Graph;
    /// Wall time this analysis spent consuming batches.
    double Seconds = 0;
    /// Peak sampled / final footprintBytes() (0 unless SampleFootprint).
    /// Peak vs. final separates transient spikes from retained metadata.
    size_t PeakFootprintBytes = 0;
    size_t FinalFootprintBytes = 0;
    /// What run() installed as the analysis's sink, and what the caller
    /// had attached, so a re-run can tell a caller's sink from the
    /// session's own wiring and never drop it.
    RaceSink *Wired = nullptr;
    RaceSink *CallerSink = nullptr;
  };

  Analysis &addSlot(Slot S);
  void wireSinks();
  /// Streams \p Src through every analysis, fills Stream, and returns
  /// the wall seconds of the pass (decode + all analyses).
  double drive(EventSource &Src);
  void driveSequential(EventSource &Src);
  void driveParallel(EventSource &Src);
  /// Pulls one full batch (looping over short reads) into \p Buf and
  /// folds it into Stream.
  size_t fillBatch(EventSource &Src, Event *Buf);
  /// Times one batch through \p S and samples its footprint.
  void consume(Slot &S, const Event *Batch, size_t N);

  SessionOptions Opts;
  std::vector<Slot> Slots;
  StreamStats Stream;
  TeeSink Fanout;
  /// Mutex-guarded wrapper over Fanout, wired instead of it when the
  /// parallel engine mode could invoke sinks from several workers.
  std::unique_ptr<RaceSink> SerializedFanout;
  /// Per-analysis tees composing a caller-attached sink with the
  /// session fan-out.
  std::vector<std::unique_ptr<TeeSink>> PerAnalysisTees;
};

} // namespace st

#endif // SMARTTRACK_REPORT_SESSION_H
