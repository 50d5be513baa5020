//===- lint/Lint.h - Streaming trace diagnostics engine ---------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The streaming static-analysis pass over event traces: a LintEngine owns
/// a registry of StreamRules and feeds them events one at a time or batch
/// at a time (the engine layer's chunk size), collecting LintDiagnostics
/// without ever latching — every violation in the input is reported, not
/// just the first. The built-in rules span the hard well-formedness
/// contract the analyses are sound under (paper §2.1) and soft trace
/// pathologies that degrade prediction quality. Streams are linted by
/// LintingEventSource (lint/LintingEventSource.h) — openEventSource's
/// validation, Session's Warn/Strict modes and the st-lint CLI all wrap
/// their decoder in it — and materialized traces by lintEvents().
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_LINT_LINT_H
#define SMARTTRACK_LINT_LINT_H

#include "lint/Diagnostics.h"
#include "trace/Event.h"

#include <functional>
#include <memory>
#include <vector>

namespace st {

class LintEngine;
class Trace;
class TraceTextParser;

/// Advisory id-space sizes declared by the input (the STB header); all
/// zero when the input declares nothing. Rules that check declarations
/// (SiteOutOfTable) only fire on nonzero fields.
struct LintDeclared {
  uint64_t Threads = 0;
  uint64_t Vars = 0;
  uint64_t Locks = 0;
  uint64_t Volatiles = 0;
  uint64_t Sites = 0;
  uint64_t Events = 0;
};

/// One streaming lint rule. Rules see every event in stream
/// order and report through the engine; onEnd runs once when the stream
/// finishes cleanly (end-of-trace lints). When a rule reports an
/// error-severity diagnostic the engine skips the remaining rules for
/// that event (the event is poisoned; later rules may rely on earlier
/// ones, e.g. id-range checking guards dense indexing).
class StreamRule {
public:
  virtual ~StreamRule() = default;

  virtual void onEvent(const Event &E, LintEngine &Eng) = 0;

  /// End-of-stream hook; default none.
  virtual void onEnd(LintEngine &Eng) { (void)Eng; }
};

/// Engine tuning knobs.
struct LintOptions {
  /// Cap on retained diagnostics; severity counters keep counting past
  /// it (droppedDiagnostics() tells how many were not stored).
  size_t MaxStoredDiagnostics = 1024;
};

/// Streaming diagnostics engine: registry of rules + bounded diagnostic
/// store + severity accounting. Non-latching: processing continues past
/// any violation. O(id-space) memory, independent of stream length.
class LintEngine {
public:
  /// Largest accepted dense id + 1, for every id space. Ids are dense by
  /// construction (Types.h), so anything near this bound is a corrupt or
  /// hostile input; the cap keeps per-id state (here and in the analysis
  /// cores downstream) from being sized off untrusted bytes.
  static constexpr uint32_t MaxCheckableIds = 1u << 22;

  explicit LintEngine(LintOptions Opts = LintOptions());

  /// Appends \p R to the registry; rules run in registration order.
  void addRule(std::unique_ptr<StreamRule> R);

  /// Id-space sizes the input declared (STB header); advisory.
  void setDeclared(const LintDeclared &D) { Declared = D; }
  const LintDeclared &declared() const { return Declared; }

  /// Name tables rule messages spell ids with: the text parser's
  /// thread, variable, lock and volatile names. Null (STB and in-memory
  /// inputs) spells the canonical T<id>/x<id>/m<id>/v<id>. Not owned;
  /// read only while a rule reports.
  void setNames(const TraceTextParser *P) { Names = P; }
  const TraceTextParser *names() const { return Names; }

  /// Provenance attached to diagnostics for subsequently processed
  /// events: the decoder's current source line (text) and byte offset
  /// (binary). Zero means unknown.
  void setProvenance(uint32_t Line, uint64_t Byte) {
    CurLine = Line;
    CurByte = Byte;
  }

  /// Invoked once per retained diagnostic, at report time — lets a CLI
  /// stream findings out in O(1) memory while the store stays bounded.
  void setDiagnosticCallback(
      std::function<void(const LintDiagnostic &)> Fn) {
    Callback = std::move(Fn);
  }

  /// Feeds one event through every rule.
  void processEvent(const Event &E);

  /// Feeds a contiguous chunk — the batch-at-a-time entry point matching
  /// the engine layer's EventSource chunks.
  void processBatch(const Event *Events, size_t N);

  /// Runs every rule's end-of-stream hook. Idempotent.
  void finish();
  bool finished() const { return Finished; }

  /// Reports a diagnostic about the event currently being processed (or
  /// a stream-level one when no event is current) at \p Code's default
  /// severity. Rules call this; CLIs use it for decode failures.
  void report(LintCode Code, std::string Message);

  /// As report(), with an explicit severity override.
  void reportAs(LintCode Code, LintSeverity Severity, std::string Message);

  /// True when a diagnostic reported now is kept: stored, or passed to
  /// the callback. Past the store's cap with no callback, report() only
  /// counts it, so rules may pass an empty message instead of building
  /// one.
  bool keepsDiagnostics() const {
    return Callback || Diags.size() < Opts.MaxStoredDiagnostics;
  }

  const std::vector<LintDiagnostic> &diagnostics() const { return Diags; }
  uint64_t droppedDiagnostics() const { return Dropped; }

  uint64_t errorCount() const { return Errors; }
  uint64_t warningCount() const { return Warnings; }
  uint64_t noteCount() const { return Notes; }
  bool hasErrors() const { return Errors != 0; }

  /// Events fed so far (the stream index assigned to the next event).
  uint64_t eventsProcessed() const { return Events; }

  /// First retained error-severity diagnostic, or null.
  const LintDiagnostic *firstError() const;

  /// Aggregated one-line rendering of the retained diagnostics: the
  /// first \p MaxListed joined by "; ", plus a trailing "... and N more"
  /// when the store holds more. Empty when there are none.
  std::string summaryString(size_t MaxListed = 4) const;

private:
  LintOptions Opts;
  std::vector<std::unique_ptr<StreamRule>> Rules;
  std::vector<LintDiagnostic> Diags;
  std::function<void(const LintDiagnostic &)> Callback;
  LintDeclared Declared;
  const TraceTextParser *Names = nullptr;
  const Event *CurEvent = nullptr;
  uint64_t Events = 0;
  uint32_t CurLine = 0;
  uint64_t CurByte = 0;
  uint64_t Errors = 0, Warnings = 0, Notes = 0, Dropped = 0;
  bool EventPoisoned = false;
  bool Finished = false;
};

/// Registers the hard well-formedness rules (errors only): id-range,
/// lock-discipline, thread-lifecycle. This is the set openEventSource
/// validates every stream with, and Trace::validate every trace.
void addHardRules(LintEngine &Eng);

/// Registers the soft lint rules (warnings/notes): held-at-end, unjoined
/// threads, empty critical sections, volatile/data aliasing, declared
/// site-table range, id-space density.
void addSoftRules(LintEngine &Eng);

/// Hard + soft: the full st-lint / Session-validation rule set.
void addAllRules(LintEngine &Eng);

/// Registers the hard rules (plus the soft ones when \p SoftRules), feeds
/// \p Events through \p Eng and finishes: the one lint loop over a
/// materialized trace, behind Trace::validate, TraceBuilder::build and
/// lintTrace.
void lintEvents(LintEngine &Eng, const std::vector<Event> &Events,
                bool SoftRules);

/// Lints a materialized trace with the given rule set and returns every
/// diagnostic (convenience over lintEvents, for tests).
std::vector<LintDiagnostic> lintTrace(const Trace &Tr, bool SoftRules = true,
                                      LintOptions Opts = LintOptions());

} // namespace st

#endif // SMARTTRACK_LINT_LINT_H
