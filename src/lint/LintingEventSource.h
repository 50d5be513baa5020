//===- lint/LintingEventSource.h - Validating source wrapper ----*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place a stream is linted: an EventSource adapter that runs a
/// LintEngine over every chunk before handing it to the consumer.
/// openEventSource (hard rules), Session Warn/Strict and st-lint (the full
/// set) all wrap their decoder in it. Delivery always stops just before
/// the first event with an error-severity finding: the analysis cores
/// require well-formed streams (paper §2.1), so the offending event — and
/// anything after it, which is only sound to analyze in stream order —
/// never reaches them in either mode. The rest of the stream is still
/// drained through the engine so the report covers every violation, not
/// just the first. The Reject flag (Session Strict) additionally marks the
/// whole run rejected; without it (Session Warn) the consumer keeps the
/// results it computed over the delivered well-formed prefix.
///
/// Provenance and declarations come from the wrapped source: each event's
/// line (text) or end byte (STB), the text parser's names, and the STB
/// header's declared id spaces.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_LINT_LINTINGEVENTSOURCE_H
#define SMARTTRACK_LINT_LINTINGEVENTSOURCE_H

#include "engine/EventSource.h"
#include "lint/Lint.h"

namespace st {

/// Wraps \p Inner, linting each chunk before delivery.
class LintingEventSource : public EventSource {
public:
  /// The engine must outlive the source; rules are registered by the
  /// caller (hard rules for plain validation, the full set for lint runs).
  LintingEventSource(EventSource &Inner, LintEngine &Eng, bool Reject)
      : Inner(Inner), Eng(Eng), Reject(Reject) {}

  size_t read(Event *Buf, size_t Max) override;
  bool error(std::string *Msg = nullptr) const override;
  const TraceTextParser *textParser() const override {
    return Inner.textParser();
  }
  const uint32_t *eventLines() const override { return Inner.eventLines(); }
  const uint64_t *eventBytes() const override { return Inner.eventBytes(); }
  const StbHeader *stbHeader() const override { return Inner.stbHeader(); }

  /// True once an error-severity finding (or an inner decode error) has
  /// marked the run rejected (Reject mode only).
  bool rejected() const { return Rejected; }

  /// True once an error cut delivery short (either mode).
  bool cut() const { return Cut; }

private:
  /// Lints \p N events Inner.read() just returned, each at its input
  /// position; returns the index of the first one with an error-severity
  /// finding, or \p N.
  size_t lint(const Event *Buf, size_t N);

  /// Pulls the rest of Inner through the engine without delivering it, so
  /// every violation in the input is diagnosed even after the cut.
  void drainInner();

  EventSource &Inner;
  LintEngine &Eng;
  bool Reject;
  bool Rejected = false;
  bool Cut = false;
  bool Done = false;
  std::string ErrorMsg;
};

} // namespace st

#endif // SMARTTRACK_LINT_LINTINGEVENTSOURCE_H
