//===- lint/LintingEventSource.h - Validating source wrapper ----*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An EventSource adapter that runs a LintEngine over every chunk before
/// handing it to the consumer. Delivery always stops just before the first
/// event with an error-severity finding: the analysis cores require
/// well-formed streams (paper §2.1), so the offending event — and anything
/// after it, which is only sound to analyze in stream order — never
/// reaches them in either mode. The rest of the stream is still drained
/// through the engine so the report covers every violation, not just the
/// first. The Reject flag (Session Strict) additionally marks the whole
/// run rejected; without it (Session Warn) the consumer keeps the results
/// it computed over the delivered well-formed prefix.
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
  /// caller (Session registers the full set, tests register subsets).
  /// The engine's names are set from Inner.textParser() on every read.
  LintingEventSource(EventSource &Inner, LintEngine &Eng, bool Reject)
      : Inner(Inner), Eng(Eng), Reject(Reject) {}

  size_t read(Event *Buf, size_t Max) override;
  bool error(std::string *Msg = nullptr) const override;

  /// True once an error-severity finding (or an inner decode error) has
  /// marked the run rejected (Reject mode only).
  bool rejected() const { return Rejected; }

  /// True once an error cut delivery short (either mode).
  bool cut() const { return Cut; }

private:
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
