//===- lint/Diagnostics.h - Trace lint diagnostics --------------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The diagnostic vocabulary of the trace lint engine: stable STL0xx codes,
/// severities, and the LintDiagnostic record every rule emits. A diagnostic
/// carries the offending event's stream index and thread plus the decoder's
/// provenance (source line for the text DSL, byte offset for STB) so a
/// finding points at the input, not just at an event number. Codes are
/// append-only: once shipped, a code never changes meaning (docs/linting.md
/// is the catalog).
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_LINT_DIAGNOSTICS_H
#define SMARTTRACK_LINT_DIAGNOSTICS_H

#include "support/Types.h"

#include <string>

namespace st {

/// Severity of a lint finding. Error means the trace violates the
/// well-formedness contract the analyses are sound under (paper §2.1) and
/// must not reach a core; Warning flags pathologies that silently degrade
/// prediction quality; Note marks low-confidence suspicions.
enum class LintSeverity : uint8_t { Note, Warning, Error };

/// Stable diagnostic codes. The enumerator value is the numeric part of
/// the printed "STL0xx" id, so codes are append-only by construction:
/// 1-19 hard well-formedness (errors), 20+ soft lints.
enum class LintCode : uint16_t {
  /// acq(m) while m is held (no reentrancy in the trace model).
  AcquireHeld = 1,
  /// rel(m) by a thread that does not hold m.
  ReleaseUnheld = 2,
  /// An event on a thread that was already joined.
  RunAfterJoin = 3,
  /// fork(t) where t already ran events or was already forked.
  ForkOfStarted = 4,
  /// join(t) where t was already joined.
  DoubleJoin = 5,
  /// A thread forking or joining itself.
  SelfForkJoin = 6,
  /// An identifier outside the dense id-space cap (corrupt or hostile
  /// input; ids are dense by construction, Types.h).
  IdOutOfRange = 7,
  /// The input failed to decode (truncated/malformed STB or text DSL).
  MalformedInput = 8,
  /// A lock still held at the end of the stream (or when its holder is
  /// joined).
  LockHeldAtEnd = 20,
  /// A forked thread never joined by the end of the stream.
  UnjoinedThread = 21,
  /// acq(m) immediately followed by rel(m) with no intervening event by
  /// the same thread.
  EmptyCriticalSection = 22,
  /// One object (its spelled name for text input, else the numeric id)
  /// accessed both as a volatile and as a plain variable (suspected
  /// aliasing between the two id spaces).
  VolatileDataAlias = 23,
  /// An access site id at or beyond the input's declared site table.
  SiteOutOfTable = 24,
  /// A suspiciously sparse id space: the maximum id is near the
  /// LintEngine::MaxCheckableIds cap or far larger than the distinct-id
  /// count.
  SparseIdSpace = 25,
};

/// One lint finding.
struct LintDiagnostic {
  LintCode Code = LintCode::MalformedInput;
  LintSeverity Severity = LintSeverity::Error;
  /// Index of the offending event in the stream; UINT64_MAX for
  /// stream-level findings (end-of-trace lints, decode failures).
  uint64_t EventIdx = UINT64_MAX;
  /// Thread the finding is about (InvalidId when not thread-specific).
  ThreadId Tid = InvalidId;
  /// Source line of the offending event (text inputs; 0 when unknown).
  uint32_t Line = 0;
  /// Byte offset of the offending event (binary inputs; 0 when unknown).
  uint64_t Byte = 0;
  /// Human-readable description. Ids are spelled with the source's names
  /// when it has them (LintEngine::setNames), else as T<id>/m<id>/x<id>.
  std::string Message;

  bool streamLevel() const { return EventIdx == UINT64_MAX; }
};

/// The printed id of a code: "STL001".
const char *lintCodeId(LintCode C);

/// The default severity a code is reported at.
LintSeverity lintCodeSeverity(LintCode C);

/// One-line summary of what a code means (the docs/linting.md headline).
const char *lintCodeSummary(LintCode C);

/// "error" / "warning" / "note".
const char *lintSeverityName(LintSeverity S);

/// Canonical one-line rendering: "event 3 (line 7): error STL001: ...".
/// Stream-level diagnostics render as "end of stream: warning STL021: ...".
std::string formatDiagnostic(const LintDiagnostic &D);

} // namespace st

#endif // SMARTTRACK_LINT_DIAGNOSTICS_H
