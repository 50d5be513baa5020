//===- trace/Trace.h - Execution traces and the trace builder ---*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Trace is a totally ordered list of events representing a linearization
/// of a multithreaded execution (paper §2.1). Traces must be well formed: a
/// thread only acquires a free lock and only releases a lock it holds; forked
/// threads run no events before the fork; joined threads run no events after
/// the join. TraceBuilder offers a fluent API for tests and examples and
/// validates well-formedness eagerly, raising IllFormedTraceError (with the
/// full diagnostic list) in every build type.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_TRACE_TRACE_H
#define SMARTTRACK_TRACE_TRACE_H

#include "lint/Diagnostics.h"
#include "trace/Event.h"

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace st {

/// Thrown by TraceBuilder::build() (in all build types) when the built
/// trace violates well-formedness; carries every diagnostic, not just the
/// first.
class IllFormedTraceError : public std::runtime_error {
public:
  IllFormedTraceError(const std::string &What,
                      std::vector<LintDiagnostic> Diags)
      : std::runtime_error(What), Diags(std::move(Diags)) {}

  const std::vector<LintDiagnostic> &diagnostics() const { return Diags; }

private:
  std::vector<LintDiagnostic> Diags;
};

/// A totally ordered, well-formed execution trace.
class Trace {
public:
  Trace() = default;
  explicit Trace(std::vector<Event> Events);

  const std::vector<Event> &events() const { return Events; }
  const Event &operator[](size_t I) const { return Events[I]; }
  size_t size() const { return Events.size(); }
  bool empty() const { return Events.empty(); }

  /// One past the largest id seen, i.e. the dense id-space sizes.
  unsigned numThreads() const { return NumThreads; }
  unsigned numVars() const { return NumVars; }
  unsigned numLocks() const { return NumLocks; }
  unsigned numVolatiles() const { return NumVolatiles; }

  /// Checks well-formedness. Returns true if OK; otherwise false and, if
  /// \p Error is non-null, stores a diagnostic covering every violation
  /// in the trace (not just the first).
  bool validate(std::string *Error = nullptr) const;

  /// Index of the last wr(x) before event \p I to the same variable, or -1.
  /// Precomputed lazily on first use; O(1) afterwards.
  long lastWriterBefore(size_t I) const;

private:
  void computeStats();
  void computeLastWriters() const;

  std::vector<Event> Events;
  unsigned NumThreads = 0;
  unsigned NumVars = 0;
  unsigned NumLocks = 0;
  unsigned NumVolatiles = 0;
  mutable std::vector<long> LastWriter; // lazily filled
};

/// Fluent builder for traces in tests and examples.
///
/// \code
///   TraceBuilder B;
///   B.read(T1, X).acq(T1, M).write(T1, Y).rel(T1, M);
///   Trace Tr = B.build();
/// \endcode
class TraceBuilder {
public:
  TraceBuilder &read(ThreadId T, VarId X, SiteId Site = InvalidId);
  TraceBuilder &write(ThreadId T, VarId X, SiteId Site = InvalidId);
  TraceBuilder &acq(ThreadId T, LockId M);
  TraceBuilder &rel(ThreadId T, LockId M);
  TraceBuilder &fork(ThreadId Parent, ThreadId Child);
  TraceBuilder &join(ThreadId Parent, ThreadId Child);
  TraceBuilder &volRead(ThreadId T, VarId V);
  TraceBuilder &volWrite(ThreadId T, VarId V);

  /// The paper's sync(o) shorthand: acq(o); rd(oVar); wr(oVar); rel(o).
  /// \p Lock and \p Var name the same logical object o.
  TraceBuilder &sync(ThreadId T, LockId Lock, VarId Var);

  TraceBuilder &append(const Event &E);

  /// Finalizes the trace; throws IllFormedTraceError (in all build types)
  /// when the trace violates well-formedness.
  Trace build() const;

  size_t size() const { return Events.size(); }

private:
  std::vector<Event> Events;
};

} // namespace st

#endif // SMARTTRACK_TRACE_TRACE_H
