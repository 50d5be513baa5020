//===- engine/EventSource.h - Pull-based event streams ----------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine layer's event abstraction: every trace consumer (the CLI, the
/// benches, Session) pulls chunked batches of events from an
/// EventSource instead of materializing a std::vector<Event>. Sources exist
/// for in-memory traces, the streaming TraceText parser, the STB binary
/// reader, and the synthetic workload generator, so analyses run in
/// O(analysis-metadata) space regardless of trace length (paper §2.1
/// defines them as online consumers). The decoders only decode;
/// openEventSource() sniffs the input bytes (STB magic vs. text DSL) and
/// assembles the right decoding stack, linted by LintingEventSource
/// (lint/LintingEventSource.h) unless the caller lints it itself.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_ENGINE_EVENTSOURCE_H
#define SMARTTRACK_ENGINE_EVENTSOURCE_H

#include "lint/Lint.h"
#include "support/Bytes.h"
#include "trace/Stb.h"
#include "trace/Trace.h"
#include "trace/TraceText.h"

#include <memory>
#include <string>
#include <vector>

namespace st {

class WorkloadGenerator;

/// Abstract pull-based event stream. Like ByteSource but for events: any
/// positive count is a valid read, 0 means end of stream or error.
class EventSource {
public:
  virtual ~EventSource() = default;

  /// Fills \p Buf with up to \p Max events; returns the count, 0 at end of
  /// stream (or on error; see error()).
  virtual size_t read(Event *Buf, size_t Max) = 0;

  /// True when the stream terminated abnormally; \p Msg (if non-null)
  /// receives a description.
  virtual bool error(std::string *Msg = nullptr) const {
    (void)Msg;
    return false;
  }

  /// The text parser decoding this stream, whose name tables spell its
  /// ids in lint messages and race reports; null for every input that is
  /// not the text DSL. May turn non-null only after the first read().
  virtual const TraceTextParser *textParser() const { return nullptr; }

  /// Input position of each event the last read() delivered, index-aligned
  /// with its buffer: the source line of the event (text DSL). Null for
  /// every input that is not the text DSL. Lint provenance.
  virtual const uint32_t *eventLines() const { return nullptr; }

  /// As eventLines(), for STB: the byte offset just past each event's
  /// record. Null for every input that is not STB.
  virtual const uint64_t *eventBytes() const { return nullptr; }

  /// The STB header (STB inputs only; null otherwise). Its counts are
  /// read by the first read().
  virtual const StbHeader *stbHeader() const { return nullptr; }
};

/// Id-space maxima and event count of a streamed trace, the streaming
/// replacement for Trace::numThreads() and friends.
struct StreamStats {
  unsigned NumThreads = 0;
  unsigned NumVars = 0;
  unsigned NumLocks = 0;
  unsigned NumVolatiles = 0;
  uint64_t Events = 0;

  /// Folds one event in. Inline: it runs once per event on the decode
  /// path.
  void observe(const Event &E) {
    auto Grow = [](unsigned &Max, uint32_t Id) {
      if (Id + 1 > Max)
        Max = Id + 1;
    };
    Grow(NumThreads, E.Tid);
    switch (E.Kind) {
    case EventKind::Read:
    case EventKind::Write:
      Grow(NumVars, E.Target);
      break;
    case EventKind::Acquire:
    case EventKind::Release:
      Grow(NumLocks, E.Target);
      break;
    case EventKind::Fork:
    case EventKind::Join:
      Grow(NumThreads, E.Target);
      break;
    case EventKind::VolRead:
    case EventKind::VolWrite:
      Grow(NumVolatiles, E.Target);
      break;
    }
    ++Events;
  }
};

/// EventSource over a materialized Trace (not owned).
class TraceEventSource : public EventSource {
public:
  explicit TraceEventSource(const Trace &Tr) : Tr(Tr) {}

  size_t read(Event *Buf, size_t Max) override;

  /// Restarts from the first event.
  void rewind() { Pos = 0; }

private:
  const Trace &Tr;
  size_t Pos = 0;
};

/// EventSource decoding the TraceText DSL as it streams in.
class TextEventSource : public EventSource {
public:
  explicit TextEventSource(ByteSource &Bytes,
                           size_t BufferBytes = DefaultIoBufferBytes)
      : Parser(Bytes, BufferBytes) {}

  size_t read(Event *Buf, size_t Max) override;
  bool error(std::string *Msg = nullptr) const override;
  const TraceTextParser *textParser() const override { return &Parser; }
  const uint32_t *eventLines() const override { return Lines.data(); }

private:
  TraceTextParser Parser;
  std::vector<uint32_t> Lines; // per event of the last read(); reused
  bool Bad = false;
};

/// EventSource decoding the STB binary format.
class StbEventSource : public EventSource {
public:
  explicit StbEventSource(ByteSource &Bytes,
                          size_t BufferBytes = DefaultIoBufferBytes)
      : Reader(Bytes, BufferBytes) {}

  size_t read(Event *Buf, size_t Max) override;
  bool error(std::string *Msg = nullptr) const override;
  const uint64_t *eventBytes() const override { return Ends.data(); }
  const StbHeader *stbHeader() const override { return &Reader.header(); }

private:
  StbReader Reader;
  std::vector<uint64_t> Ends; // per event of the last read(); reused
  bool Bad = false;
};

/// EventSource over the synthetic workload generator (not owned).
class GeneratorEventSource : public EventSource {
public:
  explicit GeneratorEventSource(WorkloadGenerator &Gen) : Gen(Gen) {}

  size_t read(Event *Buf, size_t Max) override;

private:
  WorkloadGenerator &Gen;
};

/// Tee: forwards another source unchanged while appending every event to a
/// caller-owned vector. The CLI uses this when --vindicate needs the full
/// trace after the streaming pass.
class CapturingEventSource : public EventSource {
public:
  CapturingEventSource(EventSource &Inner, std::vector<Event> &Captured)
      : Inner(Inner), Captured(Captured) {}

  size_t read(Event *Buf, size_t Max) override;
  bool error(std::string *Msg = nullptr) const override {
    return Inner.error(Msg);
  }

private:
  EventSource &Inner;
  std::vector<Event> &Captured;
};

/// The input format openEventSource() detected.
enum class TraceFormat : uint8_t { Text, Stb };

/// A decoding stack assembled over a raw byte stream: the sniffing
/// adapter, the chosen decoder and, when validating, the hard-rule lint
/// wrapper over it. Events is what consumers read. The symbol-name
/// accessors are non-null only for text inputs.
struct OpenedEventSource {
  std::unique_ptr<PeekableByteSource> Bytes;
  /// The decoder under the lint wrapper (null when Events is the decoder).
  std::unique_ptr<EventSource> Decoder;
  /// The lint wrapper's engine, hard rules only (null without validation).
  std::unique_ptr<LintEngine> Lint;
  std::unique_ptr<EventSource> Events;
  TraceFormat Format = TraceFormat::Text;

  /// Thread/var/lock/volatile names interned so far (text inputs only;
  /// null for STB). Valid to call during and after streaming.
  const TraceTextParser *textParser() const { return Events->textParser(); }
  /// STB header (STB inputs only; null for text).
  const StbHeader *stbHeader() const { return Events->stbHeader(); }
};

/// Tuning for openEventSource. BufferBytes sizes the decoder's internal
/// read-ahead chunk (the text parser's line chunk, the STB ByteReader) —
/// hoisted out of the decoders so per-connection server budgets can tune
/// it (SessionOptions::IoBufferBytes) instead of every stream paying a
/// fixed hard-coded buffer. Validate wraps the decoder in a hard-rules-only
/// LintingEventSource: delivery stops just before the first ill-formed
/// event and error() then lists every hard violation in the input.
/// Callers that run their own lint pass (Session Warn/Strict, st-lint)
/// open with Validate=false.
struct OpenOptions {
  bool Validate = true;
  size_t BufferBytes = DefaultIoBufferBytes;
};

/// Sniffs \p Bytes for the STB magic and builds the matching streaming
/// decoder. Never fails: anything that is not STB decodes as text (and
/// reports its parse error on first read).
OpenedEventSource openEventSource(ByteSource &Bytes, bool Validate = true);

/// As above with explicit tuning.
OpenedEventSource openEventSource(ByteSource &Bytes,
                                  const OpenOptions &Opts);

} // namespace st

#endif // SMARTTRACK_ENGINE_EVENTSOURCE_H
