//===- engine/EventSource.cpp - Pull-based event streams ------------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/EventSource.h"

#include "lint/Lint.h"
#include "workload/Workload.h"

#include <cstring>

using namespace st;

size_t TraceEventSource::read(Event *Buf, size_t Max) {
  size_t N = Tr.size() - Pos;
  if (N > Max)
    N = Max;
  if (N == 0)
    return 0;
  std::memcpy(Buf, Tr.events().data() + Pos, N * sizeof(Event));
  Pos += N;
  return N;
}

TextEventSource::TextEventSource(ByteSource &Bytes, bool Validate,
                                 size_t BufferBytes)
    : Parser(Bytes, BufferBytes), Validate(Validate) {
  Checker.engine().setNames(&Parser);
}

size_t TextEventSource::read(Event *Buf, size_t Max) {
  if (Bad)
    return 0;
  size_t N = 0;
  while (N < Max) {
    int R = Parser.next(Buf[N]);
    if (R <= 0) {
      if (R < 0) {
        Bad = true;
        ErrorMsg = Parser.error();
      }
      break;
    }
    if (Validate) {
      Checker.engine().setProvenance(Parser.line(), 0);
      if (!Checker.check(Buf[N])) {
        // Stop delivering, but keep decoding through the checker so the
        // diagnostic covers every violation in the input, not just the
        // first (the engine's store cap bounds memory).
        Bad = true;
        Event E;
        while (Parser.next(E) > 0) {
          Checker.engine().setProvenance(Parser.line(), 0);
          Checker.check(E);
        }
        ErrorMsg = "ill-formed trace: " + Checker.error();
        break;
      }
    }
    ++N;
  }
  return N;
}

bool TextEventSource::error(std::string *Msg) const {
  if (Bad && Msg)
    *Msg = ErrorMsg;
  return Bad;
}

size_t StbEventSource::read(Event *Buf, size_t Max) {
  if (Bad)
    return 0;
  size_t N = 0;
  while (N < Max) {
    int R = Reader.next(Buf[N]);
    if (R <= 0) {
      if (R < 0) {
        Bad = true;
        ErrorMsg = Reader.error();
      }
      break;
    }
    if (Validate) {
      Checker.engine().setProvenance(0, Reader.bytesConsumed());
      if (!Checker.check(Buf[N])) {
        // As in TextEventSource: withhold from here on, drain the rest
        // through the checker for a complete diagnostic.
        Bad = true;
        Event E;
        while (Reader.next(E) > 0) {
          Checker.engine().setProvenance(0, Reader.bytesConsumed());
          Checker.check(E);
        }
        ErrorMsg = "ill-formed trace: " + Checker.error();
        break;
      }
    }
    ++N;
  }
  return N;
}

bool StbEventSource::error(std::string *Msg) const {
  if (Bad && Msg)
    *Msg = ErrorMsg;
  return Bad;
}

size_t GeneratorEventSource::read(Event *Buf, size_t Max) {
  size_t N = 0;
  while (N < Max && Gen.next(Buf[N]))
    ++N;
  return N;
}

size_t CapturingEventSource::read(Event *Buf, size_t Max) {
  size_t N = Inner.read(Buf, Max);
  Captured.insert(Captured.end(), Buf, Buf + N);
  return N;
}

const StbHeader *OpenedEventSource::stbHeader() const {
  if (Format != TraceFormat::Stb)
    return nullptr;
  return &static_cast<const StbEventSource *>(Events.get())->reader().header();
}

OpenedEventSource st::openEventSource(ByteSource &Bytes, bool Validate) {
  OpenOptions Opts;
  Opts.Validate = Validate;
  return openEventSource(Bytes, Opts);
}

OpenedEventSource st::openEventSource(ByteSource &Bytes,
                                      const OpenOptions &Opts) {
  OpenedEventSource Out;
  Out.Bytes = std::make_unique<PeekableByteSource>(Bytes);
  char Magic[sizeof(StbMagic)];
  size_t N = Out.Bytes->peek(Magic, sizeof(Magic));
  if (N == sizeof(StbMagic) &&
      std::memcmp(Magic, StbMagic, sizeof(StbMagic)) == 0) {
    Out.Format = TraceFormat::Stb;
    Out.Events = std::make_unique<StbEventSource>(*Out.Bytes, Opts.Validate,
                                                  Opts.BufferBytes);
  } else {
    Out.Format = TraceFormat::Text;
    Out.Events = std::make_unique<TextEventSource>(*Out.Bytes, Opts.Validate,
                                                   Opts.BufferBytes);
  }
  return Out;
}
