//===- engine/EventSource.cpp - Pull-based event streams ------------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "engine/EventSource.h"

#include "lint/LintingEventSource.h"
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

size_t TextEventSource::read(Event *Buf, size_t Max) {
  Lines.clear();
  if (Bad)
    return 0;
  size_t N = 0;
  while (N < Max) {
    int R = Parser.next(Buf[N]);
    if (R <= 0) {
      Bad = R < 0;
      break;
    }
    Lines.push_back(Parser.line());
    ++N;
  }
  return N;
}

bool TextEventSource::error(std::string *Msg) const {
  if (Bad && Msg)
    *Msg = Parser.error();
  return Bad;
}

size_t StbEventSource::read(Event *Buf, size_t Max) {
  Ends.clear();
  if (Bad)
    return 0;
  size_t N = 0;
  while (N < Max) {
    int R = Reader.next(Buf[N]);
    if (R <= 0) {
      Bad = R < 0;
      break;
    }
    Ends.push_back(Reader.bytesConsumed());
    ++N;
  }
  return N;
}

bool StbEventSource::error(std::string *Msg) const {
  if (Bad && Msg)
    *Msg = Reader.error();
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
  std::unique_ptr<EventSource> Decoder;
  if (N == sizeof(StbMagic) &&
      std::memcmp(Magic, StbMagic, sizeof(StbMagic)) == 0) {
    Out.Format = TraceFormat::Stb;
    Decoder = std::make_unique<StbEventSource>(*Out.Bytes, Opts.BufferBytes);
  } else {
    Out.Format = TraceFormat::Text;
    Decoder = std::make_unique<TextEventSource>(*Out.Bytes, Opts.BufferBytes);
  }
  if (!Opts.Validate) {
    Out.Events = std::move(Decoder);
    return Out;
  }
  Out.Decoder = std::move(Decoder);
  Out.Lint = std::make_unique<LintEngine>();
  addHardRules(*Out.Lint);
  Out.Events = std::make_unique<LintingEventSource>(*Out.Decoder, *Out.Lint,
                                                    /*Reject=*/false);
  return Out;
}
