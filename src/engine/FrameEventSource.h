//===- engine/FrameEventSource.h - Events from wire frames ------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine-side adapter for framed inputs: FramePayloadByteSource
/// un-frames a client's EVENTS payloads back into the raw trace byte
/// stream, and FrameEventSource layers the normal sniffing decode stack
/// (openEventSource: STB or text DSL) on top. The result plugs into
/// Session::run() like any file-backed source, which is what gives the
/// server pull-based backpressure for free — no frame is read off the
/// socket until the engine asks for more events.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_ENGINE_FRAMEEVENTSOURCE_H
#define SMARTTRACK_ENGINE_FRAMEEVENTSOURCE_H

#include "engine/EventSource.h"
#include "serve/Frame.h"

#include <chrono>
#include <string>

namespace st {

/// ByteSource over the concatenated payloads of a connection's EVENTS
/// frames. Stops cleanly at EOS; anything else that ends the stream — a
/// malformed frame, a frame type the client must not send mid-stream, or
/// a disconnect before EOS — latches as an error so a truncated upload is
/// never mistaken for a complete trace.
class FramePayloadByteSource : public ByteSource {
public:
  explicit FramePayloadByteSource(FrameReader &Frames) : Frames(Frames) {}

  size_t read(char *Buf, size_t Max) override;
  bool error(std::string *Msg = nullptr) const override;

  /// True once the client's EOS frame was consumed (the only clean end).
  bool sawEos() const { return Eos; }

  /// When the first EVENTS frame was read off the wire — the start of
  /// the server-side service window reported as service_ns in the
  /// stream SUMMARY. False return: no EVENTS frame arrived (yet).
  bool firstEventsAt(std::chrono::steady_clock::time_point &Out) const {
    if (!HasFirstEvents)
      return false;
    Out = FirstEvents;
    return true;
  }

private:
  FrameReader &Frames;
  Frame Cur;
  size_t Pos = 0;
  bool Eos = false;
  bool Done = false;
  bool Bad = false;
  bool HasFirstEvents = false;
  std::chrono::steady_clock::time_point FirstEvents;
  std::string ErrorMsg;
};

/// EventSource decoding a framed trace upload. The decode stack is
/// assembled lazily on the first read() (format sniffing must wait for
/// the first EVENTS payload), after which this forwards to the inner
/// STB/text source; frame-layer and decode-layer errors both surface
/// through error().
class FrameEventSource : public EventSource {
public:
  explicit FrameEventSource(FrameReader &Frames, bool Validate = true,
                            size_t BufferBytes = DefaultIoBufferBytes)
      : Payload(Frames), Validate(Validate), BufferBytes(BufferBytes) {}

  size_t read(Event *Buf, size_t Max) override;
  bool error(std::string *Msg = nullptr) const override;

  /// True once the client's EOS frame was consumed.
  bool sawEos() const { return Payload.sawEos(); }

  /// Forwarded from FramePayloadByteSource::firstEventsAt().
  bool firstEventsAt(std::chrono::steady_clock::time_point &Out) const {
    return Payload.firstEventsAt(Out);
  }

  /// The decode stack's names, positions and STB header; all null
  /// before the first read.
  const TraceTextParser *textParser() const override {
    return Opened ? Open.textParser() : nullptr;
  }
  const uint32_t *eventLines() const override {
    return Opened ? Open.Events->eventLines() : nullptr;
  }
  const uint64_t *eventBytes() const override {
    return Opened ? Open.Events->eventBytes() : nullptr;
  }
  const StbHeader *stbHeader() const override {
    return Opened ? Open.stbHeader() : nullptr;
  }

private:
  FramePayloadByteSource Payload;
  bool Validate;
  size_t BufferBytes;
  bool Opened = false;
  OpenedEventSource Open;
};

} // namespace st

#endif // SMARTTRACK_ENGINE_FRAMEEVENTSOURCE_H
