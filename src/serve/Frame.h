//===- serve/Frame.h - st-serve wire protocol frames ------------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol of the st-serve race-detection service: a length-
/// prefixed frame stream in each direction over one connection.
///
///   frame := type:u8  payload_len:varint  payload_len bytes
///
/// The client opens with a HELLO frame (magic + protocol version +
/// tag-length-value session options), then streams EVENTS frames whose
/// payloads are raw trace bytes — either STB or the text DSL, exactly the
/// bytes st-analyze would read from a file; the server re-sniffs the
/// concatenated payload stream — and closes its half with EOS. The server
/// answers HELLO with its own HELLO (the accepted configuration), streams
/// RACE/DIAG frames live as the analyses run, and finishes with one
/// SUMMARY frame per analysis plus a final stream SUMMARY; every abnormal
/// outcome (protocol violation, decode failure, budget eviction, strict
/// validation rejection) is announced with an ERROR frame before the
/// connection closes — never a silent close. RACE/DIAG/SUMMARY/ERROR
/// payloads are single NDJSON lines (newline included), encoded by
/// report/ReportJson and NdjsonSink, so a client can write them through
/// verbatim and get exactly st-analyze's --format=ndjson --stats output.
/// docs/serving.md is the byte-level grammar.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_SERVE_FRAME_H
#define SMARTTRACK_SERVE_FRAME_H

#include "support/Bytes.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace st {

/// The protocol version both HELLOs carry. A server speaks exactly one
/// version; a mismatched client HELLO is answered with an ERROR frame
/// (code "bad-version") naming the server's version, so old clients fail
/// loudly and newly tagged options stay a same-version extension
/// (unknown HELLO tags are skipped, see decodeHello()).
inline constexpr uint64_t ServeProtocolVersion = 1;

/// First bytes of every HELLO payload ("STS1", no terminator).
inline constexpr char ServeHelloMagic[4] = {'S', 'T', 'S', '1'};

/// Default cap on one frame's payload. A varint length field admits
/// 64-bit claims, so readers bound it before allocating — a hostile
/// length is a protocol error, not an allocation.
inline constexpr size_t DefaultMaxFramePayload = 1u << 20;

/// Frame types. Values are wire bytes and append-only; 0 is reserved as
/// never-valid so zero-filled garbage fails fast.
enum class FrameType : uint8_t {
  /// Session handshake (both directions open with it).
  Hello = 1,
  /// Client → server: a chunk of raw trace bytes (STB or text DSL).
  Events = 2,
  /// Client → server: end of the event stream (empty payload).
  Eos = 3,
  /// Server → client: one race, as an NDJSON "race" line.
  Race = 4,
  /// Server → client: one lint finding, as an NDJSON "diag" line.
  Diag = 5,
  /// Server → client: an NDJSON "summary" (per analysis) or "stream"
  /// line at end of run.
  Summary = 6,
  /// Server → client: an NDJSON "error" line; always the last frame of
  /// an abnormal connection.
  Error = 7,
};

/// "HELLO", "EVENTS", ... for diagnostics; "?" for unknown bytes.
const char *frameTypeName(FrameType T);

/// True when \p B is a defined FrameType wire byte.
bool isKnownFrameType(uint8_t B);

/// One decoded frame.
struct Frame {
  FrameType Type = FrameType::Error;
  std::string Payload;
};

/// Serializes frames onto a ByteSink. Latches on the first write failure
/// (subsequent frames are dropped), mirroring NdjsonSink.
class FrameWriter {
public:
  explicit FrameWriter(ByteSink &Out) : Out(Out) {}

  /// Writes one frame; returns false once the sink has failed.
  bool write(FrameType T, std::string_view Payload);

  /// False after any write failure.
  bool ok() const { return !Failed; }

private:
  ByteSink &Out;
  bool Failed = false;
};

/// Incremental frame decoder over a ByteSource. Enforces the payload cap
/// before buffering a byte of payload, so a hostile length field costs
/// nothing.
class FrameReader {
public:
  explicit FrameReader(ByteSource &Src,
                       size_t MaxPayload = DefaultMaxFramePayload,
                       size_t BufBytes = DefaultIoBufferBytes)
      : Bytes(Src, BufBytes), MaxPayload(MaxPayload) {}

  /// Reads the next frame into \p F. Returns 1 on success, 0 at a clean
  /// end of stream (the source ended exactly on a frame boundary), -1 on
  /// a malformed stream (unknown type byte, overlong/oversized length,
  /// truncated payload); error() describes the -1.
  int next(Frame &F);

  /// Description of the last -1 from next().
  const std::string &error() const { return ErrorMsg; }

  /// Total wire bytes consumed.
  uint64_t bytesRead() const { return Bytes.bytesRead(); }

private:
  int fail(std::string Msg);

  ByteReader Bytes;
  size_t MaxPayload;
  std::string ErrorMsg;
};

/// The session configuration a HELLO carries, with every field at its
/// server-default when the client omits the tag.
struct HelloOptions {
  uint64_t Version = ServeProtocolVersion;
  /// Registry names of the analyses to run (empty = server default).
  std::vector<std::string> Analyses;
  /// ValidationMode wire value (0 Off, 1 Warn, 2 Strict).
  uint64_t Validation = 0;
  /// Cap on streamed RACE frames per analysis (UINT64_MAX = unlimited).
  uint64_t MaxRaceLines = UINT64_MAX;
  /// Engine batch size (0 = server default).
  uint64_t BatchSize = 0;
  /// Cap on streamed DIAG frames (SessionOptions::MaxStoredDiagnostics;
  /// 0 = server default).
  uint64_t MaxDiags = 0;
};

/// Encodes \p O as a HELLO payload: magic, version varint, then one
/// tag-length-value option per non-default field.
std::string encodeHello(const HelloOptions &O);

/// Decodes a HELLO payload. Unknown tags are skipped (forward
/// compatibility within a version); malformed payloads (bad magic,
/// truncated TLV) return false with a description in \p Err. Does not
/// judge the option values — the server validates names/caps itself.
bool decodeHello(std::string_view Payload, HelloOptions &O,
                 std::string *Err);

} // namespace st

#endif // SMARTTRACK_SERVE_FRAME_H
