//===- serve/Frame.cpp - st-serve wire protocol frames --------------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Frame.h"

#include <cstdio>
#include <cstring>

using namespace st;

const char *st::frameTypeName(FrameType T) {
  switch (T) {
  case FrameType::Hello:
    return "HELLO";
  case FrameType::Events:
    return "EVENTS";
  case FrameType::Eos:
    return "EOS";
  case FrameType::Race:
    return "RACE";
  case FrameType::Diag:
    return "DIAG";
  case FrameType::Summary:
    return "SUMMARY";
  case FrameType::Error:
    return "ERROR";
  }
  return "?";
}

bool st::isKnownFrameType(uint8_t B) {
  return B >= static_cast<uint8_t>(FrameType::Hello) &&
         B <= static_cast<uint8_t>(FrameType::Error);
}

bool FrameWriter::write(FrameType T, std::string_view Payload) {
  if (Failed)
    return false;
  char Header[1 + MaxVarintBytes];
  Header[0] = static_cast<char>(T);
  size_t N = 1 + encodeVarint(Payload.size(), Header + 1);
  if (!Out.write(Header, N) ||
      (!Payload.empty() && !Out.write(Payload.data(), Payload.size()))) {
    Failed = true;
    return false;
  }
  return true;
}

int FrameReader::fail(std::string Msg) {
  ErrorMsg = std::move(Msg);
  return -1;
}

int FrameReader::next(Frame &F) {
  uint8_t TypeByte = 0;
  // End of input between frames is the one clean way a frame stream may
  // stop; whether that end was a socket error is the underlying
  // ByteSource's error() to report.
  if (!Bytes.readByte(TypeByte))
    return 0;
  if (!isKnownFrameType(TypeByte)) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "unknown frame type byte 0x%02x",
                  TypeByte);
    return fail(Buf);
  }
  uint64_t Len = 0;
  if (!Bytes.readVarint(Len))
    return fail("truncated or malformed frame length");
  if (Len > MaxPayload) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf),
                  "frame payload length %llu exceeds cap %llu",
                  static_cast<unsigned long long>(Len),
                  static_cast<unsigned long long>(MaxPayload));
    return fail(Buf);
  }
  F.Type = static_cast<FrameType>(TypeByte);
  F.Payload.resize(static_cast<size_t>(Len));
  if (Len && !Bytes.readExact(F.Payload.data(), F.Payload.size()))
    return fail("truncated frame payload");
  return 1;
}

//===----------------------------------------------------------------------===//
// HELLO
//===----------------------------------------------------------------------===//

namespace {

/// HELLO option tags (append-only; unknown tags are skipped on decode).
/// Tags 2 and 7 are reserved and must never be reused: they carried the
/// shard count and shard pinning of the removed variable-sharded executor,
/// and older clients may still send them, so they fall to the skip path.
enum HelloTag : uint64_t {
  TagAnalysis = 1, // value: registry name bytes (repeatable)
  TagValidation = 3,
  TagMaxRaceLines = 4,
  TagBatchSize = 5,
  TagMaxDiags = 6,
};

void appendVarint(std::string &Out, uint64_t V) {
  char Buf[MaxVarintBytes];
  Out.append(Buf, encodeVarint(V, Buf));
}

void appendVarintOption(std::string &Out, uint64_t Tag, uint64_t V) {
  char Buf[MaxVarintBytes];
  size_t N = encodeVarint(V, Buf);
  appendVarint(Out, Tag);
  appendVarint(Out, N);
  Out.append(Buf, N);
}

} // namespace

std::string st::encodeHello(const HelloOptions &O) {
  std::string Out(ServeHelloMagic, sizeof(ServeHelloMagic));
  appendVarint(Out, O.Version);
  for (const std::string &Name : O.Analyses) {
    appendVarint(Out, TagAnalysis);
    appendVarint(Out, Name.size());
    Out += Name;
  }
  HelloOptions Defaults;
  if (O.Validation != Defaults.Validation)
    appendVarintOption(Out, TagValidation, O.Validation);
  if (O.MaxRaceLines != Defaults.MaxRaceLines)
    appendVarintOption(Out, TagMaxRaceLines, O.MaxRaceLines);
  if (O.BatchSize != Defaults.BatchSize)
    appendVarintOption(Out, TagBatchSize, O.BatchSize);
  if (O.MaxDiags != Defaults.MaxDiags)
    appendVarintOption(Out, TagMaxDiags, O.MaxDiags);
  return Out;
}

bool st::decodeHello(std::string_view Payload, HelloOptions &O,
                     std::string *Err) {
  auto Fail = [&](const char *Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  if (Payload.size() < sizeof(ServeHelloMagic) ||
      std::memcmp(Payload.data(), ServeHelloMagic,
                  sizeof(ServeHelloMagic)) != 0)
    return Fail("missing STS1 hello magic");
  MemoryByteSource Src(Payload.substr(sizeof(ServeHelloMagic)));
  ByteReader Bytes(Src);
  if (!Bytes.readVarint(O.Version))
    return Fail("truncated hello version");
  while (!Bytes.atEnd()) {
    uint64_t Tag = 0, Len = 0;
    if (!Bytes.readVarint(Tag) || !Bytes.readVarint(Len))
      return Fail("truncated hello option header");
    if (Len > Payload.size())
      return Fail("hello option length exceeds payload");
    std::string Value(static_cast<size_t>(Len), '\0');
    if (Len && !Bytes.readExact(Value.data(), Value.size()))
      return Fail("truncated hello option value");
    auto VarintValue = [&](uint64_t &V) {
      MemoryByteSource VS(Value);
      ByteReader VB(VS);
      return VB.readVarint(V) && VB.atEnd();
    };
    bool Ok = true;
    switch (Tag) {
    case TagAnalysis:
      O.Analyses.push_back(std::move(Value));
      break;
    case TagValidation:
      Ok = VarintValue(O.Validation);
      break;
    case TagMaxRaceLines:
      Ok = VarintValue(O.MaxRaceLines);
      break;
    case TagBatchSize:
      Ok = VarintValue(O.BatchSize);
      break;
    case TagMaxDiags:
      Ok = VarintValue(O.MaxDiags);
      break;
    default:
      // Unknown tag: skip. Same-version extensions add tags without
      // breaking deployed peers.
      break;
    }
    if (!Ok)
      return Fail("malformed hello option value");
  }
  return true;
}
