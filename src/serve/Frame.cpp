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

//===----------------------------------------------------------------------===//
// NDJSON line encoders
//===----------------------------------------------------------------------===//

namespace {

void jsonKey(std::string &Out, const char *Key) {
  jsonAppendEscaped(Out, Key);
  Out += ':';
}

void jsonUInt(std::string &Out, uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%llu",
                static_cast<unsigned long long>(V));
  Out += Buf;
}

void jsonNumber(std::string &Out, double V) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  Out += Buf;
}

// Field order matches st-analyze's --report=json case_stats object.
void jsonCaseStats(std::string &Out, const CaseStats &S) {
  auto Field = [&](const char *K, uint64_t V, bool Comma = true) {
    jsonKey(Out, K);
    jsonUInt(Out, V);
    if (Comma)
      Out += ',';
  };
  Out += '{';
  Field("read_same_epoch", S.ReadSameEpoch);
  Field("shared_same_epoch", S.SharedSameEpoch);
  Field("write_same_epoch", S.WriteSameEpoch);
  Field("read_owned", S.ReadOwned);
  Field("read_shared_owned", S.ReadSharedOwned);
  Field("read_exclusive", S.ReadExclusive);
  Field("read_share", S.ReadShare);
  Field("read_shared", S.ReadShared);
  Field("write_owned", S.WriteOwned);
  Field("write_exclusive", S.WriteExclusive);
  Field("write_shared", S.WriteShared, false);
  Out += '}';
}

} // namespace

std::string st::encodeDiagLine(const LintDiagnostic &D) {
  std::string Out = "{\"type\":\"diag\",";
  jsonKey(Out, "code");
  jsonAppendEscaped(Out, lintCodeId(D.Code));
  Out += ',';
  jsonKey(Out, "severity");
  jsonAppendEscaped(Out, lintSeverityName(D.Severity));
  if (!D.streamLevel()) {
    Out += ',';
    jsonKey(Out, "event");
    jsonUInt(Out, D.EventIdx);
  }
  if (D.Line) {
    Out += ',';
    jsonKey(Out, "line");
    jsonUInt(Out, D.Line);
  }
  if (D.Byte) {
    Out += ',';
    jsonKey(Out, "byte");
    jsonUInt(Out, D.Byte);
  }
  Out += ',';
  jsonKey(Out, "message");
  jsonAppendEscaped(Out, D.Message);
  Out += "}\n";
  return Out;
}

std::string st::encodeSummaryLine(const AnalysisRunResult &A,
                                  uint64_t Events) {
  std::string Out = "{\"type\":\"summary\",";
  jsonKey(Out, "analysis");
  jsonAppendEscaped(Out, A.Name);
  Out += ',';
  jsonKey(Out, "events");
  jsonUInt(Out, Events);
  Out += ',';
  jsonKey(Out, "dynamic_races");
  jsonUInt(Out, A.DynamicRaces);
  Out += ',';
  jsonKey(Out, "static_races");
  jsonUInt(Out, A.StaticRaces);
  Out += ',';
  jsonKey(Out, "seconds");
  jsonNumber(Out, A.Seconds);
  if (A.HasCaseStats) {
    Out += ',';
    jsonKey(Out, "case_stats");
    jsonCaseStats(Out, A.Cases);
  }
  Out += "}\n";
  return Out;
}

std::string st::encodeStreamLine(const RunReport &Rep, uint64_t ServiceNs) {
  std::string Out = "{\"type\":\"stream\",";
  jsonKey(Out, "events");
  jsonUInt(Out, Rep.Stream.Events);
  Out += ',';
  jsonKey(Out, "threads");
  jsonUInt(Out, Rep.Stream.NumThreads);
  Out += ',';
  jsonKey(Out, "vars");
  jsonUInt(Out, Rep.Stream.NumVars);
  Out += ',';
  jsonKey(Out, "locks");
  jsonUInt(Out, Rep.Stream.NumLocks);
  Out += ',';
  jsonKey(Out, "total_dynamic_races");
  jsonUInt(Out, Rep.TotalDynamicRaces);
  Out += ',';
  jsonKey(Out, "wall_seconds");
  jsonNumber(Out, Rep.WallSeconds);
  if (ServiceNs) {
    Out += ',';
    jsonKey(Out, "service_ns");
    jsonUInt(Out, ServiceNs);
  }
  Out += "}\n";
  return Out;
}

std::string st::encodeErrorLine(std::string_view Code,
                                std::string_view Message) {
  std::string Out = "{\"type\":\"error\",";
  jsonKey(Out, "code");
  jsonAppendEscaped(Out, Code);
  Out += ',';
  jsonKey(Out, "message");
  jsonAppendEscaped(Out, Message);
  Out += "}\n";
  return Out;
}
