//===- tests/serve/FrameRoundTripTest.cpp - Wire frame codec properties ---===//
//
// Property tests of the serve/Frame.h codec in isolation (no sockets):
// every frame type round-trips through FrameWriter -> FrameReader under
// arbitrary payloads and arbitrarily small source chunks, HELLO options
// survive encode/decode including unknown-tag skipping, and every
// malformed header shape (unknown type byte, overlong or oversized
// length, truncated payload) is a diagnosed -1, never a hang or an
// allocation proportional to a hostile length claim.
//
//===----------------------------------------------------------------------===//

#include "report/ReportJson.h"
#include "serve/Frame.h"
#include "support/Bytes.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

using namespace st;

namespace {

const FrameType AllTypes[] = {FrameType::Hello,   FrameType::Events,
                              FrameType::Eos,     FrameType::Race,
                              FrameType::Diag,    FrameType::Summary,
                              FrameType::Error};

/// ByteSource delivering one byte per read(), the worst legal chunking.
class TrickleByteSource : public ByteSource {
public:
  explicit TrickleByteSource(std::string_view Data) : Data(Data) {}

  size_t read(char *Buf, size_t Max) override {
    if (Pos == Data.size() || Max == 0)
      return 0;
    Buf[0] = Data[Pos++];
    return 1;
  }

private:
  std::string_view Data;
  size_t Pos = 0;
};

/// ByteSink failing after a byte quota, to exercise writer latching.
class FailingByteSink : public ByteSink {
public:
  explicit FailingByteSink(size_t Quota) : Quota(Quota) {}

  bool write(const char *, size_t N) override {
    if (N > Quota)
      return false;
    Quota -= N;
    return true;
  }

private:
  size_t Quota;
};

std::string encodeFrames(const std::vector<Frame> &Frames) {
  std::string Wire;
  StringByteSink Sink(Wire);
  FrameWriter W(Sink);
  for (const Frame &F : Frames)
    EXPECT_TRUE(W.write(F.Type, F.Payload));
  EXPECT_TRUE(W.ok());
  return Wire;
}

void expectDecodesTo(ByteSource &Src, const std::vector<Frame> &Expected) {
  FrameReader R(Src);
  Frame F;
  for (const Frame &E : Expected) {
    ASSERT_EQ(R.next(F), 1) << R.error();
    EXPECT_EQ(F.Type, E.Type);
    EXPECT_EQ(F.Payload, E.Payload);
  }
  EXPECT_EQ(R.next(F), 0) << "stream should end cleanly: " << R.error();
}

TEST(FrameRoundTrip, EveryTypeAndPayloadShape) {
  std::string AllBytes;
  for (int B = 0; B != 256; ++B)
    AllBytes.push_back(static_cast<char>(B));
  std::string Big(100 * 1024, '\xab');

  std::vector<Frame> Frames;
  const std::string Payloads[] = {"", "x", "{\"type\":\"race\"}\n", AllBytes,
                                  Big};
  for (FrameType T : AllTypes)
    for (const std::string &P : Payloads)
      Frames.push_back(Frame{T, P});

  std::string Wire = encodeFrames(Frames);
  MemoryByteSource Src(Wire);
  expectDecodesTo(Src, Frames);
}

TEST(FrameRoundTrip, SurvivesOneByteSourceChunks) {
  std::vector<Frame> Frames;
  for (FrameType T : AllTypes)
    Frames.push_back(Frame{T, std::string(1, static_cast<char>(T)) + "data"});
  std::string Wire = encodeFrames(Frames);
  TrickleByteSource Src(Wire);
  expectDecodesTo(Src, Frames);
}

TEST(FrameRoundTrip, BytesReadTracksTheWire) {
  std::string Wire = encodeFrames({Frame{FrameType::Events, "0123456789"}});
  MemoryByteSource Src(Wire);
  FrameReader R(Src);
  Frame F;
  ASSERT_EQ(R.next(F), 1);
  EXPECT_EQ(R.next(F), 0);
  EXPECT_EQ(R.bytesRead(), Wire.size());
}

TEST(FrameRoundTrip, EmptyStreamIsACleanEnd) {
  MemoryByteSource Src{std::string_view()};
  FrameReader R(Src);
  Frame F;
  EXPECT_EQ(R.next(F), 0);
  EXPECT_TRUE(R.error().empty());
}

TEST(FrameRoundTrip, UnknownTypeByteIsDiagnosed) {
  for (uint8_t Bad : {uint8_t(0), uint8_t(8), uint8_t(0x7f), uint8_t(0xff)}) {
    std::string Wire(1, static_cast<char>(Bad));
    MemoryByteSource Src(Wire);
    FrameReader R(Src);
    Frame F;
    ASSERT_EQ(R.next(F), -1) << "type byte " << int(Bad);
    EXPECT_NE(R.error().find("unknown frame type"), std::string::npos)
        << R.error();
  }
}

TEST(FrameRoundTrip, TruncatedLengthIsDiagnosed) {
  // A lone type byte, and a type byte plus an unterminated varint.
  for (const std::string &Wire :
       {std::string(1, char(FrameType::Events)),
        std::string(1, char(FrameType::Events)) + "\x80\x80"}) {
    MemoryByteSource Src(Wire);
    FrameReader R(Src);
    Frame F;
    ASSERT_EQ(R.next(F), -1);
    EXPECT_NE(R.error().find("frame length"), std::string::npos) << R.error();
  }
}

TEST(FrameRoundTrip, OverlongVarintLengthIsDiagnosed) {
  // 12 continuation bytes overflow any 64-bit LEB128 decoder's bound.
  std::string Wire(1, char(FrameType::Events));
  Wire.append(12, '\xff');
  MemoryByteSource Src(Wire);
  FrameReader R(Src);
  Frame F;
  ASSERT_EQ(R.next(F), -1);
  EXPECT_FALSE(R.error().empty());
}

TEST(FrameRoundTrip, HostileLengthClaimIsCappedBeforeAllocation) {
  char Var[MaxVarintBytes];
  // Claims one byte over a tiny cap, then an absurd 2^60 claim against
  // the default cap; both must fail at the header, with no payload read.
  {
    std::string Wire(1, char(FrameType::Events));
    Wire.append(Var, encodeVarint(17, Var));
    Wire.append(17, 'x');
    MemoryByteSource Src(Wire);
    FrameReader R(Src, /*MaxPayload=*/16);
    Frame F;
    ASSERT_EQ(R.next(F), -1);
    EXPECT_NE(R.error().find("exceeds cap"), std::string::npos) << R.error();
  }
  {
    std::string Wire(1, char(FrameType::Events));
    Wire.append(Var, encodeVarint(1ull << 60, Var));
    MemoryByteSource Src(Wire);
    FrameReader R(Src);
    Frame F;
    ASSERT_EQ(R.next(F), -1);
    EXPECT_NE(R.error().find("exceeds cap"), std::string::npos) << R.error();
  }
}

TEST(FrameRoundTrip, TruncatedPayloadIsDiagnosed) {
  std::string Wire = encodeFrames({Frame{FrameType::Events, "0123456789"}});
  for (size_t Cut = Wire.size() - 9; Cut != Wire.size(); ++Cut) {
    std::string Partial = Wire.substr(0, Cut);
    MemoryByteSource Src(Partial);
    FrameReader R(Src);
    Frame F;
    ASSERT_EQ(R.next(F), -1) << "cut at " << Cut;
    EXPECT_NE(R.error().find("truncated frame payload"), std::string::npos);
  }
}

TEST(FrameRoundTrip, WriterLatchesAfterSinkFailure) {
  FailingByteSink Sink(/*Quota=*/4); // room for one header, nothing more
  FrameWriter W(Sink);
  EXPECT_TRUE(W.write(FrameType::Eos, std::string_view()));
  EXPECT_FALSE(W.write(FrameType::Events, "too big for the quota"));
  EXPECT_FALSE(W.ok());
  // Latched: even a write the sink could afford is refused.
  EXPECT_FALSE(W.write(FrameType::Eos, std::string_view()));
}

//===----------------------------------------------------------------------===//
// HELLO payload codec
//===----------------------------------------------------------------------===//

TEST(HelloRoundTrip, DefaultsEncodeCompactlyAndRoundTrip) {
  std::string Payload = encodeHello(HelloOptions());
  // Magic plus the version varint; every option at its default is omitted.
  EXPECT_EQ(Payload.size(), sizeof(ServeHelloMagic) + 1);

  HelloOptions O;
  std::string Err;
  ASSERT_TRUE(decodeHello(Payload, O, &Err)) << Err;
  EXPECT_EQ(O.Version, ServeProtocolVersion);
  EXPECT_TRUE(O.Analyses.empty());
  EXPECT_EQ(O.Validation, 0u);
  EXPECT_EQ(O.MaxRaceLines, UINT64_MAX);
  EXPECT_EQ(O.BatchSize, 0u);
  EXPECT_EQ(O.MaxDiags, 0u);
}

TEST(HelloRoundTrip, EveryOptionRoundTrips) {
  HelloOptions In;
  In.Analyses = {"ST-WDC", "FTO-HB", "FT2"};
  In.Validation = 2;
  In.MaxRaceLines = 12345;
  In.BatchSize = 1 << 10;
  In.MaxDiags = 77;

  HelloOptions Out;
  std::string Err;
  ASSERT_TRUE(decodeHello(encodeHello(In), Out, &Err)) << Err;
  EXPECT_EQ(Out.Version, In.Version);
  EXPECT_EQ(Out.Analyses, In.Analyses);
  EXPECT_EQ(Out.Validation, In.Validation);
  EXPECT_EQ(Out.MaxRaceLines, In.MaxRaceLines);
  EXPECT_EQ(Out.BatchSize, In.BatchSize);
  EXPECT_EQ(Out.MaxDiags, In.MaxDiags);
}

void appendVarint(std::string &Out, uint64_t V) {
  char Buf[MaxVarintBytes];
  Out.append(Buf, encodeVarint(V, Buf));
}

TEST(HelloRoundTrip, UnknownTagsAreSkipped) {
  // Hand-build: magic, version, an unknown tag 99 with an opaque value,
  // the two reserved tags an older client may still send, then a known
  // BatchSize option. A same-version peer with extra tags must still
  // interoperate.
  std::string Payload(ServeHelloMagic, sizeof(ServeHelloMagic));
  appendVarint(Payload, ServeProtocolVersion);
  appendVarint(Payload, 99);
  appendVarint(Payload, 5);
  Payload += "mystA";
  appendVarint(Payload, 2); // reserved: the removed shard count
  appendVarint(Payload, 1);
  appendVarint(Payload, 4);
  appendVarint(Payload, 7); // reserved: the removed shard pinning flag
  appendVarint(Payload, 1);
  appendVarint(Payload, 1);
  appendVarint(Payload, 5); // TagBatchSize
  appendVarint(Payload, 1);
  appendVarint(Payload, 6);

  HelloOptions O;
  std::string Err;
  ASSERT_TRUE(decodeHello(Payload, O, &Err)) << Err;
  EXPECT_EQ(O.BatchSize, 6u);
  EXPECT_TRUE(O.Analyses.empty());
}

TEST(HelloRoundTrip, MalformedPayloadsAreRejected) {
  HelloOptions O;
  std::string Err;

  EXPECT_FALSE(decodeHello("", O, &Err));
  EXPECT_FALSE(decodeHello("STB1\x01", O, &Err)); // wrong magic
  EXPECT_FALSE(decodeHello("STS", O, &Err));      // short magic
  EXPECT_NE(Err.find("magic"), std::string::npos) << Err;

  // Option header cut mid-TLV.
  std::string Truncated(ServeHelloMagic, sizeof(ServeHelloMagic));
  appendVarint(Truncated, ServeProtocolVersion);
  appendVarint(Truncated, 2); // tag, but no length/value follow
  EXPECT_FALSE(decodeHello(Truncated, O, &Err));

  // Value length overrunning the payload.
  std::string Overrun(ServeHelloMagic, sizeof(ServeHelloMagic));
  appendVarint(Overrun, ServeProtocolVersion);
  appendVarint(Overrun, 1);
  appendVarint(Overrun, 40); // claims 40 value bytes, none present
  EXPECT_FALSE(decodeHello(Overrun, O, &Err));

  // A numeric option whose value is not a whole varint.
  std::string BadValue(ServeHelloMagic, sizeof(ServeHelloMagic));
  appendVarint(BadValue, ServeProtocolVersion);
  appendVarint(BadValue, 5); // TagBatchSize
  appendVarint(BadValue, 1);
  BadValue += '\x80'; // unterminated varint
  EXPECT_FALSE(decodeHello(BadValue, O, &Err));
  EXPECT_NE(Err.find("option value"), std::string::npos) << Err;

  // Every truncation of a fully loaded HELLO either decodes (a shorter
  // valid prefix) or fails with a diagnostic — never crashes.
  HelloOptions Full;
  Full.Analyses = {"ST-WDC"};
  Full.BatchSize = 3;
  Full.MaxDiags = 9;
  std::string Whole = encodeHello(Full);
  for (size_t Cut = 0; Cut != Whole.size(); ++Cut) {
    HelloOptions Partial;
    std::string CutErr;
    if (!decodeHello(std::string_view(Whole).substr(0, Cut), Partial,
                     &CutErr)) {
      EXPECT_FALSE(CutErr.empty()) << "cut at " << Cut;
    }
  }
}

//===----------------------------------------------------------------------===//
// NDJSON line encoders
//===----------------------------------------------------------------------===//

TEST(ServeLines, ErrorLineEscapesItsMessage) {
  std::string Line = encodeErrorLine("decode", "bad \"quote\"\nand\\slash");
  EXPECT_EQ(Line.front(), '{');
  EXPECT_EQ(Line.back(), '\n');
  EXPECT_NE(Line.find("\"type\":\"error\""), std::string::npos);
  EXPECT_NE(Line.find("\"code\":\"decode\""), std::string::npos);
  EXPECT_NE(Line.find("\\\"quote\\\""), std::string::npos);
  EXPECT_NE(Line.find("\\n"), std::string::npos);
  EXPECT_NE(Line.find("\\\\slash"), std::string::npos);
  EXPECT_EQ(Line.find('\n'), Line.size() - 1) << "raw newline inside line";
}

TEST(ServeLines, DiagLineCarriesLocationWhenKnown) {
  LintDiagnostic D;
  D.Code = LintCode::AcquireHeld;
  D.Severity = LintSeverity::Error;
  D.EventIdx = 42;
  D.Line = 7;
  D.Message = "acq(m0) while m0 is held";
  std::string Line = encodeDiagLine(D);
  EXPECT_NE(Line.find("\"type\":\"diag\""), std::string::npos);
  EXPECT_NE(Line.find("\"code\":\"STL001\""), std::string::npos);
  EXPECT_NE(Line.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(Line.find("\"event\":42"), std::string::npos);
  EXPECT_NE(Line.find("\"line\":7"), std::string::npos);
  EXPECT_EQ(Line.back(), '\n');

  // Stream-level findings carry no event index.
  LintDiagnostic S;
  S.Code = LintCode::AcquireHeld;
  S.Message = "stream-level";
  std::string StreamLine = encodeDiagLine(S);
  EXPECT_EQ(StreamLine.find("\"event\":"), std::string::npos);
}

} // namespace
