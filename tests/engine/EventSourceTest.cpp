//===- tests/engine/EventSourceTest.cpp - Event stream unit tests ---------===//
//
// The EventSource stack: byte streams, the streaming text decoder, the STB
// decoder, format sniffing, and the capturing tee. Chunk-size robustness
// is the central property — every decoder must produce identical events no
// matter how the bytes or the event reads are sliced.
//
//===----------------------------------------------------------------------===//

#include "engine/EventSource.h"

#include "workload/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

using namespace st;

namespace {

/// ByteSource that returns at most \p ChunkMax bytes per read, to shake
/// out resume-mid-token bugs in the streaming decoders.
class DribbleByteSource : public ByteSource {
public:
  DribbleByteSource(std::string_view Data, size_t ChunkMax)
      : Data(Data), ChunkMax(ChunkMax) {}

  size_t read(char *Buf, size_t Max) override {
    size_t N = std::min({Max, ChunkMax, Data.size() - Pos});
    std::memcpy(Buf, Data.data() + Pos, N);
    Pos += N;
    return N;
  }

private:
  std::string_view Data;
  size_t ChunkMax;
  size_t Pos = 0;
};

std::vector<Event> drain(EventSource &Src, size_t ReadMax = 64) {
  std::vector<Event> Out;
  std::vector<Event> Buf(ReadMax);
  size_t N;
  while ((N = Src.read(Buf.data(), ReadMax)) > 0)
    Out.insert(Out.end(), Buf.begin(), Buf.begin() + N);
  return Out;
}

const char *Figure1 = "T1: rd(x)\n"
                      "T1: acq(m)\n"
                      "T1: wr(y)\n"
                      "T1: rel(m)\n"
                      "T2: acq(m)\n"
                      "T2: rd(z)\n"
                      "T2: rel(m)\n"
                      "T2: wr(x)\n";

TEST(ByteSourceTest, MemorySourceReadsAll) {
  MemoryByteSource Src("hello");
  char Buf[3];
  EXPECT_EQ(Src.read(Buf, 3), 3u);
  EXPECT_EQ(std::string_view(Buf, 3), "hel");
  EXPECT_EQ(Src.read(Buf, 3), 2u);
  EXPECT_EQ(Src.read(Buf, 3), 0u);
}

TEST(ByteSourceTest, PeekDoesNotConsume) {
  MemoryByteSource Inner("STB1rest");
  PeekableByteSource Src(Inner);
  char Magic[4];
  ASSERT_EQ(Src.peek(Magic, 4), 4u);
  EXPECT_EQ(std::string_view(Magic, 4), "STB1");
  char All[8];
  EXPECT_EQ(Src.read(All, 8), 4u) << "first read drains the peek buffer";
  EXPECT_EQ(Src.read(All + 4, 8), 4u);
  EXPECT_EQ(std::string_view(All, 8), "STB1rest");
}

TEST(ByteSourceTest, PeekShortAtEndOfStream) {
  MemoryByteSource Inner("ab");
  PeekableByteSource Src(Inner);
  char Buf[4];
  EXPECT_EQ(Src.peek(Buf, 4), 2u);
  EXPECT_EQ(Src.read(Buf, 4), 2u);
  EXPECT_EQ(Src.read(Buf, 4), 0u);
}

TEST(VarintTest, RoundTripsBoundaryValues) {
  const uint64_t Cases[] = {0,   1,    127,        128,
                            300, 16383, 16384,     UINT32_MAX,
                            (1ull << 56) + 5,      UINT64_MAX};
  for (uint64_t V : Cases) {
    char Buf[MaxVarintBytes];
    size_t N = encodeVarint(V, Buf);
    ASSERT_GE(N, 1u);
    ASSERT_LE(N, MaxVarintBytes);
    MemoryByteSource Src(std::string_view(Buf, N));
    ByteReader R(Src);
    uint64_t Back = 0;
    ASSERT_TRUE(R.readVarint(Back)) << V;
    EXPECT_EQ(Back, V);
    EXPECT_TRUE(R.atEnd());
  }
}

TEST(TraceEventSourceTest, DeliversWholeTraceInChunks) {
  Trace Tr = traceFromText(Figure1);
  for (size_t ReadMax : {1u, 3u, 100u}) {
    TraceEventSource Src(Tr);
    std::vector<Event> Got = drain(Src, ReadMax);
    ASSERT_EQ(Got.size(), Tr.size());
    for (size_t I = 0; I != Got.size(); ++I)
      EXPECT_TRUE(Got[I] == Tr[I]) << "event " << I;
  }
}

TEST(TextEventSourceTest, MatchesMaterializingParserAtAnyChunkSize) {
  ParsedTrace Expected;
  ASSERT_TRUE(parseTraceText(Figure1, Expected));
  for (size_t ChunkMax : {1u, 2u, 7u, 4096u}) {
    DribbleByteSource Bytes(Figure1, ChunkMax);
    TextEventSource Src(Bytes);
    std::vector<Event> Got = drain(Src, 3);
    EXPECT_FALSE(Src.error());
    ASSERT_EQ(Got.size(), Expected.Tr.size()) << "chunk " << ChunkMax;
    for (size_t I = 0; I != Got.size(); ++I) {
      EXPECT_TRUE(Got[I] == Expected.Tr[I]) << "event " << I;
      EXPECT_EQ(Got[I].Site, Expected.Tr[I].Site) << "site of event " << I;
    }
    EXPECT_EQ(Src.textParser()->threadNames(), Expected.ThreadNames);
    EXPECT_EQ(Src.textParser()->varNames(), Expected.VarNames);
  }
}

TEST(TextEventSourceTest, ReportsParseErrorWithPosition) {
  MemoryByteSource Bytes("T1: wr(x)\nT2: frobnicate(x)\n");
  TextEventSource Src(Bytes);
  Event Buf[8];
  EXPECT_EQ(Src.read(Buf, 8), 1u) << "events before the error still flow";
  EXPECT_EQ(Src.read(Buf, 8), 0u);
  std::string Msg;
  ASSERT_TRUE(Src.error(&Msg));
  EXPECT_NE(Msg.find("line 2"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("frobnicate"), std::string::npos) << Msg;
}

TEST(TextEventSourceTest, ValidatesWellFormednessOnline) {
  MemoryByteSource Bytes("T1: rel(m)\n");
  OpenedEventSource In = openEventSource(Bytes, /*Validate=*/true);
  EventSource &Src = *In.Events;
  Event Buf[4];
  EXPECT_EQ(Src.read(Buf, 4), 0u);
  std::string Msg;
  ASSERT_TRUE(Src.error(&Msg));
  EXPECT_NE(Msg.find("ill-formed"), std::string::npos) << Msg;
}

TEST(TextEventSourceTest, RecordsTheLineOfEveryDeliveredEvent) {
  MemoryByteSource Bytes("T1: acq(m)\n# c\n\nT1: wr(x)\nT1: rel(m)\n");
  TextEventSource Src(Bytes);
  Event Buf[2];
  ASSERT_EQ(Src.read(Buf, 2), 2u);
  EXPECT_EQ(Src.eventLines()[0], 1u);
  EXPECT_EQ(Src.eventLines()[1], 4u);
  ASSERT_EQ(Src.read(Buf, 2), 1u);
  EXPECT_EQ(Src.eventLines()[0], 5u) << "positions of the last read only";
  EXPECT_EQ(Src.eventBytes(), nullptr);
  EXPECT_EQ(Src.stbHeader(), nullptr);
}

TEST(StbEventSourceTest, RecordsTheEndByteOfEveryDeliveredEvent) {
  Trace Tr = traceFromText(Figure1);
  std::string Encoded;
  StringByteSink Sink(Encoded);
  ASSERT_TRUE(writeStbTrace(Tr, Sink));
  MemoryByteSource Bytes(Encoded);
  StbEventSource Src(Bytes);
  std::vector<Event> Buf(Tr.size());
  ASSERT_EQ(Src.read(Buf.data(), Buf.size()), Tr.size());
  const uint64_t *Ends = Src.eventBytes();
  ASSERT_NE(Ends, nullptr);
  for (size_t I = 1; I != Tr.size(); ++I)
    EXPECT_LT(Ends[I - 1], Ends[I]) << "event " << I;
  EXPECT_EQ(Ends[Tr.size() - 1], Encoded.size());
  EXPECT_EQ(Src.eventLines(), nullptr);
  ASSERT_NE(Src.stbHeader(), nullptr);
  EXPECT_EQ(Src.stbHeader()->EventCount, Tr.size());
}

TEST(StbEventSourceTest, RoundTripsTraceExactly) {
  ParsedTrace P;
  ASSERT_TRUE(parseTraceText("main: fork(w)\n"
                             "w: wr(x)\n"
                             "w: vwr(f)\n"
                             "main: vrd(f)\n"
                             "main: join(w)\n"
                             "main: rd(x)\n",
                             P));
  std::string Encoded;
  StringByteSink Sink(Encoded);
  ASSERT_TRUE(writeStbTrace(P.Tr, Sink));
  for (size_t ChunkMax : {1u, 5u, 4096u}) {
    DribbleByteSource Bytes(Encoded, ChunkMax);
    StbEventSource Src(Bytes);
    std::vector<Event> Got = drain(Src, 2);
    EXPECT_FALSE(Src.error());
    ASSERT_EQ(Got.size(), P.Tr.size()) << "chunk " << ChunkMax;
    for (size_t I = 0; I != Got.size(); ++I) {
      EXPECT_TRUE(Got[I] == P.Tr[I]) << "event " << I;
      EXPECT_EQ(Got[I].Site, P.Tr[I].Site) << "site of event " << I;
    }
  }
}

TEST(StbEventSourceTest, TruncatedStreamIsAnError) {
  Trace Tr = traceFromText(Figure1);
  std::string Encoded;
  StringByteSink Sink(Encoded);
  ASSERT_TRUE(writeStbTrace(Tr, Sink));
  MemoryByteSource Bytes(std::string_view(Encoded).substr(
      0, Encoded.size() - 2));
  StbEventSource Src(Bytes);
  std::vector<Event> Got = drain(Src);
  EXPECT_LT(Got.size(), Tr.size());
  std::string Msg;
  EXPECT_TRUE(Src.error(&Msg));
  EXPECT_FALSE(Msg.empty());
}

TEST(StbEventSourceTest, HugeThreadIdIsRejectedNotAllocated) {
  // A hostile 14-byte input: zeroed header, then a fork whose child tid
  // is near 2^32. Validation must reject it as ill-formed instead of
  // sizing per-thread state (gigabytes) off the untrusted id.
  std::string Bytes(StbMagic, sizeof(StbMagic));
  Bytes.append(6, '\0');
  Bytes += static_cast<char>(EventKind::Fork); // opcode: fork, no flags
  char Varint[MaxVarintBytes];
  Bytes.append(Varint, encodeVarint(0, Varint));          // tid
  Bytes.append(Varint, encodeVarint(0xfffffffeu, Varint)); // child tid
  MemoryByteSource Mem(Bytes);
  OpenedEventSource In = openEventSource(Mem, /*Validate=*/true);
  EventSource &Src = *In.Events;
  Event Buf[4];
  EXPECT_EQ(Src.read(Buf, 4), 0u);
  std::string Msg;
  ASSERT_TRUE(Src.error(&Msg));
  EXPECT_NE(Msg.find("out of range"), std::string::npos) << Msg;
}

TEST(GeneratorEventSourceTest, StreamsTheWholeWorkload) {
  const WorkloadProfile &P = *findProfile("pmd");
  WorkloadGenerator Direct(P, 5000, 7);
  std::vector<Event> Expected;
  Event E;
  while (Direct.next(E))
    Expected.push_back(E);

  WorkloadGenerator Gen(P, 5000, 7);
  GeneratorEventSource Src(Gen);
  std::vector<Event> Got = drain(Src, 777);
  ASSERT_EQ(Got.size(), Expected.size());
  for (size_t I = 0; I != Got.size(); ++I)
    EXPECT_TRUE(Got[I] == Expected[I]) << "event " << I;
}

TEST(CapturingEventSourceTest, TeesEveryEvent) {
  Trace Tr = traceFromText(Figure1);
  TraceEventSource Inner(Tr);
  std::vector<Event> Captured;
  CapturingEventSource Src(Inner, Captured);
  std::vector<Event> Got = drain(Src, 3);
  ASSERT_EQ(Captured.size(), Tr.size());
  ASSERT_EQ(Got.size(), Tr.size());
  for (size_t I = 0; I != Got.size(); ++I)
    EXPECT_TRUE(Captured[I] == Tr[I]) << "event " << I;
}

TEST(OpenEventSourceTest, SniffsStbAndText) {
  Trace Tr = traceFromText(Figure1);
  std::string Encoded;
  StringByteSink Sink(Encoded);
  ASSERT_TRUE(writeStbTrace(Tr, Sink));

  MemoryByteSource StbBytes(Encoded);
  OpenedEventSource StbIn = openEventSource(StbBytes);
  EXPECT_EQ(StbIn.Format, TraceFormat::Stb);
  EXPECT_EQ(StbIn.textParser(), nullptr);
  EXPECT_EQ(drain(*StbIn.Events).size(), Tr.size());
  ASSERT_NE(StbIn.stbHeader(), nullptr);
  EXPECT_EQ(StbIn.stbHeader()->EventCount, Tr.size());

  MemoryByteSource TextBytes(Figure1);
  OpenedEventSource TextIn = openEventSource(TextBytes);
  EXPECT_EQ(TextIn.Format, TraceFormat::Text);
  EXPECT_EQ(TextIn.stbHeader(), nullptr);
  EXPECT_EQ(drain(*TextIn.Events).size(), Tr.size());
  ASSERT_NE(TextIn.textParser(), nullptr);
  EXPECT_EQ(TextIn.textParser()->threadNames().size(), 2u);
}

TEST(OpenEventSourceTest, ShortNonStbInputDecodesAsText) {
  // Three bytes cannot be an STB magic; must fall back to text.
  MemoryByteSource Bytes("#\n");
  OpenedEventSource In = openEventSource(Bytes);
  EXPECT_EQ(In.Format, TraceFormat::Text);
  EXPECT_EQ(drain(*In.Events).size(), 0u);
  EXPECT_FALSE(In.Events->error());
}

} // namespace
