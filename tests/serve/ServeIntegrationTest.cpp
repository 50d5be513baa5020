//===- tests/serve/ServeIntegrationTest.cpp - Concurrent-client parity ----===//
//
// End-to-end correctness of the serving pipeline: an in-process Server on
// a unix socket, eight concurrent clients uploading the LadderGoldenTest
// workloads as framed STB, and a byte-for-byte comparison of everything
// streamed back — RACE frame payloads against a direct Session::run()
// with an NdjsonSink, SUMMARY frames (case stats included) against the
// line encoders over the direct report, timing fields stripped. Also the
// TCP transport, queueing beyond the worker pool, budget evictions, and
// strict-validation rejection over the wire. Runs under TSan in CI: the
// worker pool, accounting, and per-connection session wiring must all be
// clean under real concurrency.
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisRegistry.h"
#include "engine/EventSource.h"
#include "report/RaceSink.h"
#include "report/ReportJson.h"
#include "report/Session.h"
#include "serve/Server.h"
#include "trace/Stb.h"
#include "workload/RandomTrace.h"

#include "ServeTestUtil.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace st;
using namespace st::serve_test;

namespace {

/// The three LadderGoldenTest workloads (same seeds and shapes, so this
/// suite inherits traces whose per-analysis race counts are pinned
/// elsewhere).
RandomTraceConfig goldenConfig(unsigned I) {
  RandomTraceConfig C;
  switch (I) {
  case 0:
    C.Seed = 1009;
    C.Threads = 4;
    C.Vars = 6;
    C.Locks = 3;
    C.Events = 600;
    C.MaxNesting = 2;
    C.PSync = 0.45;
    break;
  case 1:
    C.Seed = 424242;
    C.Threads = 5;
    C.Vars = 4;
    C.Locks = 2;
    C.Volatiles = 1;
    C.PVolatile = 0.1;
    C.Events = 500;
    C.ForkJoin = true;
    C.PSync = 0.35;
    break;
  default:
    C.Seed = 77;
    C.Threads = 8;
    C.Vars = 10;
    C.Locks = 4;
    C.Events = 800;
    C.MaxNesting = 3;
    C.PSync = 0.3;
    C.PWrite = 0.7;
    break;
  }
  return C;
}

std::string encodeStb(const Trace &Tr) {
  std::string Encoded;
  StringByteSink Sink(Encoded);
  EXPECT_TRUE(writeStbTrace(Tr, Sink));
  return Encoded;
}

/// Drops the run-dependent timing fields ("seconds", "wall_seconds",
/// "service_ns") from a summary/stream line so the rest compares
/// byte-for-byte.
std::string stripTimings(std::string Line) {
  for (const char *Key :
       {"\"seconds\":", "\"wall_seconds\":", "\"service_ns\":"}) {
    size_t P = Line.find(Key);
    if (P == std::string::npos || P == 0)
      continue;
    size_t End = Line.find_first_of(",}", P + std::strlen(Key));
    Line.erase(P - 1, End - (P - 1)); // the preceding comma too
  }
  return Line;
}

std::vector<std::string> allAnalysisNames() {
  std::vector<std::string> Names;
  for (AnalysisKind K : allAnalysisKinds())
    Names.push_back(analysisKindName(K));
  return Names;
}

/// What a direct, in-process run of one workload produces: the exact
/// race-line byte stream and the timing-stripped summary/stream lines.
struct Expected {
  std::string RaceBytes;
  std::vector<std::string> SummaryLines;
  std::string StreamLine;
};

Expected directRun(const Trace &Tr) {
  SessionOptions SO;
  SO.MaxStoredRaces = 0; // mirror the server: races stream, never stored
  Session S(SO);
  for (AnalysisKind K : allAnalysisKinds())
    S.add(K);
  Expected E;
  StringByteSink Sink(E.RaceBytes);
  NdjsonSink Json(Sink);
  S.addSink(Json);
  TraceEventSource Src(Tr);
  RunReport Rep = S.run(Src);
  for (const AnalysisRunResult &A : Rep.Analyses)
    E.SummaryLines.push_back(stripTimings(encodeSummaryLine(A, Rep.Stream.Events)));
  E.StreamLine = stripTimings(encodeStreamLine(Rep));
  return E;
}

/// Checks one client's frames against the direct-run expectation.
void expectMatchesDirect(const ClientResult &R, const Expected &E,
                         const char *What) {
  ASSERT_TRUE(R.ConnectOk) << What << ": " << R.Error;
  ASSERT_TRUE(R.ParseClean) << What << ": " << R.Error;
  ASSERT_FALSE(R.Frames.empty()) << What;
  EXPECT_EQ(R.Frames.front().Type, FrameType::Hello) << What;
  EXPECT_EQ(R.count(FrameType::Error), 0u) << What;
  EXPECT_EQ(R.count(FrameType::Diag), 0u) << What;

  // Race lines: bit-identical, in order, as one concatenated stream.
  EXPECT_EQ(R.payloads(FrameType::Race), E.RaceBytes) << What;

  // Summaries: one per analysis in registration order, then the stream
  // line, all matching the direct report with timings stripped.
  std::vector<std::string> Summaries;
  for (const Frame &F : R.Frames)
    if (F.Type == FrameType::Summary)
      Summaries.push_back(stripTimings(F.Payload));
  ASSERT_EQ(Summaries.size(), E.SummaryLines.size() + 1) << What;
  for (size_t I = 0; I != E.SummaryLines.size(); ++I)
    EXPECT_EQ(Summaries[I], E.SummaryLines[I]) << What << " summary " << I;
  EXPECT_EQ(Summaries.back(), E.StreamLine) << What;
}

TEST(ServeIntegration, EightConcurrentClientsMatchDirectRunsBitForBit) {
  // Three workers for eight clients: most connections queue, so the
  // accept queue and slot reuse are on the tested path too.
  ServerOptions SO;
  SO.Workers = 3;
  Server Srv(SO);
  std::string Path = uniqueSocketPath("integ");
  std::string Err;
  ASSERT_TRUE(Srv.addUnixListener(Path, &Err)) << Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;

  // Expectations come from direct in-process runs, computed up front.
  Trace Traces[3] = {generateRandomTrace(goldenConfig(0)),
                     generateRandomTrace(goldenConfig(1)),
                     generateRandomTrace(goldenConfig(2))};
  Expected Direct[3] = {directRun(Traces[0]), directRun(Traces[1]),
                        directRun(Traces[2])};

  HelloOptions Hello;
  Hello.Analyses = allAnalysisNames();
  std::string Conversations[3];
  for (unsigned W = 0; W != 3; ++W)
    // An awkward chunk size, so EVENTS frame boundaries split STB events
    // mid-encoding and the payload-concatenation path is exercised.
    Conversations[W] = buildConversation(Hello, encodeStb(Traces[W]),
                                         /*Chunk=*/113);

  constexpr unsigned NumClients = 8;
  ClientResult Results[NumClients];
  std::vector<std::thread> Clients;
  for (unsigned I = 0; I != NumClients; ++I)
    Clients.emplace_back([&, I] {
      Results[I] = runRawClient(Path, Conversations[I % 3], /*TimeoutSec=*/120);
    });
  for (std::thread &T : Clients)
    T.join();

  for (unsigned I = 0; I != NumClients; ++I) {
    char What[32];
    std::snprintf(What, sizeof(What), "client %u", I);
    expectMatchesDirect(Results[I], Direct[I % 3], What);
  }

  Srv.stop();
  ServerStats St = Srv.stats();
  EXPECT_EQ(St.Accepted, NumClients);
  EXPECT_EQ(St.Completed, NumClients);
  EXPECT_EQ(St.Evicted, 0u);
  EXPECT_EQ(St.Rejected, 0u);
  EXPECT_EQ(St.ProtocolErrors, 0u);
}

TEST(ServeIntegration, TcpTransportMatchesDirectRun) {
  ServerOptions SO;
  SO.Workers = 1;
  Server Srv(SO);
  std::string Err;
  ASSERT_TRUE(Srv.addTcpListener("127.0.0.1", 0, &Err)) << Err;
  ASSERT_NE(Srv.tcpPort(), 0u);
  ASSERT_TRUE(Srv.start(&Err)) << Err;

  Trace Tr = generateRandomTrace(goldenConfig(1));
  Expected E = directRun(Tr);
  HelloOptions Hello;
  Hello.Analyses = allAnalysisNames();
  std::string Conv = buildConversation(Hello, encodeStb(Tr));

  ServeAddress Addr;
  Addr.Host = "127.0.0.1";
  Addr.Port = Srv.tcpPort();
  int Fd = connectServeAddress(Addr, &Err);
  ASSERT_GE(Fd, 0) << Err;
  timeval Tv{120, 0};
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
  ClientResult R;
  R.ConnectOk = true;
  sendAll(Fd, Conv);
  ::shutdown(Fd, SHUT_WR);
  {
    FdByteSource In(Fd);
    FrameReader Frames(In);
    Frame F;
    int Rc;
    while ((Rc = Frames.next(F)) > 0)
      R.Frames.push_back(F);
    R.ParseClean = Rc == 0 && !In.error(&R.Error);
  }
  closeFd(Fd);
  expectMatchesDirect(R, E, "tcp client");

  Srv.stop();
  EXPECT_EQ(Srv.stats().Completed, 1u);
}

TEST(ServeIntegration, ServerHelloEchoesTheAcceptedConfiguration) {
  ServerOptions SO;
  SO.Workers = 1;
  Server Srv(SO);
  std::string Path = uniqueSocketPath("hello");
  std::string Err;
  ASSERT_TRUE(Srv.addUnixListener(Path, &Err)) << Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;

  HelloOptions Hello;
  Hello.Analyses = {"FTO-HB", "ST-WDC"};
  Hello.MaxRaceLines = 5;
  Trace Tr = generateRandomTrace(goldenConfig(0));
  ClientResult R = runRawClient(Path, buildConversation(Hello, encodeStb(Tr)));
  ASSERT_TRUE(R.ParseClean) << R.Error;
  ASSERT_FALSE(R.Frames.empty());
  ASSERT_EQ(R.Frames.front().Type, FrameType::Hello);

  HelloOptions Accepted;
  ASSERT_TRUE(decodeHello(R.Frames.front().Payload, Accepted, &Err)) << Err;
  EXPECT_EQ(Accepted.Version, ServeProtocolVersion);
  ASSERT_EQ(Accepted.Analyses.size(), 2u);
  EXPECT_EQ(Accepted.Analyses[0], "FTO-HB");
  EXPECT_EQ(Accepted.Analyses[1], "ST-WDC");
  EXPECT_EQ(Accepted.MaxRaceLines, 5u);

  // The race-line cap was honored per analysis.
  EXPECT_LE(R.count(FrameType::Race), 10u);
  Srv.stop();
}

TEST(ServeIntegration, StrictValidationRejectsOverTheWire) {
  ServerOptions SO;
  SO.Workers = 1;
  Server Srv(SO);
  std::string Path = uniqueSocketPath("strict");
  std::string Err;
  ASSERT_TRUE(Srv.addUnixListener(Path, &Err)) << Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;

  // rel() of a never-acquired lock: well-formed framing, ill-formed
  // trace. Text DSL upload, so the diag lines carry source lines.
  HelloOptions Hello;
  Hello.Validation = 2; // Strict
  ClientResult R =
      runRawClient(Path, buildConversation(Hello, "T0: rel(m0)\n"));
  ASSERT_TRUE(R.ParseClean) << R.Error;
  ASSERT_FALSE(R.Frames.empty());
  EXPECT_GE(R.count(FrameType::Diag), 1u);
  EXPECT_EQ(R.count(FrameType::Race), 0u);
  ASSERT_EQ(R.Frames.back().Type, FrameType::Error);
  EXPECT_NE(R.Frames.back().Payload.find("\"code\":\"rejected\""),
            std::string::npos)
      << R.Frames.back().Payload;

  Srv.stop();
  EXPECT_EQ(Srv.stats().Rejected, 1u);
}

TEST(ServeIntegration, WarnDiagFramesCarryTheSourceLine) {
  ServerOptions SO;
  SO.Workers = 1;
  Server Srv(SO);
  std::string Path = uniqueSocketPath("warn");
  std::string Err;
  ASSERT_TRUE(Srv.addUnixListener(Path, &Err)) << Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;

  // The unheld release on line 3 is a hard violation: Warn cuts before
  // it, and its DIAG frame points at the line of the upload.
  HelloOptions Hello;
  Hello.Validation = 1; // Warn
  ClientResult R = runRawClient(
      Path, buildConversation(Hello, "T0: wr(x)\n# c\nT1: rel(m0)\n"));
  ASSERT_TRUE(R.ParseClean) << R.Error;
  std::string Diags = R.payloads(FrameType::Diag);
  EXPECT_NE(Diags.find("\"code\":\"STL002\""), std::string::npos) << Diags;
  EXPECT_NE(Diags.find("\"line\":3"), std::string::npos) << Diags;
  EXPECT_EQ(R.count(FrameType::Error), 0u);

  Srv.stop();
}

TEST(ServeIntegration, MemoryBudgetEvictsGracefully) {
  // A 1-byte budget with a small batch size: the first footprint check
  // after a processed batch breaches, and the connection is evicted with
  // partial SUMMARY frames plus an ERROR naming the budget.
  ServerOptions SO;
  SO.Workers = 1;
  SO.MemoryBudgetBytes = 1;
  Server Srv(SO);
  std::string Path = uniqueSocketPath("evict");
  std::string Err;
  ASSERT_TRUE(Srv.addUnixListener(Path, &Err)) << Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;

  HelloOptions Hello;
  Hello.Analyses = {"ST-WDC"};
  Hello.BatchSize = 64;
  Trace Tr = generateRandomTrace(goldenConfig(0));
  ClientResult R = runRawClient(Path, buildConversation(Hello, encodeStb(Tr)));
  ASSERT_TRUE(R.ParseClean) << R.Error;
  ASSERT_FALSE(R.Frames.empty());
  ASSERT_EQ(R.Frames.back().Type, FrameType::Error);
  EXPECT_NE(R.Frames.back().Payload.find("\"code\":\"evicted-memory\""),
            std::string::npos)
      << R.Frames.back().Payload;
  // Graceful: the prefix analyzed so far was still summarized.
  EXPECT_GE(R.count(FrameType::Summary), 2u);

  Srv.stop();
  ServerStats St = Srv.stats();
  EXPECT_EQ(St.Evicted, 1u);
  EXPECT_EQ(St.Completed, 0u);
}

TEST(ServeIntegration, TimeBudgetEvictsAStallingClient) {
  // Budget 250ms; the client trickles events with 100ms pauses for ~1s.
  // Each pause is under the socket receive timeout, so reads keep
  // succeeding — it is the wall-clock deadline that trips, at a read
  // entry, after the budget elapses.
  ServerOptions SO;
  SO.Workers = 1;
  SO.TimeBudgetSeconds = 0.25;
  Server Srv(SO);
  std::string Path = uniqueSocketPath("time");
  std::string Err;
  ASSERT_TRUE(Srv.addUnixListener(Path, &Err)) << Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;

  HelloOptions Hello;
  Hello.Analyses = {"ST-WDC"};
  Hello.BatchSize = 16; // small batches: frequent budget checks
  std::string Stb = encodeStb(generateRandomTrace(goldenConfig(0)));

  int Fd = connectWithTimeout(Path, 60, &Err);
  ASSERT_GE(Fd, 0) << Err;
  sendAll(Fd, frameBytes(FrameType::Hello, encodeHello(Hello)));
  size_t Chunk = Stb.size() / 10 + 1;
  for (size_t Off = 0; Off < Stb.size(); Off += Chunk) {
    sendAll(Fd, frameBytes(FrameType::Events,
                           std::string_view(Stb).substr(Off, Chunk)));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  sendAll(Fd, frameBytes(FrameType::Eos, std::string_view()));
  ::shutdown(Fd, SHUT_WR);

  ClientResult R;
  {
    FdByteSource In(Fd);
    FrameReader Frames(In);
    Frame F;
    int Rc;
    while ((Rc = Frames.next(F)) > 0)
      R.Frames.push_back(F);
    R.ParseClean = Rc == 0 && !In.error(&R.Error);
  }
  closeFd(Fd);

  ASSERT_TRUE(R.ParseClean) << R.Error;
  ASSERT_FALSE(R.Frames.empty());
  ASSERT_EQ(R.Frames.back().Type, FrameType::Error);
  EXPECT_NE(R.Frames.back().Payload.find("\"code\":\"evicted-time\""),
            std::string::npos)
      << R.Frames.back().Payload;

  Srv.stop();
  EXPECT_EQ(Srv.stats().Evicted, 1u);
}

TEST(ServeIntegration, HandshakeErrorsAreNamedAndAccounted) {
  ServerOptions SO;
  SO.Workers = 1;
  Server Srv(SO);
  std::string Path = uniqueSocketPath("handshake");
  std::string Err;
  ASSERT_TRUE(Srv.addUnixListener(Path, &Err)) << Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;

  auto LastErrorCode = [&](const std::string &Bytes) -> std::string {
    ClientResult R = runRawClient(Path, Bytes);
    EXPECT_TRUE(R.ParseClean) << R.Error;
    if (R.Frames.empty() || R.Frames.back().Type != FrameType::Error)
      return "<no error frame>";
    const std::string &P = R.Frames.back().Payload;
    size_t B = P.find("\"code\":\"");
    if (B == std::string::npos)
      return "<no code>";
    B += std::strlen("\"code\":\"");
    return P.substr(B, P.find('"', B) - B);
  };

  // No HELLO at all.
  EXPECT_EQ(LastErrorCode(frameBytes(FrameType::Eos, std::string_view())),
            "protocol");
  // HELLO payload that is not a HELLO.
  EXPECT_EQ(LastErrorCode(frameBytes(FrameType::Hello, "garbage")),
            "bad-hello");
  // Future protocol version.
  HelloOptions Future;
  Future.Version = ServeProtocolVersion + 1;
  EXPECT_EQ(LastErrorCode(frameBytes(FrameType::Hello, encodeHello(Future))),
            "bad-version");
  // Unknown analysis name.
  HelloOptions BadName;
  BadName.Analyses = {"NOT-AN-ANALYSIS"};
  EXPECT_EQ(LastErrorCode(frameBytes(FrameType::Hello, encodeHello(BadName))),
            "bad-hello");

  Srv.stop();
  ServerStats St = Srv.stats();
  EXPECT_EQ(St.Accepted, 4u);
  EXPECT_EQ(St.ProtocolErrors, 4u);
}

} // namespace
