//===- loadgen/Loadgen.cpp - Open-loop load generator for st-serve --------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "loadgen/Loadgen.h"

#include "loadgen/ExpArrivals.h"
#include "serve/Frame.h"
#include "serve/Socket.h"
#include "support/Bytes.h"
#include "support/Json.h"
#include "trace/Stb.h"
#include "workload/Workload.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include <sys/socket.h>

namespace st {

namespace {

using SteadyClock = std::chrono::steady_clock;

uint64_t elapsedNs(SteadyClock::time_point Since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          SteadyClock::now() - Since)
          .count());
}

/// What one worker accumulates; merged after join, so workers share
/// nothing while running.
struct WorkerState {
  LatencyHistogram Latency;
  LatencyHistogram Service;
  uint64_t Requests = 0;
  uint64_t Completed = 0;
  uint64_t Errors = 0;
  uint64_t LateSends = 0;
  uint64_t EventsSent = 0;
  uint64_t EventsCompleted = 0;
  uint64_t BytesSent = 0;
  uint64_t Races = 0;
};

/// Everything the reader thread of one request collects. Joined before
/// use, so no synchronization beyond the thread join.
struct ReaderState {
  bool SawError = false;
  bool SawStreamSummary = false;
  uint64_t EndNs = 0; // elapsed-ns stamp at stream-SUMMARY receipt
  uint64_t Races = 0;
  uint64_t ServiceNs = 0;
  bool Capture = false;
  std::string RaceBytes;
  std::string SummaryBytes;
  std::string ErrorBytes;
};

void drainFrames(int Fd, SteadyClock::time_point Start, ReaderState &RS) {
  FdByteSource SockIn(Fd);
  FrameReader Frames(SockIn);
  Frame F;
  int R;
  while ((R = Frames.next(F)) > 0) {
    switch (F.Type) {
    case FrameType::Hello:
      break; // accepted configuration; nothing to account
    case FrameType::Race:
      if (RS.Capture)
        RS.RaceBytes += F.Payload;
      break;
    case FrameType::Diag:
      break;
    case FrameType::Summary: {
      if (RS.Capture)
        RS.SummaryBytes += F.Payload;
      uint64_t V = 0;
      // The final stream line closes the measurement window: stamp its
      // receipt, and read the accounting fields off it.
      if (jsonScanUInt(F.Payload, "\"total_dynamic_races\":", V)) {
        RS.EndNs = elapsedNs(Start);
        RS.SawStreamSummary = true;
        RS.Races = V;
        jsonScanUInt(F.Payload, "\"service_ns\":", RS.ServiceNs);
      }
      break;
    }
    case FrameType::Error:
      if (RS.Capture)
        RS.ErrorBytes += F.Payload;
      RS.SawError = true;
      break;
    default:
      break; // EVENTS/EOS never flow server -> client
    }
  }
  if (R < 0 || SockIn.error())
    RS.SawError = true;
}

void runWorker(const LoadgenOptions &Opts, const ServeAddress &Addr,
               unsigned Worker, SteadyClock::time_point Start,
               WorkerState &WS) {
  const uint64_t DurationNs =
      static_cast<uint64_t>(Opts.DurationSeconds * 1e9);
  ExpArrivals Arrivals(arrivalSeed(Opts.Seed, Worker),
                       meanArrivalGapNs(Opts));
  HelloOptions H;
  H.Analyses = Opts.Analyses;
  const std::string Hello = encodeHello(H);

  uint64_t NextNs = Arrivals.nextGapNs();
  for (uint64_t Request = 0; NextNs <= DurationNs;
       ++Request, NextNs += Arrivals.nextGapNs()) {
    // Everything that is generator cost — payload synthesis, connect,
    // handshake, reader-thread spawn — happens ahead of the scheduled
    // instant so it is never billed as server latency. If the worker is
    // already past the deadline, the request goes out late and the
    // lateness is charged to the measurement (open-loop correction).
    RequestPayload Payload = buildRequestPayload(Opts, Worker, Request);
    ++WS.Requests;
    WS.EventsSent += Payload.Events;

    std::string ConnErr;
    int Fd = connectServeAddress(Addr, &ConnErr);
    if (Fd < 0) {
      ++WS.Errors;
      continue;
    }
    setRecvTimeout(Fd, Opts.RecvTimeoutSeconds);

    FdByteSink SockOut(Fd);
    FrameWriter Writer(SockOut);
    bool Ok = Writer.write(FrameType::Hello, Hello);

    ReaderState RS;
    RS.Capture = static_cast<bool>(Opts.OnRequest);
    std::thread Reader(
        [Fd, Start, &RS] { drainFrames(Fd, Start, RS); });

    // Sleep to the scheduled instant; measure from it even when late.
    uint64_t Now = elapsedNs(Start);
    if (Now < NextNs) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(NextNs - Now));
    } else if (Now - NextNs > LateSendToleranceNs) {
      ++WS.LateSends;
    }
    const uint64_t ScheduledNs = NextNs;

    size_t Off = 0;
    while (Ok && Off < Payload.Bytes.size()) {
      size_t N = std::min(Opts.ChunkBytes, Payload.Bytes.size() - Off);
      Ok = Writer.write(FrameType::Events,
                        std::string_view(Payload.Bytes.data() + Off, N));
      Off += N;
    }
    if (Ok)
      Ok = Writer.write(FrameType::Eos, std::string_view());
    // Half-close so the server sees a definite end of upload even if a
    // frame was lost to an earlier send failure.
    ::shutdown(Fd, SHUT_WR);
    Reader.join();
    closeFd(Fd);

    WS.BytesSent += Off;
    bool CompletedOk = Ok && !RS.SawError && RS.SawStreamSummary;
    if (CompletedOk) {
      ++WS.Completed;
      WS.EventsCompleted += Payload.Events;
      WS.Races += RS.Races;
      uint64_t Latency =
          RS.EndNs > ScheduledNs ? RS.EndNs - ScheduledNs : 0;
      WS.Latency.record(Latency);
      if (RS.ServiceNs)
        WS.Service.record(RS.ServiceNs);
    } else {
      ++WS.Errors;
    }

    if (Opts.OnRequest) {
      RequestOutcome O;
      O.Ok = CompletedOk;
      O.LatencyNs = CompletedOk && RS.EndNs > ScheduledNs
                        ? RS.EndNs - ScheduledNs
                        : 0;
      O.ServiceNs = RS.ServiceNs;
      O.Races = RS.Races;
      O.Events = Payload.Events;
      O.RaceBytes = std::move(RS.RaceBytes);
      O.SummaryBytes = std::move(RS.SummaryBytes);
      O.ErrorBytes = std::move(RS.ErrorBytes);
      Opts.OnRequest(Worker, Request, O);
    }
  }
}

} // namespace

uint64_t arrivalSeed(uint64_t Seed, unsigned Worker) {
  return mixSeed(mixSeed(Seed, 0xA221A11ull), Worker);
}

double meanArrivalGapNs(const LoadgenOptions &Opts) {
  double RequestsPerSec =
      Opts.EventsPerSec / static_cast<double>(Opts.EventsPerRequest) /
      static_cast<double>(Opts.Connections);
  return 1e9 / RequestsPerSec;
}

RequestPayload buildRequestPayload(const LoadgenOptions &Opts,
                                   unsigned Worker, uint64_t Request) {
  // Two decorrelated per-(worker, request) streams: one draws the event
  // count, one seeds the workload generator. Both are pure functions of
  // the top-level seed, which is the whole determinism story.
  uint64_t CountSeed =
      mixSeed(mixSeed(mixSeed(Opts.Seed, 0xC0517ull), Worker), Request);
  uint64_t GenSeed =
      mixSeed(mixSeed(mixSeed(Opts.Seed, 0x6E47ull), Worker), Request);

  uint64_t Mean = std::max<uint64_t>(1, Opts.EventsPerRequest);
  uint64_t Target = Mean;
  switch (Opts.Dist) {
  case EventCountDist::Fixed:
    break;
  case EventCountDist::Uniform: {
    Rng R(CountSeed);
    Target = R.nextInRange(std::max<uint64_t>(1, Mean / 2),
                           Mean + Mean / 2);
    break;
  }
  case EventCountDist::Exponential: {
    ExpArrivals E(CountSeed, static_cast<double>(Mean));
    Target = std::min<uint64_t>(std::max<uint64_t>(1, E.nextGapNs()),
                                8 * Mean);
    break;
  }
  }

  const WorkloadProfile *Profile = findProfile(Opts.Workload.c_str());
  RequestPayload P;
  if (!Profile)
    return P; // runLoadgen validates up front; unreachable in practice
  StringByteSink Sink(P.Bytes);
  StbWriter W(Sink);
  W.writeHeader();
  WorkloadGenerator Gen(*Profile, Target, GenSeed);
  Event E;
  while (Gen.next(E))
    W.writeEvent(E);
  P.Events = W.eventsWritten();
  return P;
}

bool runLoadgen(const LoadgenOptions &Opts, LoadgenReport &Out,
                std::string *Err) {
  auto Fail = [&](const std::string &Msg) {
    if (Err)
      *Err = Msg;
    return false;
  };
  if (Opts.EventsPerSec <= 0)
    return Fail("events-per-sec must be positive");
  if (Opts.Connections == 0)
    return Fail("connections must be at least 1");
  if (Opts.DurationSeconds <= 0)
    return Fail("duration must be positive");
  if (Opts.EventsPerRequest == 0)
    return Fail("events-per-request must be at least 1");
  if (!findProfile(Opts.Workload.c_str()))
    return Fail("unknown workload profile: " + Opts.Workload);
  ServeAddress Addr;
  std::string AddrErr;
  if (!parseServeAddress(Opts.Connect, Addr, &AddrErr))
    return Fail(AddrErr);

  std::vector<WorkerState> States(Opts.Connections);
  SteadyClock::time_point Start = SteadyClock::now();
  {
    std::vector<std::thread> Workers;
    Workers.reserve(Opts.Connections);
    for (unsigned W = 0; W < Opts.Connections; ++W)
      Workers.emplace_back([&, W] {
        runWorker(Opts, Addr, W, Start, States[W]);
      });
    for (std::thread &T : Workers)
      T.join();
  }
  double Wall = static_cast<double>(elapsedNs(Start)) / 1e9;

  Out = LoadgenReport();
  for (const WorkerState &WS : States) {
    Out.Latency.merge(WS.Latency);
    Out.Service.merge(WS.Service);
    Out.Requests += WS.Requests;
    Out.Completed += WS.Completed;
    Out.Errors += WS.Errors;
    Out.LateSends += WS.LateSends;
    Out.EventsSent += WS.EventsSent;
    Out.EventsCompleted += WS.EventsCompleted;
    Out.BytesSent += WS.BytesSent;
    Out.Races += WS.Races;
  }
  Out.WallSeconds = Wall;
  Out.OfferedEventsPerSec = Opts.EventsPerSec;
  Out.AchievedEventsPerSec =
      Wall > 0 ? static_cast<double>(Out.EventsCompleted) / Wall : 0;
  return true;
}

} // namespace st
