//===- serve/Server.cpp - Multi-client race-detection service -------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "analysis/AnalysisRegistry.h"
#include "engine/FrameEventSource.h"
#include "report/FrameSink.h"
#include "report/ReportJson.h"
#include "serve/Socket.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <functional>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

using namespace st;

namespace {

using Clock = std::chrono::steady_clock;

/// Enforces the per-connection budgets at every engine read: once the
/// wall-time deadline passes or the summed analysis footprint exceeds the
/// memory budget, the stream ends early and breached() names the budget.
/// A breach is not an input error — error() still reports only transport
/// and decode problems — so eviction and rejection stay distinct.
class BudgetedEventSource : public EventSource {
public:
  BudgetedEventSource(EventSource &Inner, uint64_t MemoryBytes,
                      double Seconds, std::function<size_t()> Footprint)
      : Inner(Inner), MemoryBytes(MemoryBytes),
        Footprint(std::move(Footprint)), HasDeadline(Seconds > 0) {
    if (HasDeadline)
      Deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(Seconds));
  }

  size_t read(Event *Buf, size_t Max) override {
    if (Breached)
      return 0;
    if (HasDeadline && Clock::now() > Deadline)
      return breach("evicted-time", "wall-time budget exhausted");
    if (MemoryBytes && Footprint) {
      size_t Bytes = Footprint();
      if (Bytes > MemoryBytes) {
        char Msg[128];
        std::snprintf(Msg, sizeof(Msg),
                      "analysis footprint %zu bytes exceeds budget %llu",
                      Bytes,
                      static_cast<unsigned long long>(MemoryBytes));
        return breach("evicted-memory", Msg);
      }
    }
    return Inner.read(Buf, Max);
  }

  bool error(std::string *Msg = nullptr) const override {
    return Inner.error(Msg);
  }
  const TraceTextParser *textParser() const override {
    return Inner.textParser();
  }
  const uint32_t *eventLines() const override { return Inner.eventLines(); }
  const uint64_t *eventBytes() const override { return Inner.eventBytes(); }
  const StbHeader *stbHeader() const override { return Inner.stbHeader(); }

  bool breached() const { return Breached; }
  const std::string &breachCode() const { return Code; }
  const std::string &breachReason() const { return Reason; }

private:
  size_t breach(const char *C, const char *Why) {
    Breached = true;
    Code = C;
    Reason = Why;
    return 0;
  }

  EventSource &Inner;
  uint64_t MemoryBytes;
  std::function<size_t()> Footprint;
  bool HasDeadline;
  Clock::time_point Deadline;
  bool Breached = false;
  std::string Code, Reason;
};

/// How one connection ended; each maps to exactly one ServerStats bucket.
enum class Outcome { Completed, Evicted, Rejected, Protocol };

} // namespace

Server::Server(ServerOptions Opts) : Opts(std::move(Opts)) {
  if (this->Opts.Workers == 0)
    this->Opts.Workers = 1;
}

Server::~Server() { stop(); }

bool Server::addUnixListener(const std::string &Path, std::string *Err) {
  int Fd = listenUnix(Path, Err);
  if (Fd < 0)
    return false;
  Listeners.push_back(Fd);
  UnixPaths.push_back(Path);
  return true;
}

bool Server::addTcpListener(const std::string &Host, uint16_t Port,
                            std::string *Err) {
  int Fd = listenTcp(Host, Port, Err);
  if (Fd < 0)
    return false;
  Listeners.push_back(Fd);
  TcpPort = boundTcpPort(Fd);
  return true;
}

bool Server::start(std::string *Err) {
  if (Listeners.empty()) {
    if (Err)
      *Err = "no listeners configured";
    return false;
  }
  if (Started) {
    if (Err)
      *Err = "already started";
    return false;
  }
  Started = true;
  Acceptor = std::thread([this] { acceptLoop(); });
  WorkerThreads.reserve(Opts.Workers);
  for (unsigned I = 0; I != Opts.Workers; ++I)
    WorkerThreads.emplace_back([this] { workerLoop(); });
  return true;
}

void Server::wait() {
  std::unique_lock<std::mutex> Lk(M);
  DoneCv.wait(Lk, [&] {
    return Stopping ||
           (Opts.MaxConnections && Stats.handled() >= Opts.MaxConnections);
  });
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> Lk(M);
    Stopping = true;
  }
  QueueCv.notify_all();
  DoneCv.notify_all();
  if (Acceptor.joinable())
    Acceptor.join();
  for (std::thread &T : WorkerThreads)
    if (T.joinable())
      T.join();
  WorkerThreads.clear();
  for (int L : Listeners)
    closeFd(L);
  Listeners.clear();
  for (const std::string &P : UnixPaths)
    ::unlink(P.c_str());
  UnixPaths.clear();
}

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> Lk(M);
  return Stats;
}

void Server::acceptLoop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> Lk(M);
      if (Stopping)
        return;
      if (Opts.MaxConnections && Stats.Accepted >= Opts.MaxConnections)
        return;
    }
    std::vector<pollfd> Fds;
    Fds.reserve(Listeners.size());
    for (int L : Listeners)
      Fds.push_back(pollfd{L, POLLIN, 0});
    // Finite timeout so a stop() request is noticed promptly without a
    // self-pipe.
    int R = ::poll(Fds.data(), static_cast<nfds_t>(Fds.size()), 200);
    if (R < 0) {
      if (errno == EINTR)
        continue;
      return;
    }
    if (R == 0)
      continue;
    for (const pollfd &P : Fds) {
      if (!(P.revents & POLLIN))
        continue;
      int C = ::accept(P.fd, nullptr, nullptr);
      if (C < 0)
        continue;
      std::lock_guard<std::mutex> Lk(M);
      if (Stopping ||
          (Opts.MaxConnections && Stats.Accepted >= Opts.MaxConnections)) {
        closeFd(C);
        continue;
      }
      ++Stats.Accepted;
      Pending.push_back(C);
      QueueCv.notify_one();
    }
  }
}

void Server::workerLoop() {
  for (;;) {
    int Fd = -1;
    {
      std::unique_lock<std::mutex> Lk(M);
      QueueCv.wait(Lk, [&] { return !Pending.empty() || Stopping; });
      if (Pending.empty())
        return; // stopping, queue drained
      Fd = Pending.front();
      Pending.pop_front();
    }
    handleConnection(Fd);
    closeFd(Fd);
  }
}

void Server::handleConnection(int Fd) {
  setRecvTimeout(Fd, Opts.TimeBudgetSeconds);
  FdByteSource In(Fd);
  FdByteSink Out(Fd);
  FrameReader Reader(In, Opts.MaxFramePayload, Opts.Session.IoBufferBytes);
  FrameWriter Writer(Out);

  Outcome Result = Outcome::Protocol;
  auto Finish = [&](Outcome O, const char *ErrCode,
                    const std::string &ErrMsg) {
    if (ErrCode)
      Writer.write(FrameType::Error, encodeErrorLine(ErrCode, ErrMsg));
    Result = O;
  };

  [&] {
    // --- Handshake -----------------------------------------------------
    Frame F;
    int R = Reader.next(F);
    if (R <= 0 || F.Type != FrameType::Hello) {
      std::string Msg;
      if (R < 0)
        Msg = Reader.error();
      else if (R > 0)
        Msg = std::string("expected HELLO frame, got ") +
              frameTypeName(F.Type);
      else if (!In.error(&Msg)) // else: recv timeout/reset message
        Msg = "connection closed before HELLO";
      return Finish(Outcome::Protocol, "protocol", Msg);
    }
    HelloOptions Hello;
    std::string Err;
    if (!decodeHello(F.Payload, Hello, &Err))
      return Finish(Outcome::Protocol, "bad-hello", Err);
    if (Hello.Version != ServeProtocolVersion)
      return Finish(Outcome::Protocol, "bad-version",
                    "server speaks protocol version " +
                        std::to_string(ServeProtocolVersion) +
                        ", client sent " + std::to_string(Hello.Version));
    std::vector<AnalysisKind> Kinds;
    if (Hello.Analyses.empty()) {
      Kinds = Opts.DefaultKinds;
    } else {
      for (const std::string &Name : Hello.Analyses) {
        AnalysisKind K;
        if (!findAnalysisKind(Name.c_str(), K))
          return Finish(Outcome::Protocol, "bad-hello",
                        "unknown analysis '" + Name + "'");
        Kinds.push_back(K);
      }
    }
    if (Hello.Validation > 2)
      return Finish(Outcome::Protocol, "bad-hello",
                    "unknown validation mode " +
                        std::to_string(Hello.Validation));

    // --- Per-connection session ---------------------------------------
    SessionOptions SO = Opts.Session;
    SO.Parallel = false; // the worker pool is the parallelism
    SO.Vindicate = false;
    SO.MaxStoredRaces = 0; // races stream out as RACE frames
    SO.Validation = static_cast<ValidationMode>(Hello.Validation);
    if (Hello.BatchSize)
      SO.BatchSize = static_cast<size_t>(Hello.BatchSize);
    // Cap on RACE frames per analysis; SIZE_MAX means unlimited.
    size_t MaxRaceLines = Hello.MaxRaceLines == UINT64_MAX
                              ? SIZE_MAX
                              : static_cast<size_t>(Hello.MaxRaceLines);
    if (Hello.MaxDiags)
      SO.MaxStoredDiagnostics = static_cast<size_t>(Hello.MaxDiags);

    HelloOptions Accepted;
    for (AnalysisKind K : Kinds)
      Accepted.Analyses.push_back(analysisKindName(K));
    Accepted.Validation = Hello.Validation;
    Accepted.MaxRaceLines = Hello.MaxRaceLines;
    Accepted.BatchSize = SO.BatchSize;
    Accepted.MaxDiags = SO.MaxStoredDiagnostics;
    Writer.write(FrameType::Hello, encodeHello(Accepted));

    // Bind/refresh race-line symbols at the engine quiet point — the
    // same timing as st-analyze, so wire race lines match its NDJSON
    // output byte for byte (text uploads; STB spells canonical ids).
    FrameEventSource *EventsPtr = nullptr;
    FrameSink *RacesPtr = nullptr;
    bool SymbolsBound = false;
    SO.OnBatchPublish = [&] {
      if (!EventsPtr || !RacesPtr)
        return;
      if (const TraceTextParser *P = EventsPtr->textParser()) {
        if (!SymbolsBound) {
          RacesPtr->setSymbols(&P->threadNames(), &P->varNames());
          SymbolsBound = true;
        } else {
          RacesPtr->refreshSymbols();
        }
      }
    };

    Session Sess(SO);
    for (AnalysisKind K : Kinds)
      Sess.add(K);
    FrameSink Races(Writer);
    Races.setMaxRacesPerAnalysis(MaxRaceLines);
    Sess.addSink(Races);
    FrameEventSource Events(Reader,
                            /*Validate=*/SO.Validation == ValidationMode::Off,
                            SO.IoBufferBytes);
    EventsPtr = &Events;
    RacesPtr = &Races;
    BudgetedEventSource Budgeted(
        Events, Opts.MemoryBudgetBytes, Opts.TimeBudgetSeconds, [&Sess] {
          size_t Sum = 0;
          for (size_t I = 0; I != Sess.analysisCount(); ++I)
            Sum += Sess.analysis(I).footprintBytes();
          return Sum;
        });

    RunReport Rep = Sess.run(Budgeted);

    // --- Report --------------------------------------------------------
    for (const LintDiagnostic &D : Rep.Validation.Diagnostics)
      Writer.write(FrameType::Diag, encodeDiagLine(D));
    if (!Rep.rejected()) {
      for (const AnalysisRunResult &A : Rep.Analyses)
        Writer.write(FrameType::Summary,
                     encodeSummaryLine(A, Rep.Stream.Events));
    }
    // Server-side service time: first EVENTS frame off the wire to the
    // stream SUMMARY being encoded. Absent for uploads that never sent
    // an EVENTS frame.
    uint64_t ServiceNs = 0;
    std::chrono::steady_clock::time_point FirstEvents;
    if (Events.firstEventsAt(FirstEvents))
      ServiceNs = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - FirstEvents)
              .count());
    Writer.write(FrameType::Summary, encodeStreamLine(Rep, ServiceNs));

    if (Budgeted.breached())
      return Finish(Outcome::Evicted, Budgeted.breachCode().c_str(),
                    Budgeted.breachReason());
    if (Rep.rejected())
      return Finish(Outcome::Rejected, "rejected",
                    "input rejected by strict validation (" +
                        std::to_string(Rep.Validation.Errors) +
                        " error(s))");
    std::string StreamErr;
    if (Budgeted.error(&StreamErr))
      return Finish(Outcome::Rejected, "decode", StreamErr);
    return Finish(Outcome::Completed, nullptr, std::string());
  }();

  {
    std::lock_guard<std::mutex> Lk(M);
    switch (Result) {
    case Outcome::Completed:
      ++Stats.Completed;
      break;
    case Outcome::Evicted:
      ++Stats.Evicted;
      break;
    case Outcome::Rejected:
      ++Stats.Rejected;
      break;
    case Outcome::Protocol:
      ++Stats.ProtocolErrors;
      break;
    }
  }
  DoneCv.notify_all();
}
