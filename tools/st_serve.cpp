//===- tools/st_serve.cpp - Multi-client race-detection service -----------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Long-running server front end over serve/Server.h: accepts framed trace
// uploads from many concurrent clients (st-analyze --connect, or anything
// speaking docs/serving.md) on unix-domain and TCP listeners, runs each
// connection through its own Session, and streams NDJSON race reports
// back live. Budgets bound every connection's memory and wall time; over
// budget means a graceful eviction (SUMMARY + ERROR frames), never a
// silent close.
//
// Usage:
//   st-serve --listen=unix:/tmp/st.sock [--listen=tcp:127.0.0.1:0] ...
//
// Exit status: 0 on a clean shutdown (signal, or --max-conns reached),
// 1 on setup errors.
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalysisRegistry.h"
#include "serve/Server.h"
#include "serve/Socket.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace st;

namespace {

volatile std::sig_atomic_t GotSignal = 0;

void onSignal(int) { GotSignal = 1; }

struct Options {
  std::vector<std::string> Listen;
  unsigned Workers = 4;
  uint64_t MaxConns = 0;
  uint64_t MemoryBudget = 0;
  double TimeBudget = 0;
  size_t MaxFrame = DefaultMaxFramePayload;
  std::vector<AnalysisKind> DefaultKinds;
  bool PrintPort = false;
};

void printUsage(FILE *Out, const char *Prog) {
  std::fprintf(
      Out,
      "usage: %s --listen=ADDR [options]\n"
      "\n"
      "Serves predictive race detection to concurrent clients: each\n"
      "connection uploads a trace (framed STB or text DSL; see\n"
      "docs/serving.md) and receives NDJSON race/diag/summary lines as\n"
      "frames, live. st-analyze --connect=ADDR is the stock client.\n"
      "\n"
      "  --listen=ADDR      listen address (repeatable): unix:PATH, or\n"
      "                     tcp:HOST:PORT / HOST:PORT (port 0 = pick one)\n"
      "  --workers=N        connections analyzed concurrently (default 4);\n"
      "                     more queue until a worker frees up\n"
      "  --max-conns=N      stop after handling N connections (default:\n"
      "                     serve until SIGINT/SIGTERM)\n"
      "  --memory-budget=N  per-connection cap on summed analysis\n"
      "                     footprint bytes; breach evicts the connection\n"
      "                     gracefully (SUMMARY + ERROR \"evicted-memory\")\n"
      "  --time-budget=S    per-connection wall-time budget in seconds,\n"
      "                     0 <= S <= %.0f (0 = none; also the socket\n"
      "                     receive timeout); breach sends ERROR\n"
      "                     \"evicted-time\"\n"
      "  --max-frame=N      per-frame payload cap in bytes (default 1MiB)\n"
      "  --analysis=NAME    default analysis when a client names none\n"
      "                     (repeatable; default ST-WDC)\n"
      "  --print-port       print the bound TCP port to stdout (for\n"
      "                     port-0 binds in test harnesses)\n"
      "  -h, --help         show this message\n",
      Prog, MaxTimeoutSeconds);
}

bool parseCount(const char *Value, const char *Flag, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long N = std::strtoull(Value, &End, 10);
  if (End == Value || *End != '\0' || *Value == '-' || errno == ERANGE) {
    std::fprintf(stderr, "error: bad %s value '%s'\n", Flag, Value);
    return false;
  }
  Out = N;
  return true;
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    uint64_t N = 0;
    if (std::strncmp(Arg, "--listen=", 9) == 0) {
      Opts.Listen.push_back(Arg + 9);
    } else if (std::strncmp(Arg, "--workers=", 10) == 0) {
      if (!parseCount(Arg + 10, "--workers", N) || N == 0 || N > 256) {
        std::fprintf(stderr, "error: --workers must be 1..256\n");
        return false;
      }
      Opts.Workers = static_cast<unsigned>(N);
    } else if (std::strncmp(Arg, "--max-conns=", 12) == 0) {
      if (!parseCount(Arg + 12, "--max-conns", Opts.MaxConns))
        return false;
    } else if (std::strncmp(Arg, "--memory-budget=", 16) == 0) {
      if (!parseCount(Arg + 16, "--memory-budget", Opts.MemoryBudget))
        return false;
    } else if (std::strncmp(Arg, "--time-budget=", 14) == 0) {
      char *End = nullptr;
      Opts.TimeBudget = std::strtod(Arg + 14, &End);
      // Written so that NaN fails too.
      if (End == Arg + 14 || *End != '\0' ||
          !(Opts.TimeBudget >= 0 && Opts.TimeBudget <= MaxTimeoutSeconds)) {
        std::fprintf(stderr, "error: bad --time-budget value '%s'\n",
                     Arg + 14);
        return false;
      }
    } else if (std::strncmp(Arg, "--max-frame=", 12) == 0) {
      if (!parseCount(Arg + 12, "--max-frame", N) || N == 0) {
        std::fprintf(stderr, "error: --max-frame must be positive\n");
        return false;
      }
      Opts.MaxFrame = static_cast<size_t>(N);
    } else if (std::strncmp(Arg, "--analysis=", 11) == 0) {
      AnalysisKind Kind;
      if (!findAnalysisKind(Arg + 11, Kind)) {
        std::fprintf(stderr, "error: unknown analysis '%s'\n", Arg + 11);
        return false;
      }
      Opts.DefaultKinds.push_back(Kind);
    } else if (std::strcmp(Arg, "--print-port") == 0) {
      Opts.PrintPort = true;
    } else if (std::strcmp(Arg, "-h") == 0 ||
               std::strcmp(Arg, "--help") == 0) {
      printUsage(stdout, Argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg);
      printUsage(stderr, Argv[0]);
      return false;
    }
  }
  if (Opts.Listen.empty()) {
    std::fprintf(stderr, "error: at least one --listen=ADDR is required\n");
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  // Handlers go in first: a signal that arrives while the listeners bind
  // or the server starts must still end in the clean shutdown below,
  // accounting line included, not in the default kill.
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 1;

  ServerOptions SO;
  SO.Workers = Opts.Workers;
  SO.MaxFramePayload = Opts.MaxFrame;
  SO.MemoryBudgetBytes = Opts.MemoryBudget;
  SO.TimeBudgetSeconds = Opts.TimeBudget;
  SO.MaxConnections = Opts.MaxConns;
  if (!Opts.DefaultKinds.empty())
    SO.DefaultKinds = Opts.DefaultKinds;

  Server Srv(SO);
  for (const std::string &Text : Opts.Listen) {
    ServeAddress Addr;
    std::string Err;
    if (!parseServeAddress(Text, Addr, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    bool OK = Addr.IsUnix ? Srv.addUnixListener(Addr.Path, &Err)
                          : Srv.addTcpListener(Addr.Host, Addr.Port, &Err);
    if (!OK) {
      std::fprintf(stderr, "error: cannot listen on %s: %s\n",
                   Text.c_str(), Err.c_str());
      return 1;
    }
    if (Addr.IsUnix)
      std::fprintf(stderr, "st-serve: listening on unix:%s\n",
                   Addr.Path.c_str());
    else
      std::fprintf(stderr, "st-serve: listening on tcp:%s:%u\n",
                   Addr.Host.c_str(), Srv.tcpPort());
  }
  if (Opts.PrintPort) {
    std::printf("%u\n", Srv.tcpPort());
    std::fflush(stdout);
  }

  std::string Err;
  if (!Srv.start(&Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }

  // The signal handler may only flip a flag, so shutdown is a poll: wake
  // a few times a second, leave on signal or once --max-conns
  // connections are fully handled.
  for (;;) {
    if (GotSignal)
      break;
    if (Opts.MaxConns && Srv.stats().handled() >= Opts.MaxConns)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  Srv.stop();

  ServerStats St = Srv.stats();
  std::fprintf(stderr,
               "st-serve: %llu accepted, %llu completed, %llu evicted, "
               "%llu rejected, %llu protocol-error(s)\n",
               static_cast<unsigned long long>(St.Accepted),
               static_cast<unsigned long long>(St.Completed),
               static_cast<unsigned long long>(St.Evicted),
               static_cast<unsigned long long>(St.Rejected),
               static_cast<unsigned long long>(St.ProtocolErrors));
  return 0;
}
