//===- tools/st_analyze.cpp - Unified trace analysis driver ---------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The command-line entry point to the whole analysis ladder, built on the
// report-layer Session facade: the input (TraceText DSL or STB binary,
// file or stdin, format sniffed from the first bytes) streams through
// every selected analysis in a single pass — one parse for --all,
// O(analysis-metadata) memory, optional thread-per-analysis fan-out —
// and races stream out through RaceSinks (NDJSON for constant-memory
// reporting of multi-million-race runs). Also converts between the two
// trace formats and generates random workload traces so large inputs
// need no separate tool.
//
// Usage:
//   st-analyze [--analysis=NAME]... [--all] [--vindicate] [--stats]
//              [--format=text|json|ndjson] [--max-races=N] [--quiet]
//              [--batch=N] [--parallel] [file|-]
//   st-analyze --convert=text|stb [-o FILE] [file|-]
//   st-analyze --gen SPEC [--convert=text|stb] [-o FILE]
//   st-analyze --list
//
// Exit status: 0 when no analysis reports a race, 2 when at least one
// does, 1 on usage or parse errors.
//
//===----------------------------------------------------------------------===//

#include "report/ReportJson.h"
#include "report/Session.h"
#include "serve/Frame.h"
#include "serve/Socket.h"
#include "trace/Stb.h"
#include "trace/TraceText.h"
#include "workload/RandomTrace.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>

using namespace st;

namespace {

enum class ReportFormat : uint8_t { Text, Json, Ndjson };

struct Options {
  std::vector<AnalysisKind> Kinds;
  const char *Path = nullptr;    // nullptr or "-" means stdin
  const char *OutPath = nullptr; // nullptr means stdout
  const char *GenSpec = nullptr;
  bool Convert = false;
  TraceFormat ConvertTo = TraceFormat::Text;
  ReportFormat Format = ReportFormat::Text;
  bool Vindicate = false;
  bool Stats = false;
  bool Quiet = false;
  bool Parallel = false;
  size_t BatchSize = 1 << 14;
  size_t MaxStoredRaces = SIZE_MAX;
  ValidationMode Validation = ValidationMode::Off;
  size_t MaxDiags = 1024;
  /// st-serve address (unix:PATH or HOST:PORT); non-null selects client
  /// mode: the trace bytes upload as EVENTS frames and the server's
  /// NDJSON report lines stream to stdout.
  const char *Connect = nullptr;
};

void printUsage(FILE *Out, const char *Prog) {
  std::fprintf(
      Out,
      "usage: %s [options] [file|-]\n"
      "\n"
      "Streams a trace (TraceText DSL or STB binary, auto-detected) from\n"
      "FILE (or stdin) through predictive race detection: all selected\n"
      "analyses run in a single pass over one parse of the input.\n"
      "\n"
      "analysis options:\n"
      "  --analysis=NAME  analysis to run (repeatable; default ST-WDC);\n"
      "                   names are listed below and by --list\n"
      "  --all            run every analysis in the registry\n"
      "  --list           list the registered analyses and exit\n"
      "  --vindicate      check each reported race for predictability and\n"
      "                   print the witness length (buffers the trace)\n"
      "  --stats          print the per-case access-frequency counters\n"
      "                   (Table 12) for analyses that track them\n"
      "  --format=FMT     report format: text (default), json (stable\n"
      "                   machine-readable races/timings/case counters),\n"
      "                   or ndjson (one JSON object per line, streamed\n"
      "                   at race time in O(1) race memory)\n"
      "  --max-races=N    store at most N race records per analysis (in\n"
      "                   ndjson: emit at most N race lines per analysis)\n"
      "  --quiet          print only the per-analysis summary lines\n"
      "\n"
      "engine options:\n"
      "  --batch=N        events per engine batch (default 16384)\n"
      "  --parallel       one worker thread per analysis\n"
      "  --validate=MODE  lint pass over the input (st-lint's full rule\n"
      "                   set): off (default; raw hard checks only), warn\n"
      "                   (diagnostics on stderr, analysis proceeds over\n"
      "                   the well-formed prefix), or strict (an error\n"
      "                   rejects the stream — the analyses never see the\n"
      "                   offending event and report nothing)\n"
      "  --max-diags=N    retain at most N validation diagnostics (default\n"
      "                   1024; the severity totals keep counting past it)\n"
      "\n"
      "serving:\n"
      "  --connect=ADDR   run the analysis on an st-serve server instead\n"
      "                   of in-process: upload the input over unix:PATH\n"
      "                   or HOST:PORT and stream the server's NDJSON\n"
      "                   report lines (race/diag/summary/stream/error)\n"
      "                   to stdout; --analysis/--validate/--max-races/\n"
      "                   --max-diags/--batch are forwarded in the\n"
      "                   handshake (docs/serving.md)\n"
      "\n"
      "trace tooling:\n"
      "  --convert=FMT    no analysis: re-encode the input as text or stb\n"
      "  --gen SPEC       no input: generate a random well-formed trace;\n"
      "                   SPEC is key=value pairs joined by commas, keys:\n"
      "                   threads vars locks volatiles events nesting\n"
      "                   psync pwrite pvolatile forkjoin sites seed\n"
      "  -o FILE          write --convert/--gen output to FILE\n"
      "  -h, --help       show this message\n"
      "\n"
      "available analyses (Table 1 registry order; see docs/analyses.md):\n"
      " ",
      Prog);
  for (AnalysisKind K : allAnalysisKinds())
    std::fprintf(Out, " %s", analysisKindName(K));
  std::fprintf(Out, "\n");
}

void printAnalysisList() {
  std::printf("available analyses (Table 1 registry order; names are "
              "accepted by --analysis):\n");
  for (AnalysisKind K : allAnalysisKinds())
    std::printf("  %-14s (%s%s)\n", analysisKindName(K),
                buildsGraph(K) ? "records constraint graph, " : "",
                [&] {
                  switch (relationOf(K)) {
                  case RelationKind::HB:
                    return "HB";
                  case RelationKind::WCP:
                    return "WCP";
                  case RelationKind::DC:
                    return "DC";
                  case RelationKind::WDC:
                    return "WDC";
                  }
                  return "?";
                }());
  std::printf("docs/analyses.md maps each name to the paper's "
              "configurations; --format=json\nemits the machine-readable "
              "report.\n");
}

bool parseCount(const char *Value, const char *Flag, size_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long N = std::strtoull(Value, &End, 10);
  if (End == Value || *End != '\0' || *Value == '-' || errno == ERANGE) {
    std::fprintf(stderr, "error: bad %s value '%s'\n", Flag, Value);
    return false;
  }
  Out = static_cast<size_t>(N);
  return true;
}

bool parseArgs(int Argc, char **Argv, Options &Opts) {
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--analysis=", 11) == 0) {
      AnalysisKind Kind;
      if (!findAnalysisKind(Arg + 11, Kind)) {
        std::fprintf(stderr, "error: unknown analysis '%s'; available:\n",
                     Arg + 11);
        for (AnalysisKind K : allAnalysisKinds())
          std::fprintf(stderr, "  %s\n", analysisKindName(K));
        return false;
      }
      Opts.Kinds.push_back(Kind);
    } else if (std::strcmp(Arg, "--all") == 0) {
      Opts.Kinds = allAnalysisKinds();
    } else if (std::strcmp(Arg, "--list") == 0) {
      printAnalysisList();
      std::exit(0);
    } else if (std::strcmp(Arg, "--vindicate") == 0) {
      Opts.Vindicate = true;
    } else if (std::strcmp(Arg, "--stats") == 0) {
      Opts.Stats = true;
    } else if (std::strncmp(Arg, "--format=", 9) == 0) {
      const char *V = Arg + 9;
      if (std::strcmp(V, "text") == 0) {
        Opts.Format = ReportFormat::Text;
      } else if (std::strcmp(V, "json") == 0) {
        Opts.Format = ReportFormat::Json;
      } else if (std::strcmp(V, "ndjson") == 0) {
        Opts.Format = ReportFormat::Ndjson;
      } else {
        std::fprintf(
            stderr,
            "error: bad --format '%s' (expected text, json, or ndjson)\n",
            V);
        return false;
      }
    } else if (std::strncmp(Arg, "--convert=", 10) == 0) {
      const char *V = Arg + 10;
      if (std::strcmp(V, "text") == 0) {
        Opts.ConvertTo = TraceFormat::Text;
      } else if (std::strcmp(V, "stb") == 0) {
        Opts.ConvertTo = TraceFormat::Stb;
      } else {
        std::fprintf(stderr,
                     "error: bad --convert '%s' (expected text or stb)\n", V);
        return false;
      }
      Opts.Convert = true;
    } else if (std::strcmp(Arg, "--gen") == 0) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: --gen needs a workload spec\n");
        return false;
      }
      Opts.GenSpec = Argv[++I];
    } else if (std::strcmp(Arg, "-o") == 0) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: -o needs a file name\n");
        return false;
      }
      Opts.OutPath = Argv[++I];
    } else if (std::strncmp(Arg, "--max-races=", 12) == 0) {
      if (!parseCount(Arg + 12, "--max-races", Opts.MaxStoredRaces))
        return false;
    } else if (std::strncmp(Arg, "--batch=", 8) == 0) {
      if (!parseCount(Arg + 8, "--batch", Opts.BatchSize))
        return false;
      if (Opts.BatchSize == 0)
        Opts.BatchSize = 1;
    } else if (std::strncmp(Arg, "--max-diags=", 12) == 0) {
      if (!parseCount(Arg + 12, "--max-diags", Opts.MaxDiags))
        return false;
    } else if (std::strncmp(Arg, "--connect=", 10) == 0) {
      Opts.Connect = Arg + 10;
    } else if (std::strncmp(Arg, "--validate=", 11) == 0) {
      const char *V = Arg + 11;
      if (std::strcmp(V, "off") == 0) {
        Opts.Validation = ValidationMode::Off;
      } else if (std::strcmp(V, "warn") == 0) {
        Opts.Validation = ValidationMode::Warn;
      } else if (std::strcmp(V, "strict") == 0) {
        Opts.Validation = ValidationMode::Strict;
      } else {
        std::fprintf(
            stderr,
            "error: bad --validate '%s' (expected off, warn, or strict)\n",
            V);
        return false;
      }
    } else if (std::strcmp(Arg, "--parallel") == 0) {
      Opts.Parallel = true;
    } else if (std::strcmp(Arg, "--quiet") == 0) {
      Opts.Quiet = true;
    } else if (std::strcmp(Arg, "-h") == 0 ||
               std::strcmp(Arg, "--help") == 0) {
      printUsage(stdout, Argv[0]);
      std::exit(0);
    } else if (Arg[0] == '-' && Arg[1] != '\0') {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg);
      printUsage(stderr, Argv[0]);
      return false;
    } else if (Opts.Path) {
      std::fprintf(stderr, "error: more than one input file\n");
      return false;
    } else {
      Opts.Path = Arg;
    }
  }
  if (Opts.Kinds.empty())
    Opts.Kinds.push_back(AnalysisKind::STWDC);
  if (Opts.Connect) {
    // Client mode ships the trace to the server; everything that needs
    // the events in-process cannot combine with it.
    const char *Clash = nullptr;
    if (Opts.Vindicate)
      Clash = "--vindicate";
    else if (Opts.Convert)
      Clash = "--convert";
    else if (Opts.GenSpec)
      Clash = "--gen";
    else if (Opts.Parallel)
      Clash = "--parallel";
    else if (Opts.Format == ReportFormat::Json)
      Clash = "--format=json";
    if (Clash) {
      std::fprintf(stderr,
                   "error: %s runs in-process; it is incompatible with "
                   "--connect\n",
                   Clash);
      return false;
    }
  }
  if (Opts.Format == ReportFormat::Ndjson && Opts.Vindicate) {
    std::fprintf(stderr, "error: --vindicate needs stored races; it is "
                         "incompatible with --format=ndjson\n");
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// --gen: random trace generation
//===----------------------------------------------------------------------===//

bool parseGenSpec(const char *Spec, RandomTraceConfig &C) {
  std::string S(Spec);
  size_t Pos = 0;
  while (Pos < S.size()) {
    size_t Comma = S.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = S.size();
    std::string Pair = S.substr(Pos, Comma - Pos);
    Pos = Comma + 1;
    if (Pair.empty())
      continue;
    size_t Eq = Pair.find('=');
    if (Eq == std::string::npos) {
      std::fprintf(stderr, "error: --gen entry '%s' is not key=value\n",
                   Pair.c_str());
      return false;
    }
    std::string Key = Pair.substr(0, Eq);
    const char *Value = Pair.c_str() + Eq + 1;
    char *End = nullptr;
    double V = std::strtod(Value, &End);
    if (End == Value || *End != '\0') {
      std::fprintf(stderr, "error: --gen value '%s' for '%s' is not a "
                           "number\n",
                   Value, Key.c_str());
      return false;
    }
    if (Key == "threads")
      C.Threads = static_cast<unsigned>(V);
    else if (Key == "vars")
      C.Vars = static_cast<unsigned>(V);
    else if (Key == "locks")
      C.Locks = static_cast<unsigned>(V);
    else if (Key == "volatiles")
      C.Volatiles = static_cast<unsigned>(V);
    else if (Key == "events")
      C.Events = static_cast<unsigned>(V);
    else if (Key == "nesting")
      C.MaxNesting = static_cast<unsigned>(V);
    else if (Key == "psync")
      C.PSync = V;
    else if (Key == "pwrite")
      C.PWrite = V;
    else if (Key == "pvolatile")
      C.PVolatile = V;
    else if (Key == "forkjoin")
      C.ForkJoin = V != 0;
    else if (Key == "sites")
      C.AccessSites = V != 0;
    else if (Key == "seed")
      C.Seed = static_cast<uint64_t>(V);
    else {
      std::fprintf(stderr,
                   "error: unknown --gen key '%s' (keys: threads vars locks "
                   "volatiles events nesting psync pwrite pvolatile forkjoin "
                   "sites seed)\n",
                   Key.c_str());
      return false;
    }
  }
  return true;
}

/// Opens the --convert/--gen output stream (stdout by default).
FILE *openOutput(const Options &Opts) {
  if (!Opts.OutPath)
    return stdout;
  FILE *Out = std::fopen(Opts.OutPath, "wb");
  if (!Out)
    std::fprintf(stderr, "error: cannot open %s for writing\n",
                 Opts.OutPath);
  return Out;
}

int generateTrace(const Options &Opts) {
  RandomTraceConfig Config;
  if (!parseGenSpec(Opts.GenSpec, Config))
    return 1;
  Trace Tr = generateRandomTrace(Config);
  FILE *Out = openOutput(Opts);
  if (!Out)
    return 1;
  FileByteSink Sink(Out);
  bool OK;
  if (Opts.Convert && Opts.ConvertTo == TraceFormat::Stb) {
    OK = writeStbTrace(Tr, Sink);
  } else {
    OK = true;
    for (const Event &E : Tr.events())
      if (!printTraceTextEvent(E, Sink)) {
        OK = false;
        break;
      }
  }
  if (Out != stdout)
    std::fclose(Out);
  if (!OK) {
    std::fprintf(stderr, "error: write failed\n");
    return 1;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// --convert: streaming re-encoding
//===----------------------------------------------------------------------===//

int convertTrace(const Options &Opts, OpenedEventSource &In) {
  FILE *Out = openOutput(Opts);
  if (!Out)
    return 1;
  FileByteSink Sink(Out);
  StbWriter Stb(Sink);
  bool WriteOK = Opts.ConvertTo != TraceFormat::Stb || Stb.writeHeader();
  const TraceTextParser *Names = In.textParser();

  std::vector<Event> Batch(Opts.BatchSize);
  size_t N;
  while (WriteOK && (N = In.Events->read(Batch.data(), Batch.size())) > 0) {
    for (size_t I = 0; I != N && WriteOK; ++I) {
      if (Opts.ConvertTo == TraceFormat::Stb)
        WriteOK = Stb.writeEvent(Batch[I]);
      else
        WriteOK = printTraceTextEvent(
            Batch[I], Sink, Names ? &Names->threadNames() : nullptr,
            Names ? &Names->varNames() : nullptr,
            Names ? &Names->lockNames() : nullptr,
            Names ? &Names->volatileNames() : nullptr);
    }
  }
  if (Out != stdout)
    std::fclose(Out);
  std::string Error;
  if (In.Events->error(&Error)) {
    std::fprintf(stderr, "parse error: %s\n", Error.c_str());
    return 1;
  }
  if (!WriteOK) {
    std::fprintf(stderr, "error: write failed\n");
    return 1;
  }
  return 0;
}

//===----------------------------------------------------------------------===//
// Race reporting
//===----------------------------------------------------------------------===//

/// Names interned by the text parser, or null vectors for STB inputs.
struct SymbolTables {
  const std::vector<std::string> *Threads = nullptr;
  const std::vector<std::string> *Vars = nullptr;
};

void printRaces(const AnalysisRunResult &A, const SymbolTables &Syms) {
  size_t Idx = 0;
  for (const RaceReport &R : A.Races) {
    std::string Var = symbolOrId(Syms.Vars, R.Var, 'x');
    std::string Thread = symbolOrId(Syms.Threads, R.Tid, 'T');
    std::printf("  race: %s of %s by %s at event %llu",
                R.IsWrite ? "write" : "read", Var.c_str(), Thread.c_str(),
                static_cast<unsigned long long>(R.EventIdx));
    if (R.Provenance == SiteProvenance::Explicit)
      std::printf(" (line %u)", R.Site);
    else
      std::printf(" (site var:%u)", R.Site);
    if (!R.Prior.isNone())
      std::printf(" vs %s@%u",
                  symbolOrId(Syms.Threads, R.Prior.tid(), 'T').c_str(),
                  R.Prior.clock());
    if (Idx < A.Vindications.size()) {
      const VindicationResult &V = A.Vindications[Idx];
      if (V.Vindicated)
        std::printf("  [vindicated: %zu-event witness]",
                    V.Witness.Prefix.size());
      else
        std::printf("  [not vindicated: %s]", V.FailureReason.c_str());
    }
    std::printf("\n");
    ++Idx;
  }
}

void printCaseStats(const AnalysisRunResult &A) {
  if (!A.HasCaseStats) {
    std::printf("  (no per-case counters: %s is not an epoch-optimized "
                "analysis)\n",
                A.Name.c_str());
    return;
  }
  const CaseStats &S = A.Cases;
  auto Row = [](const char *Label, uint64_t N) {
    std::printf("    %-18s %llu\n", Label,
                static_cast<unsigned long long>(N));
  };
  std::printf("  case frequencies (Table 12):\n");
  std::printf("   same-epoch fast paths:\n");
  Row("read", S.ReadSameEpoch);
  Row("shared read", S.SharedSameEpoch);
  Row("write", S.WriteSameEpoch);
  std::printf("   non-same-epoch reads (%llu):\n",
              static_cast<unsigned long long>(S.nonSameEpochReads()));
  Row("owned excl", S.ReadOwned);
  Row("owned shared", S.ReadSharedOwned);
  Row("unowned excl", S.ReadExclusive);
  Row("unowned share", S.ReadShare);
  Row("unowned shared", S.ReadShared);
  std::printf("   non-same-epoch writes (%llu):\n",
              static_cast<unsigned long long>(S.nonSameEpochWrites()));
  Row("owned", S.WriteOwned);
  Row("exclusive", S.WriteExclusive);
  Row("shared", S.WriteShared);
}

//===----------------------------------------------------------------------===//
// JSON / NDJSON reports
//===----------------------------------------------------------------------===//

std::string jsonReport(const RunReport &Rep, const Options &Opts,
                       TraceFormat Fmt, const SymbolTables &Syms) {
  const StreamStats &St = Rep.Stream;
  std::string Out = "{\"input\":{\"format\":";
  Out += Fmt == TraceFormat::Stb ? "\"stb\"" : "\"text\"";
  Out += ",\"events\":";
  jsonAppendUInt(Out, St.Events);
  Out += ",\"threads\":";
  jsonAppendUInt(Out, St.NumThreads);
  Out += ",\"vars\":";
  jsonAppendUInt(Out, St.NumVars);
  Out += ",\"locks\":";
  jsonAppendUInt(Out, St.NumLocks);
  Out += ",\"volatiles\":";
  jsonAppendUInt(Out, St.NumVolatiles);
  Out += "},\"analyses\":[";
  for (size_t I = 0; I != Rep.Analyses.size(); ++I) {
    if (I)
      Out += ',';
    const AnalysisRunResult &A = Rep.Analyses[I];
    Out += "{\"name\":";
    jsonAppendEscaped(Out, A.Name);
    Out += ",\"dynamic_races\":";
    jsonAppendUInt(Out, A.DynamicRaces);
    Out += ",\"static_races\":";
    jsonAppendUInt(Out, A.StaticRaces);
    Out += ",\"seconds\":";
    jsonAppendNumber(Out, A.Seconds);
    if (Opts.Stats && A.HasCaseStats) {
      Out += ",\"case_stats\":";
      jsonAppendCaseStats(Out, A.Cases);
    }
    if (!Opts.Quiet) {
      Out += ",\"races\":[";
      for (size_t RI = 0; RI != A.Races.size(); ++RI) {
        const RaceReport &R = A.Races[RI];
        if (RI)
          Out += ',';
        Out += "{\"event\":";
        jsonAppendUInt(Out, R.EventIdx);
        Out += R.IsWrite ? ",\"kind\":\"write\""
                         : ",\"kind\":\"read\"";
        Out += ",\"var\":";
        jsonAppendSymbol(Out, Syms.Vars, R.Var, 'x');
        Out += ",\"thread\":";
        jsonAppendSymbol(Out, Syms.Threads, R.Tid, 'T');
        Out += ",\"site\":\"";
        appendRaceSite(Out, R);
        Out += '"';
        if (R.Provenance == SiteProvenance::Explicit) {
          Out += ",\"site_line\":";
          jsonAppendUInt(Out, R.Site);
        }
        if (!R.Prior.isNone()) {
          Out += ",\"prior_thread\":";
          jsonAppendSymbol(Out, Syms.Threads, R.Prior.tid(), 'T');
          Out += ",\"prior_clock\":";
          jsonAppendUInt(Out, R.Prior.clock());
        }
        if (RI < A.Vindications.size()) {
          const VindicationResult &V = A.Vindications[RI];
          if (V.Vindicated) {
            Out += ",\"vindicated\":true,\"witness_events\":";
            jsonAppendUInt(Out, V.Witness.Prefix.size());
          } else {
            Out += ",\"vindicated\":false,\"failure_reason\":";
            jsonAppendEscaped(Out, V.FailureReason);
          }
        }
        Out += '}';
      }
      Out += ']';
    }
    Out += '}';
  }
  Out += "],\"total_dynamic_races\":";
  jsonAppendUInt(Out, Rep.TotalDynamicRaces);
  Out += ",\"wall_seconds\":";
  jsonAppendNumber(Out, Rep.WallSeconds);
  Out += "}\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// --connect: client mode against an st-serve server
//===----------------------------------------------------------------------===//

/// Uploads the input to an st-serve server and relays its report frames.
/// A dedicated reader thread drains server frames for the whole upload —
/// with both sides writing, neither may block on a full send buffer
/// waiting for the other to read, and races stream back live mid-upload.
/// Exit status matches in-process runs: 0 no races, 2 races, 1 error.
int runConnect(const Options &Opts) {
  ServeAddress Addr;
  std::string Err;
  if (!parseServeAddress(Opts.Connect, Addr, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  bool UseStdin = !Opts.Path || std::strcmp(Opts.Path, "-") == 0;
  FILE *In = UseStdin ? stdin : std::fopen(Opts.Path, "rb");
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", Opts.Path);
    return 1;
  }
  int Fd = connectServeAddress(Addr, &Err);
  if (Fd < 0) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    if (!UseStdin)
      std::fclose(In);
    return 1;
  }

  HelloOptions Hello;
  for (AnalysisKind K : Opts.Kinds)
    Hello.Analyses.push_back(analysisKindName(K));
  Hello.Validation = static_cast<uint64_t>(Opts.Validation);
  if (Opts.MaxStoredRaces != SIZE_MAX)
    Hello.MaxRaceLines = Opts.MaxStoredRaces;
  Hello.BatchSize = Opts.BatchSize;
  Hello.MaxDiags = Opts.MaxDiags;

  FdByteSink SockOut(Fd);
  FrameWriter Writer(SockOut);
  bool UploadOk = Writer.write(FrameType::Hello, encodeHello(Hello));

  std::atomic<bool> SawError{false};
  std::atomic<uint64_t> TotalRaces{0};
  std::thread Reader([&] {
    FdByteSource SockIn(Fd);
    FrameReader Frames(SockIn);
    Frame F;
    int R;
    while ((R = Frames.next(F)) > 0) {
      switch (F.Type) {
      case FrameType::Hello:
        break; // the accepted configuration; nothing to print
      case FrameType::Race:
      case FrameType::Diag:
        if (!Opts.Quiet)
          std::fwrite(F.Payload.data(), 1, F.Payload.size(), stdout);
        break;
      case FrameType::Summary: {
        std::fwrite(F.Payload.data(), 1, F.Payload.size(), stdout);
        uint64_t Total = 0;
        if (jsonScanUInt(F.Payload, "\"total_dynamic_races\":", Total))
          TotalRaces = Total;
        break;
      }
      case FrameType::Error:
        std::fwrite(F.Payload.data(), 1, F.Payload.size(), stdout);
        SawError = true;
        break;
      default:
        break; // EVENTS/EOS never flow server -> client; ignore
      }
    }
    if (R < 0) {
      std::fprintf(stderr, "error: %s\n", Frames.error().c_str());
      SawError = true;
    }
    std::string Msg;
    if (SockIn.error(&Msg)) {
      std::fprintf(stderr, "error: %s\n", Msg.c_str());
      SawError = true;
    }
    std::fflush(stdout);
  });

  // Chunk size stays well under the protocol's frame payload cap.
  std::vector<char> Chunk(64 * 1024);
  while (UploadOk) {
    size_t N = std::fread(Chunk.data(), 1, Chunk.size(), In);
    if (N == 0)
      break;
    UploadOk = Writer.write(FrameType::Events,
                            std::string_view(Chunk.data(), N));
  }
  if (std::ferror(In)) {
    std::fprintf(stderr, "error: read failed: %s\n", Opts.Path);
    UploadOk = false;
  }
  if (UploadOk)
    UploadOk = Writer.write(FrameType::Eos, std::string_view());
  // Half-close so the server sees a definite end of the upload even if
  // the EOS frame was lost to an earlier send failure.
  ::shutdown(Fd, SHUT_WR);

  Reader.join();
  closeFd(Fd);
  if (!UseStdin)
    std::fclose(In);
  // A send failure after the server already reported (eviction,
  // rejection) is that report's outcome, not a second error.
  if (SawError || (!UploadOk && !TotalRaces))
    return 1;
  return TotalRaces ? 2 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 1;

  if (Opts.GenSpec)
    return generateTrace(Opts);

  if (Opts.Connect)
    return runConnect(Opts);

  bool UseStdin = !Opts.Path || std::strcmp(Opts.Path, "-") == 0;
  FILE *In = UseStdin ? stdin : std::fopen(Opts.Path, "rb");
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", Opts.Path);
    return 1;
  }
  FileByteSource Bytes(In);
  // When the Session runs its own lint pass the raw source must not also
  // validate, or the inner hard check would latch first and the lint
  // report would collapse to a single decode error.
  OpenOptions InputOpts;
  InputOpts.Validate = Opts.Validation == ValidationMode::Off;
  InputOpts.BufferBytes = SessionOptions().IoBufferBytes;
  OpenedEventSource Input = openEventSource(Bytes, InputOpts);

  if (Opts.Convert) {
    int RC = convertTrace(Opts, Input);
    if (!UseStdin)
      std::fclose(In);
    return RC;
  }

  SymbolTables Syms;
  if (const TraceTextParser *P = Input.textParser()) {
    Syms.Threads = &P->threadNames();
    Syms.Vars = &P->varNames();
  }

  SessionOptions SessOpts;
  SessOpts.BatchSize = Opts.BatchSize;
  SessOpts.Parallel = Opts.Parallel;
  SessOpts.MaxStoredRaces = Opts.MaxStoredRaces;
  SessOpts.Vindicate = Opts.Vindicate;
  SessOpts.Validation = Opts.Validation;
  SessOpts.MaxStoredDiagnostics = Opts.MaxDiags;
  // NDJSON streams races out as they happen; nothing needs to be
  // retained, which is what keeps race memory O(1).
  if (Opts.Format == ReportFormat::Ndjson)
    SessOpts.MaxStoredRaces = 0;

  FileByteSink StdoutBytes(stdout);
  NdjsonSink Ndjson(StdoutBytes);
  const bool WantNdjson = Opts.Format == ReportFormat::Ndjson && !Opts.Quiet;
  if (WantNdjson) {
    // The sink emits from its own symbol snapshot, refreshed at the
    // engine's per-batch quiet point — in parallel mode the decode
    // thread keeps interning names into the parser's live tables while
    // workers report races, so the snapshot is what keeps symbolic
    // output safe there (and identical to sequential output).
    Ndjson.setSymbols(Syms.Threads, Syms.Vars);
    SessOpts.OnBatchPublish = [&Ndjson] { Ndjson.refreshSymbols(); };
    Ndjson.setMaxRacesPerAnalysis(Opts.MaxStoredRaces);
  }

  Session S(SessOpts);
  for (AnalysisKind Kind : Opts.Kinds)
    S.add(Kind);
  if (WantNdjson)
    S.addSink(Ndjson);

  RunReport Rep = S.run(*Input.Events);
  if (!UseStdin)
    std::fclose(In);

  std::string Error;
  if (Input.Events->error(&Error)) {
    std::fprintf(stderr, "parse error: %s\n", Error.c_str());
    return 1;
  }

  if (Rep.Validation.Ran) {
    for (const LintDiagnostic &D : Rep.Validation.Diagnostics)
      std::fprintf(stderr, "validation: %s\n", formatDiagnostic(D).c_str());
    if (Rep.Validation.Dropped)
      std::fprintf(stderr, "validation: ... and %llu more diagnostic(s)\n",
                   static_cast<unsigned long long>(Rep.Validation.Dropped));
    if (Rep.rejected()) {
      std::fprintf(stderr,
                   "error: input rejected by strict validation (%llu "
                   "error(s)); no analysis was reported\n",
                   static_cast<unsigned long long>(Rep.Validation.Errors));
      return 1;
    }
    if (Rep.Validation.Errors)
      std::fprintf(stderr,
                   "warning: %llu validation error(s); the analyses saw "
                   "only the well-formed prefix of the input\n",
                   static_cast<unsigned long long>(Rep.Validation.Errors));
  }

  switch (Opts.Format) {
  case ReportFormat::Json: {
    std::string Report = jsonReport(Rep, Opts, Input.Format, Syms);
    std::fwrite(Report.data(), 1, Report.size(), stdout);
    break;
  }
  case ReportFormat::Ndjson: {
    // One "summary" line per analysis plus the final "stream" line:
    // constant memory however many race lines the sink already streamed.
    std::string Lines;
    for (const AnalysisRunResult &A : Rep.Analyses)
      Lines += encodeSummaryLine(A, Rep.Stream.Events, Opts.Stats);
    Lines += encodeStreamLine(Rep);
    std::fwrite(Lines.data(), 1, Lines.size(), stdout);
    break;
  }
  case ReportFormat::Text:
    for (const AnalysisRunResult &A : Rep.Analyses) {
      std::printf("%s over %llu events (%u threads, %u vars, %u locks): "
                  "%llu dynamic race(s), %u static site(s)\n",
                  A.Name.c_str(),
                  static_cast<unsigned long long>(Rep.Stream.Events),
                  Rep.Stream.NumThreads, Rep.Stream.NumVars,
                  Rep.Stream.NumLocks,
                  static_cast<unsigned long long>(A.DynamicRaces),
                  A.StaticRaces);
      if (!Opts.Quiet) {
        printRaces(A, Syms);
        if (Opts.Stats)
          printCaseStats(A);
      }
    }
    break;
  }
  return Rep.anyRaces() ? 2 : 0;
}
