//===- tools/st_lint.cpp - Streaming trace diagnostics CLI ----------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// st-lint streams a trace (TraceText DSL or STB binary, format sniffed
// from the first bytes) through the lint engine's full rule set and
// prints every diagnostic — non-latching, with the decoder's line/byte
// provenance — in O(names) memory regardless of trace length. The
// analysis never runs; this is the pre-flight check CI runs before
// st-analyze, and the reference renderer for the STL0xx catalog
// (docs/linting.md).
//
// Usage:
//   st-lint [--format=text|ndjson] [--max-diags=N] [--hard-only]
//           [--werror] [--quiet] [--list-codes] [file|-]
//
// Exit status: 0 when clean (or notes only), 2 when any error-severity
// diagnostic fired, 3 when warnings fired but no errors, 1 on usage or
// I/O errors. --werror folds 3 into 2.
//
//===----------------------------------------------------------------------===//

#include "engine/EventSource.h"
#include "lint/LintingEventSource.h"
#include "report/RaceSink.h"
#include "support/Json.h"
#include "trace/TraceText.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace st;

namespace {

enum class OutputFormat : uint8_t { Text, Ndjson };

struct Options {
  const char *Path = nullptr; // nullptr or "-" means stdin
  OutputFormat Format = OutputFormat::Text;
  size_t MaxDiags = SIZE_MAX;
  bool HardOnly = false;
  bool Werror = false;
  bool Quiet = false;
};

void printUsage(FILE *Out, const char *Prog) {
  std::fprintf(
      Out,
      "usage: %s [options] [file|-]\n"
      "\n"
      "Streams a trace (TraceText DSL or STB binary, auto-detected) from\n"
      "FILE (or stdin) through the trace lint rules and reports every\n"
      "violation and suspicious pattern — not just the first — with the\n"
      "input position it came from. No analysis runs.\n"
      "\n"
      "options:\n"
      "  --format=FMT     output format: text (default) or ndjson (one\n"
      "                   JSON object per diagnostic, streamed in O(1)\n"
      "                   diagnostic memory, then one summary object)\n"
      "  --max-diags=N    print at most N diagnostics (the summary still\n"
      "                   counts everything)\n"
      "  --hard-only      only the hard well-formedness rules (the set\n"
      "                   the streaming analyses enforce online)\n"
      "  --werror         exit 2 (not 3) when warnings fired\n"
      "  --quiet          suppress diagnostics; print only the summary\n"
      "  --list-codes     list every STL0xx code and exit\n"
      "  -h, --help       show this message\n"
      "\n"
      "docs/linting.md catalogs every code with a minimal offending\n"
      "trace.\n",
      Prog);
}

void printCodeList() {
  static const LintCode Codes[] = {
      LintCode::AcquireHeld,    LintCode::ReleaseUnheld,
      LintCode::RunAfterJoin,   LintCode::ForkOfStarted,
      LintCode::DoubleJoin,     LintCode::SelfForkJoin,
      LintCode::IdOutOfRange,   LintCode::MalformedInput,
      LintCode::LockHeldAtEnd,  LintCode::UnjoinedThread,
      LintCode::EmptyCriticalSection, LintCode::VolatileDataAlias,
      LintCode::SiteOutOfTable, LintCode::SparseIdSpace,
  };
  for (LintCode C : Codes)
    std::printf("%s  %-7s  %s\n", lintCodeId(C),
                lintSeverityName(lintCodeSeverity(C)), lintCodeSummary(C));
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
    if (std::strncmp(Arg, "--format=", 9) == 0) {
      const char *V = Arg + 9;
      if (std::strcmp(V, "text") == 0) {
        Opts.Format = OutputFormat::Text;
      } else if (std::strcmp(V, "ndjson") == 0) {
        Opts.Format = OutputFormat::Ndjson;
      } else {
        std::fprintf(stderr,
                     "error: bad --format '%s' (expected text or ndjson)\n",
                     V);
        return false;
      }
    } else if (std::strncmp(Arg, "--max-diags=", 12) == 0) {
      if (!parseCount(Arg + 12, "--max-diags", Opts.MaxDiags))
        return false;
    } else if (std::strcmp(Arg, "--hard-only") == 0) {
      Opts.HardOnly = true;
    } else if (std::strcmp(Arg, "--werror") == 0) {
      Opts.Werror = true;
    } else if (std::strcmp(Arg, "--quiet") == 0) {
      Opts.Quiet = true;
    } else if (std::strcmp(Arg, "--list-codes") == 0) {
      printCodeList();
      std::exit(0);
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
  return true;
}

//===----------------------------------------------------------------------===//
// Diagnostic rendering
//===----------------------------------------------------------------------===//

/// Streams diagnostics out at report time (O(1) diagnostic memory; the
/// engine stores nothing) and keeps the counts the summary needs.
class DiagnosticPrinter {
public:
  DiagnosticPrinter(const Options &Opts, const char *Label,
                    const std::vector<std::string> *ThreadNames)
      : Opts(Opts), Label(Label), ThreadNames(ThreadNames) {}

  void print(const LintDiagnostic &D) {
    if (Opts.Quiet || Printed >= Opts.MaxDiags) {
      ++Suppressed;
      return;
    }
    ++Printed;
    if (Opts.Format == OutputFormat::Ndjson) {
      printNdjson(D);
      return;
    }
    // file:line: severity STL0xx: message [event N, Tname]
    std::string Out = Label;
    if (D.Line) {
      char Buf[16];
      std::snprintf(Buf, sizeof(Buf), ":%u", D.Line);
      Out += Buf;
    } else if (D.Byte) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), ": byte %llu",
                    static_cast<unsigned long long>(D.Byte));
      Out += Buf;
    } else if (D.streamLevel()) {
      Out += ": end of stream";
    }
    Out += ": ";
    Out += lintSeverityName(D.Severity);
    Out += ' ';
    Out += lintCodeId(D.Code);
    Out += ": ";
    Out += D.Message;
    if (!D.streamLevel()) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), " [event %llu",
                    static_cast<unsigned long long>(D.EventIdx));
      Out += Buf;
      if (D.Tid != InvalidId && ThreadNames && D.Tid < ThreadNames->size()) {
        Out += ", ";
        Out += symbolOrId(ThreadNames, D.Tid, 'T');
      }
      Out += ']';
    }
    Out += '\n';
    std::fwrite(Out.data(), 1, Out.size(), stdout);
  }

  uint64_t suppressed() const { return Suppressed; }

private:
  void printNdjson(const LintDiagnostic &D) {
    std::string Out = "{\"type\":\"diagnostic\",\"code\":";
    jsonAppendEscaped(Out, lintCodeId(D.Code));
    Out += ",\"severity\":";
    jsonAppendEscaped(Out, lintSeverityName(D.Severity));
    Out += ",\"summary\":";
    jsonAppendEscaped(Out, lintCodeSummary(D.Code));
    if (!D.streamLevel()) {
      Out += ",\"event\":";
      jsonAppendUInt(Out, D.EventIdx);
      if (D.Tid != InvalidId) {
        Out += ",\"tid\":";
        jsonAppendUInt(Out, D.Tid);
        if (ThreadNames && D.Tid < ThreadNames->size()) {
          Out += ",\"thread\":";
          jsonAppendEscaped(Out, (*ThreadNames)[D.Tid]);
        }
      }
      if (D.Line) {
        Out += ",\"line\":";
        jsonAppendUInt(Out, D.Line);
      }
      if (D.Byte) {
        Out += ",\"byte\":";
        jsonAppendUInt(Out, D.Byte);
      }
    }
    Out += ",\"message\":";
    jsonAppendEscaped(Out, D.Message);
    Out += "}\n";
    std::fwrite(Out.data(), 1, Out.size(), stdout);
  }

  const Options &Opts;
  const char *Label;
  const std::vector<std::string> *ThreadNames;
  size_t Printed = 0;
  uint64_t Suppressed = 0;
};

void printSummary(const Options &Opts, const char *Label,
                  const LintEngine &Eng, uint64_t Suppressed) {
  if (Opts.Format == OutputFormat::Ndjson) {
    std::string Out = "{\"type\":\"summary\",\"events\":";
    jsonAppendUInt(Out, Eng.eventsProcessed());
    Out += ",\"errors\":";
    jsonAppendUInt(Out, Eng.errorCount());
    Out += ",\"warnings\":";
    jsonAppendUInt(Out, Eng.warningCount());
    Out += ",\"notes\":";
    jsonAppendUInt(Out, Eng.noteCount());
    Out += ",\"suppressed\":";
    jsonAppendUInt(Out, Suppressed);
    Out += "}\n";
    std::fwrite(Out.data(), 1, Out.size(), stdout);
    return;
  }
  if (Suppressed)
    std::printf("%s: ... and %llu more diagnostic(s)\n", Label,
                static_cast<unsigned long long>(Suppressed));
  std::printf("%s: %llu error(s), %llu warning(s), %llu note(s) over %llu "
              "event(s)\n",
              Label, static_cast<unsigned long long>(Eng.errorCount()),
              static_cast<unsigned long long>(Eng.warningCount()),
              static_cast<unsigned long long>(Eng.noteCount()),
              static_cast<unsigned long long>(Eng.eventsProcessed()));
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 1;

  bool UseStdin = !Opts.Path || std::strcmp(Opts.Path, "-") == 0;
  FILE *In = UseStdin ? stdin : std::fopen(Opts.Path, "rb");
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", Opts.Path);
    return 1;
  }
  const char *Label = UseStdin ? "<stdin>" : Opts.Path;

  // The input is linted the way every stream is: a plain decoder
  // (format sniffed from the first bytes) under a LintingEventSource,
  // which supplies each event's line or byte and the STB header's
  // declarations and drains the input past the first error.
  FileByteSource Bytes(In);
  OpenedEventSource Input = openEventSource(Bytes, /*Validate=*/false);

  // Store nothing in the engine: the printer streams diagnostics out at
  // report time, so memory stays O(names) however many findings the
  // input produces.
  LintOptions EngOpts;
  EngOpts.MaxStoredDiagnostics = 0;
  LintEngine Eng(EngOpts);
  if (Opts.HardOnly)
    addHardRules(Eng);
  else
    addAllRules(Eng);

  // The parser's name tables spell ids in the messages and the bracket.
  const TraceTextParser *Parser = Input.textParser();
  DiagnosticPrinter Printer(Opts, Label,
                            Parser ? &Parser->threadNames() : nullptr);
  Eng.setDiagnosticCallback(
      [&Printer](const LintDiagnostic &D) { Printer.print(D); });

  // Read to the end; the wrapper finishes the engine there, so the
  // end-of-stream lints also run after a decode error.
  LintingEventSource Linted(*Input.Events, Eng, /*Reject=*/false);
  std::vector<Event> Buf(1024);
  while (Linted.read(Buf.data(), Buf.size()) > 0) {
  }

  if (!UseStdin)
    std::fclose(In);

  printSummary(Opts, Label, Eng, Printer.suppressed());

  if (Eng.hasErrors())
    return 2;
  if (Eng.warningCount())
    return Opts.Werror ? 2 : 3;
  return 0;
}
