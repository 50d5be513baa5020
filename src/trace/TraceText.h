//===- trace/TraceText.h - Textual trace DSL --------------------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small text format for execution traces so tests and examples can state
/// traces exactly as the paper's figures do:
///
/// \code
///   T1: rd(x)
///   T1: acq(m)
///   T1: wr(y)
///   T1: rel(m)
///   T2: acq(m)     # comments run to end of line
///   T2: rd(z)
///   T2: rel(m)
///   T2: wr(x)
/// \endcode
///
/// Operations: rd wr acq rel vrd vwr fork join, plus the sync(o) shorthand
/// which expands to acq(o); rd(oVar); wr(oVar); rel(o) as in the paper.
/// Thread, variable, and lock names map to dense ids in order of first
/// appearance; each source line becomes the SiteId of the events it emits.
///
/// TraceTextParser decodes the DSL as a stream — one event at a time from a
/// ByteSource, holding only the current line and the symbol tables — so
/// arbitrarily long traces parse in O(names) memory. parseTraceText is the
/// materializing convenience wrapper used by tests and small inputs.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_TRACE_TRACETEXT_H
#define SMARTTRACK_TRACE_TRACETEXT_H

#include "support/Bytes.h"
#include "trace/Trace.h"

#include <string>
#include <string_view>
#include <vector>

namespace st {

/// Interns names into dense ids in order of first appearance. Lookups
/// are allocation-free (this sits on the streaming parser's per-line hot
/// path): a small open-addressed index of ids hashed by name probes into
/// the name vector instead of keying a map on owned strings.
class NameTable {
public:
  uint32_t idFor(std::string_view Name);

  const std::vector<std::string> &names() const { return Names; }
  std::vector<std::string> take() {
    Index.clear(); // the index holds ids into Names; drop it with them
    return std::move(Names);
  }

private:
  void grow();

  std::vector<std::string> Names;
  std::vector<uint32_t> Index; // open addressing; InvalidId = empty slot
};

/// Longest writeSymbolId spelling: the prefix and a 32-bit id.
inline constexpr size_t MaxSymbolIdChars = 11;

/// Writes the canonical "<Prefix><Id>" spelling ("T3", "x7") of an id
/// without a name at \p P, which has room for MaxSymbolIdChars; returns
/// the end. The one fallback for printed traces, race reports and lint
/// messages.
char *writeSymbolId(char *P, uint32_t Id, char Prefix);

/// Appends Names[Id] when the table is present and in range, else the
/// writeSymbolId spelling.
void appendSymbolOrId(std::string &Out, const std::vector<std::string> *Names,
                      uint32_t Id, char Prefix);

/// appendSymbolOrId's spelling as a new string.
std::string symbolOrId(const std::vector<std::string> *Names, uint32_t Id,
                       char Prefix);

/// Streaming parser for the trace DSL. Pulls bytes from a ByteSource and
/// produces events one at a time; memory stays proportional to the symbol
/// tables plus the longest source line, never the trace length.
class TraceTextParser {
public:
  /// \p ChunkBytes is the read-ahead chunk size; callers with per-stream
  /// memory budgets (the serving layer) tune it down from the default.
  explicit TraceTextParser(ByteSource &Src,
                           size_t ChunkBytes = DefaultIoBufferBytes)
      : Src(Src), Chunk(ChunkBytes < 16 ? 16 : ChunkBytes) {}

  /// Produces the next event. Returns 1 on success, 0 at the end of the
  /// input, -1 on a parse error (see error()).
  int next(Event &E);

  bool failed() const { return Failed; }

  /// 1-based source line the most recently produced event came from (0
  /// before the first event). Lint provenance for text inputs.
  unsigned line() const { return Line; }

  /// Diagnostic of the form "line L, column C: message near 'token'".
  const std::string &error() const { return ErrorMsg; }
  unsigned errorLine() const { return ErrLine; }
  unsigned errorColumn() const { return ErrColumn; }

  const std::vector<std::string> &threadNames() const {
    return Threads.names();
  }
  const std::vector<std::string> &varNames() const { return Vars.names(); }
  const std::vector<std::string> &lockNames() const { return Locks.names(); }
  const std::vector<std::string> &volatileNames() const {
    return Volatiles.names();
  }

  NameTable &threadTable() { return Threads; }
  NameTable &varTable() { return Vars; }
  NameTable &lockTable() { return Locks; }
  NameTable &volatileTable() { return Volatiles; }

private:
  bool readLine();
  bool parseLine(std::string_view LineText);
  bool fail(std::string_view LineText, size_t Column, std::string Msg,
            std::string_view Token = {});

  ByteSource &Src;
  std::string LineBuf;
  std::vector<char> Chunk;
  size_t ChunkPos = 0, ChunkLen = 0;
  bool AtEof = false;
  bool Failed = false;
  unsigned Line = 0;
  unsigned ErrLine = 0, ErrColumn = 0;
  std::string ErrorMsg;

  NameTable Threads, Vars, Locks, Volatiles;
  Event Pending[4]; // one DSL line expands to at most 4 events (sync)
  size_t PendingPos = 0, PendingLen = 0;
};

/// A parsed trace plus the symbol names for diagnostics and printing.
struct ParsedTrace {
  Trace Tr;
  std::vector<std::string> ThreadNames;
  std::vector<std::string> VarNames;
  std::vector<std::string> LockNames;
  std::vector<std::string> VolatileNames;
};

/// Parses the DSL in \p Text, materializing the whole trace. Returns true
/// on success; on failure returns false and stores a line/column diagnostic
/// in \p Error if non-null.
bool parseTraceText(std::string_view Text, ParsedTrace &Out,
                    std::string *Error = nullptr);

/// Convenience wrapper that asserts on parse errors; for test literals.
Trace traceFromText(std::string_view Text);

/// Renders \p Tr in the DSL (using the names in \p P when available).
std::string printTraceText(const Trace &Tr,
                           const ParsedTrace *Names = nullptr);

/// Streams \p E in the DSL to \p Sink; the event-at-a-time counterpart of
/// printTraceText for the conversion pipeline. Name vectors may be null
/// (ids print with the canonical T/x/m/v prefixes).
bool printTraceTextEvent(const Event &E, ByteSink &Sink,
                         const std::vector<std::string> *ThreadNames = nullptr,
                         const std::vector<std::string> *VarNames = nullptr,
                         const std::vector<std::string> *LockNames = nullptr,
                         const std::vector<std::string> *VolNames = nullptr);

} // namespace st

#endif // SMARTTRACK_TRACE_TRACETEXT_H
