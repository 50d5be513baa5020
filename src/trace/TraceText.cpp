//===- trace/TraceText.cpp - Textual trace DSL ------------------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceText.h"

#include <cassert>
#include <charconv>
#include <cstdio>

using namespace st;

void NameTable::grow() {
  size_t NewSize = Index.empty() ? 64 : Index.size() * 2;
  Index.assign(NewSize, InvalidId);
  for (uint32_t Id = 0; Id != Names.size(); ++Id) {
    size_t Slot = std::hash<std::string_view>{}(Names[Id]) & (NewSize - 1);
    while (Index[Slot] != InvalidId)
      Slot = (Slot + 1) & (NewSize - 1);
    Index[Slot] = Id;
  }
}

uint32_t NameTable::idFor(std::string_view Name) {
  if ((Names.size() + 1) * 2 > Index.size())
    grow();
  size_t Mask = Index.size() - 1;
  size_t Slot = std::hash<std::string_view>{}(Name) & Mask;
  while (Index[Slot] != InvalidId) {
    if (Names[Index[Slot]] == Name)
      return Index[Slot];
    Slot = (Slot + 1) & Mask;
  }
  uint32_t Id = static_cast<uint32_t>(Names.size());
  Names.emplace_back(Name);
  Index[Slot] = Id;
  return Id;
}

/// Reads the next source line (without its newline) into LineBuf; returns
/// false at end of input.
bool TraceTextParser::readLine() {
  LineBuf.clear();
  for (;;) {
    if (ChunkPos == ChunkLen) {
      if (AtEof)
        return !LineBuf.empty();
      ChunkLen = Src.read(Chunk.data(), Chunk.size());
      ChunkPos = 0;
      if (ChunkLen == 0) {
        AtEof = true;
        return !LineBuf.empty();
      }
    }
    // Copy up to the next newline in the current chunk.
    size_t Start = ChunkPos;
    while (ChunkPos < ChunkLen && Chunk[ChunkPos] != '\n')
      ++ChunkPos;
    LineBuf.append(Chunk.data() + Start, ChunkPos - Start);
    if (ChunkPos < ChunkLen) {
      ++ChunkPos; // consume the newline
      return true;
    }
  }
}

bool TraceTextParser::fail(std::string_view LineText, size_t Column,
                           std::string Msg, std::string_view Token) {
  (void)LineText;
  Failed = true;
  ErrLine = Line;
  ErrColumn = static_cast<unsigned>(Column + 1); // 1-based
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "line %u, column %u: ", ErrLine, ErrColumn);
  ErrorMsg = Buf + Msg;
  if (!Token.empty()) {
    ErrorMsg += " near '";
    ErrorMsg += Token;
    ErrorMsg += '\'';
  }
  return false;
}

static bool isIdentChar(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
         (C >= '0' && C <= '9') || C == '_' || C == '.';
}

/// Parses one source line into Pending (up to 4 events for sync).
bool TraceTextParser::parseLine(std::string_view L) {
  size_t Pos = 0;
  auto SkipSpaces = [&] {
    while (Pos < L.size() && (L[Pos] == ' ' || L[Pos] == '\t'))
      ++Pos;
  };
  auto AtComment = [&] {
    return Pos < L.size() &&
           (L[Pos] == '#' ||
            (L[Pos] == '/' && Pos + 1 < L.size() && L[Pos + 1] == '/'));
  };
  auto LexIdent = [&] {
    size_t Start = Pos;
    while (Pos < L.size() && isIdentChar(L[Pos]))
      ++Pos;
    return L.substr(Start, Pos - Start);
  };
  auto Expect = [&](char C, const char *What) {
    SkipSpaces();
    if (Pos >= L.size() || L[Pos] != C) {
      size_t TokStart = Pos;
      size_t TokEnd = Pos;
      while (TokEnd < L.size() && isIdentChar(L[TokEnd]))
        ++TokEnd;
      return fail(L, Pos, std::string("expected '") + C + "' " + What,
                  L.substr(TokStart, TokEnd - TokStart));
    }
    ++Pos;
    return true;
  };

  SkipSpaces();
  if (Pos >= L.size() || AtComment())
    return true; // blank or comment line

  size_t ThreadCol = Pos;
  std::string_view ThreadName = LexIdent();
  if (ThreadName.empty())
    return fail(L, ThreadCol, "expected a thread name", L.substr(Pos, 1));
  ThreadId T = Threads.idFor(ThreadName);

  if (!Expect(':', "after thread name"))
    return false;

  SkipSpaces();
  size_t OpCol = Pos;
  std::string_view Op = LexIdent();
  if (Op.empty())
    return fail(L, OpCol, "expected an operation", L.substr(Pos, 1));
  if (!Expect('(', "after operation"))
    return false;
  SkipSpaces();
  size_t ArgCol = Pos;
  std::string_view Arg = LexIdent();
  if (Arg.empty())
    return fail(L, ArgCol, "expected an operand", L.substr(Pos, 1));
  if (!Expect(')', "after operand"))
    return false;

  SiteId Site = Line;
  auto Emit = [&](EventKind K, uint32_t Target, SiteId S = InvalidId) {
    assert(PendingLen < 4 && "line expands to more than 4 events");
    Pending[PendingLen++] = Event(K, T, Target, S);
  };
  if (Op == "rd") {
    Emit(EventKind::Read, Vars.idFor(Arg), Site);
  } else if (Op == "wr") {
    Emit(EventKind::Write, Vars.idFor(Arg), Site);
  } else if (Op == "acq") {
    Emit(EventKind::Acquire, Locks.idFor(Arg));
  } else if (Op == "rel") {
    Emit(EventKind::Release, Locks.idFor(Arg));
  } else if (Op == "vrd") {
    Emit(EventKind::VolRead, Volatiles.idFor(Arg), Site);
  } else if (Op == "vwr") {
    Emit(EventKind::VolWrite, Volatiles.idFor(Arg), Site);
  } else if (Op == "fork") {
    Emit(EventKind::Fork, Threads.idFor(Arg));
  } else if (Op == "join") {
    Emit(EventKind::Join, Threads.idFor(Arg));
  } else if (Op == "sync") {
    // The paper's shorthand: acq(o); rd(oVar); wr(oVar); rel(o).
    LockId M = Locks.idFor(Arg);
    VarId V = Vars.idFor(std::string(Arg) + "Var");
    Emit(EventKind::Acquire, M);
    Emit(EventKind::Read, V, Site);
    Emit(EventKind::Write, V, Site);
    Emit(EventKind::Release, M);
  } else {
    return fail(L, OpCol, "unknown operation '" + std::string(Op) + "'", Op);
  }

  SkipSpaces();
  if (Pos < L.size() && !AtComment()) {
    size_t TokEnd = Pos;
    while (TokEnd < L.size() && L[TokEnd] != ' ' && L[TokEnd] != '\t' &&
           L[TokEnd] != '#')
      ++TokEnd;
    return fail(L, Pos, "trailing junk after event",
                L.substr(Pos, TokEnd - Pos));
  }
  return true;
}

int TraceTextParser::next(Event &E) {
  if (Failed)
    return -1;
  while (PendingPos == PendingLen) {
    PendingPos = PendingLen = 0;
    ++Line;
    if (!readLine()) {
      std::string Msg;
      if (Src.error(&Msg)) {
        Failed = true;
        ErrLine = Line;
        ErrColumn = 1;
        ErrorMsg = Msg;
        return -1;
      }
      return 0;
    }
    if (!parseLine(LineBuf))
      return -1;
  }
  E = Pending[PendingPos++];
  return 1;
}

bool st::parseTraceText(std::string_view Text, ParsedTrace &Out,
                        std::string *Error) {
  MemoryByteSource Bytes(Text);
  TraceTextParser P(Bytes);
  std::vector<Event> Events;
  Event E;
  int R;
  while ((R = P.next(E)) > 0)
    Events.push_back(E);
  if (R < 0) {
    if (Error)
      *Error = P.error();
    return false;
  }
  Out.Tr = Trace(std::move(Events));
  Out.ThreadNames = P.threadTable().take();
  Out.VarNames = P.varTable().take();
  Out.LockNames = P.lockTable().take();
  Out.VolatileNames = P.volatileTable().take();
  std::string ValidationError;
  if (!Out.Tr.validate(&ValidationError)) {
    if (Error)
      *Error = "ill-formed trace: " + ValidationError;
    return false;
  }
  return true;
}

Trace st::traceFromText(std::string_view Text) {
  ParsedTrace P;
  [[maybe_unused]] std::string Error;
  [[maybe_unused]] bool OK = parseTraceText(Text, P, &Error);
  assert(OK && "trace literal failed to parse");
  return std::move(P.Tr);
}

char *st::writeSymbolId(char *P, uint32_t Id, char Prefix) {
  *P = Prefix;
  return std::to_chars(P + 1, P + MaxSymbolIdChars, Id).ptr;
}

void st::appendSymbolOrId(std::string &Out,
                          const std::vector<std::string> *Names, uint32_t Id,
                          char Prefix) {
  if (Names && Id < Names->size()) {
    Out += (*Names)[Id];
    return;
  }
  char Buf[MaxSymbolIdChars];
  Out.append(Buf, writeSymbolId(Buf, Id, Prefix));
}

std::string st::symbolOrId(const std::vector<std::string> *Names,
                           uint32_t Id, char Prefix) {
  std::string Out;
  appendSymbolOrId(Out, Names, Id, Prefix);
  return Out;
}

bool st::printTraceTextEvent(const Event &E, ByteSink &Sink,
                             const std::vector<std::string> *ThreadNames,
                             const std::vector<std::string> *VarNames,
                             const std::vector<std::string> *LockNames,
                             const std::vector<std::string> *VolNames) {
  std::string Out;
  appendSymbolOrId(Out, ThreadNames, E.Tid, 'T');
  Out += ": ";
  Out += eventKindName(E.Kind);
  Out += '(';
  switch (E.Kind) {
  case EventKind::Read:
  case EventKind::Write:
    appendSymbolOrId(Out, VarNames, E.Target, 'x');
    break;
  case EventKind::Acquire:
  case EventKind::Release:
    appendSymbolOrId(Out, LockNames, E.Target, 'm');
    break;
  case EventKind::VolRead:
  case EventKind::VolWrite:
    appendSymbolOrId(Out, VolNames, E.Target, 'v');
    break;
  case EventKind::Fork:
  case EventKind::Join:
    appendSymbolOrId(Out, ThreadNames, E.Target, 'T');
    break;
  }
  Out += ")\n";
  return Sink.write(Out.data(), Out.size());
}

std::string st::printTraceText(const Trace &Tr, const ParsedTrace *Names) {
  std::string Out;
  StringByteSink Sink(Out);
  for (const Event &E : Tr.events())
    printTraceTextEvent(E, Sink, Names ? &Names->ThreadNames : nullptr,
                        Names ? &Names->VarNames : nullptr,
                        Names ? &Names->LockNames : nullptr,
                        Names ? &Names->VolatileNames : nullptr);
  return Out;
}
