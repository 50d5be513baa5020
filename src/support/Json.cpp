//===- support/Json.cpp - Minimal append-only JSON writer -----------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <charconv>
#include <cstdio>

using namespace st;

void st::jsonAppendEscaped(std::string &Out, std::string_view S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

void st::jsonAppendUInt(std::string &Out, uint64_t V) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

void st::jsonAppendNumber(std::string &Out, double V) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%.9g", V);
  Out += Buf;
}

bool st::jsonScanUInt(std::string_view Line, std::string_view Key,
                      uint64_t &Out) {
  size_t P = Line.find(Key);
  if (P == std::string_view::npos)
    return false;
  P += Key.size();
  uint64_t V = 0;
  bool Any = false;
  while (P < Line.size() && Line[P] >= '0' && Line[P] <= '9') {
    V = V * 10 + static_cast<uint64_t>(Line[P] - '0');
    ++P;
    Any = true;
  }
  if (Any)
    Out = V;
  return Any;
}
