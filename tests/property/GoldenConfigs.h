//===- tests/property/GoldenConfigs.h - Frozen trace shapes -----*- C++ -*-===//
//
// The seeded RandomTrace configurations whose analysis results
// LadderGoldenTest freezes. SmartTrackTest replays the same traces through
// the SmartTrack cores to check their CS-list reference counts.
//
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_TESTS_PROPERTY_GOLDENCONFIGS_H
#define SMARTTRACK_TESTS_PROPERTY_GOLDENCONFIGS_H

#include "workload/RandomTrace.h"

namespace st {

inline constexpr unsigned NumGoldenConfigs = 4;

/// The frozen workload shapes: lock-heavy (CS metadata hot), fork/join +
/// volatiles (hard-edge handling), wide and write-heavy, and deeply nested
/// (up to four held locks, so MultiCheck's residuals and early stops
/// decide race lines).
inline RandomTraceConfig goldenConfig(unsigned I) {
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
  case 3:
    C.Seed = 2024;
    C.Threads = 8;
    C.Vars = 50;
    C.Locks = 6;
    C.Events = 20000;
    C.MaxNesting = 4;
    break;
  }
  return C;
}

} // namespace st

#endif // SMARTTRACK_TESTS_PROPERTY_GOLDENCONFIGS_H
