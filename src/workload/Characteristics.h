//===- workload/Characteristics.h - Table 2 measurements --------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures a workload's run-time characteristics exactly as Table 2
/// reports them: total events, non-same-epoch accesses (NSEAs, per the
/// FTO same-epoch definition), and the fraction of NSEAs executed while
/// holding at least 1/2/3 locks.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_WORKLOAD_CHARACTERISTICS_H
#define SMARTTRACK_WORKLOAD_CHARACTERISTICS_H

#include "workload/Workload.h"

#include <cstdint>

namespace st {

/// One Table 2 row.
struct WorkloadCharacteristics {
  unsigned Threads = 0;
  uint64_t AllEvents = 0;
  uint64_t Nseas = 0;
  uint64_t NseaHeld1 = 0; ///< NSEAs with >= 1 lock held
  uint64_t NseaHeld2 = 0;
  uint64_t NseaHeld3 = 0;

  double nseaFraction() const {
    return AllEvents ? static_cast<double>(Nseas) / AllEvents : 0.0;
  }
  double heldFraction(unsigned AtLeast) const {
    if (!Nseas)
      return 0.0;
    uint64_t N = AtLeast >= 3 ? NseaHeld3 : AtLeast == 2 ? NseaHeld2
                                                         : NseaHeld1;
    return static_cast<double>(N) / Nseas;
  }
};

/// Streams \p Gen from the start and measures its characteristics.
WorkloadCharacteristics measureCharacteristics(WorkloadGenerator &Gen);

} // namespace st

#endif // SMARTTRACK_WORKLOAD_CHARACTERISTICS_H
