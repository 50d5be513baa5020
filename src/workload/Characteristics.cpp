//===- workload/Characteristics.cpp - Table 2 measurements ----------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "workload/Characteristics.h"

#include "support/Epoch.h"

#include <unordered_map>
#include <vector>

using namespace st;

WorkloadCharacteristics st::measureCharacteristics(WorkloadGenerator &Gen) {
  Gen.reset();
  WorkloadCharacteristics C;
  C.Threads = Gen.profile().Threads;

  // Same-epoch classification per the FTO definition: a thread's repeated
  // access to a variable with no intervening synchronization by that
  // thread. Track a per-thread epoch counter (incremented at every sync
  // operation) plus per-variable last write epoch and per-(variable,
  // thread) last access clock.
  std::vector<ClockValue> EpochOf; // per thread
  struct VarMeta {
    Epoch LastWrite;
    std::unordered_map<ThreadId, ClockValue> LastAccess;
  };
  std::vector<VarMeta> Vars;
  std::vector<unsigned> HeldCount;

  auto Tick = [&EpochOf](ThreadId T) -> ClockValue & {
    if (T >= EpochOf.size())
      EpochOf.resize(T + 1, 1);
    return EpochOf[T];
  };

  Event E;
  while (Gen.next(E)) {
    ++C.AllEvents;
    if (E.Tid >= HeldCount.size())
      HeldCount.resize(E.Tid + 1, 0);
    switch (E.Kind) {
    case EventKind::Acquire:
      ++HeldCount[E.Tid];
      ++Tick(E.Tid);
      break;
    case EventKind::Release:
      --HeldCount[E.Tid];
      ++Tick(E.Tid);
      break;
    case EventKind::Fork:
    case EventKind::Join:
    case EventKind::VolRead:
    case EventKind::VolWrite:
      ++Tick(E.Tid);
      break;
    case EventKind::Read:
    case EventKind::Write: {
      if (E.var() >= Vars.size())
        Vars.resize(E.var() + 1);
      VarMeta &V = Vars[E.var()];
      ClockValue Now = Tick(E.Tid);
      bool SameEpoch;
      if (E.Kind == EventKind::Write) {
        SameEpoch = V.LastWrite == Epoch::make(E.Tid, Now);
      } else {
        auto It = V.LastAccess.find(E.Tid);
        SameEpoch = It != V.LastAccess.end() && It->second == Now;
      }
      if (!SameEpoch) {
        ++C.Nseas;
        unsigned H = HeldCount[E.Tid];
        C.NseaHeld1 += H >= 1;
        C.NseaHeld2 += H >= 2;
        C.NseaHeld3 += H >= 3;
      }
      if (E.Kind == EventKind::Write)
        V.LastWrite = Epoch::make(E.Tid, Now);
      V.LastAccess[E.Tid] = Now;
      break;
    }
    }
  }
  Gen.reset();
  return C;
}
