//===- analysis/CSList.h - SmartTrack critical-section lists ----*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The critical-section (CS) lists of Algorithm 3, shared by every
/// SmartTrack-tier analysis (STCore instantiations):
///
///  - H_t: thread t's active critical sections, innermost first.
///  - L^w_x / L^r_x: the CS list H_t held when W_x / R_x was recorded.
///  - E^r_x / E^w_x: "extra" per-thread lock→section maps holding CS
///    information that a write would otherwise overwrite (Figures 4(c,d));
///    empty in the common case, which is where SmartTrack's speedup lives.
///
/// Lists are persistent cons cells in a per-analysis arena (CSPool),
/// addressed by 32-bit CSRef indices and reference counted without atomics
/// (an analysis runs on one thread). Acquire conses a cell onto H_t and
/// release pops it, so between two synchronization events H_t is one
/// immutable list: recording it in variable metadata (Algorithm 3's
/// "shallow copy") is an index store plus an increment, and a list shared
/// by many variables is stored, and counted by footprintBytes(), once.
///
/// Each cell carries its section's release clock inline. Until the release
/// the owner's entry reads ∞, so ordering queries against an open section
/// fail; the release fills in the clock (the deferred update) whenever
/// anything besides H_t can still see it. An out-of-order release
/// (acq(a) acq(b) rel(a)) cannot unlink a cell that other lists share, so
/// it re-conses the sections above the released one. Each copy names the
/// original's clock through ClockOf, so lists recorded before the release
/// still observe those sections' later release times.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_ANALYSIS_CSLIST_H
#define SMARTTRACK_ANALYSIS_CSLIST_H

#include "support/Types.h"
#include "support/VectorClock.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace st {

/// Index of a cell in a CSPool: a CS list is named by its innermost cell.
using CSRef = uint32_t;

/// The empty list (accesses outside any critical section).
inline constexpr CSRef NoCS = 0;

/// One critical section, linked to its enclosing section.
struct CSCell {
  /// The release clock, if ClockOf names this cell: the owner's entry is
  /// ∞ until the release fills it in.
  VectorClock Clock;
  LockId M = 0;
  CSRef Next = NoCS;    ///< enclosing section; free-list link when free
  CSRef Outer = NoCS;   ///< outermost section of the list from this cell
  CSRef ClockOf = NoCS; ///< cell whose Clock holds this section's release
  uint32_t Depth = 0;   ///< list length from this cell; 0 on free cells
  uint32_t Refs = 0;    ///< references from lists, metadata and Next/ClockOf
};

/// Arena of CS-list cells with intrusive, non-atomic reference counts.
/// Every function that yields a CSRef hands the caller one reference.
class CSPool {
public:
  CSPool() : Cells(1) {} // cell 0 stands for the empty list

  const CSCell &operator[](CSRef R) const { return Cells[R]; }

  /// The release clock section \p R uses.
  const VectorClock &clock(CSRef R) const {
    return Cells[Cells[R].ClockOf].Clock;
  }

  void retain(CSRef R) {
    if (R != NoCS)
      ++Cells[R].Refs;
  }

  /// Drops one reference to \p R, freeing every cell that becomes
  /// unreferenced.
  void drop(CSRef R) {
    while (R != NoCS) {
      CSCell &C = Cells[R];
      assert(C.Refs > 0 && "dropping an unreferenced CS cell");
      if (--C.Refs != 0)
        return;
      CSRef Next = C.Next;
      if (C.ClockOf != R)
        drop(C.ClockOf); // an original, whose ClockOf is itself
      C.Depth = 0;
      C.Next = FreeHead;
      FreeHead = R;
      --Live;
      R = Next;
    }
  }

  /// Points \p Slot at list \p R, moving one reference.
  void assign(CSRef &Slot, CSRef R) {
    if (Slot == R)
      return;
    retain(R);
    drop(Slot);
    Slot = R;
  }

  /// Opens a section on \p M by thread \p Owner inside list \p Next,
  /// taking over the caller's reference to \p Next.
  CSRef cons(LockId M, ThreadId Owner, CSRef Next) {
    CSRef R = link(M, Next);
    CSCell &C = Cells[R];
    C.ClockOf = R;
    size_t Before = C.Clock.footprintBytes();
    C.Clock.clear();
    C.Clock.set(Owner, InfiniteClock);
    ClockHeapBytes += C.Clock.footprintBytes() - Before;
    return R;
  }

  /// Closes the innermost section on \p M in thread list \p Head at release
  /// time \p Rel and returns the remaining list, taking over the caller's
  /// reference to \p Head. A lock the list does not hold changes nothing.
  CSRef close(CSRef Head, LockId M, const VectorClock &Rel) {
    CSRef X = Head;
    Above.clear();
    for (; X != NoCS && Cells[X].M != M; X = Cells[X].Next)
      Above.push_back(X);
    if (X == NoCS)
      return Head;
    // Only H_t sees an innermost original with no other reference; any
    // other section may be reached through a list that shares it.
    const CSCell &C = Cells[X];
    if (!Above.empty() || C.Refs > 1 || C.ClockOf != X) {
      VectorClock &Clock = Cells[C.ClockOf].Clock;
      size_t Before = Clock.footprintBytes();
      Clock = Rel;
      ClockHeapBytes += Clock.footprintBytes() - Before;
    }
    CSRef Rest = Cells[X].Next;
    retain(Rest);
    for (size_t I = Above.size(); I-- > 0;) { // outermost copy first
      CSRef Of = Above[I];
      CSRef Copy = link(Cells[Of].M, Rest);
      CSRef Clock = Cells[Of].ClockOf;
      Cells[Copy].ClockOf = Clock;
      ++Cells[Clock].Refs;
      Rest = Copy;
    }
    drop(Head);
    return Rest;
  }

  /// Cells in use (the empty list not counted).
  size_t liveCells() const { return Live; }

  /// Bytes of the arena: every cell slot plus spilled clock buffers.
  size_t footprintBytes() const {
    return Cells.capacity() * sizeof(CSCell) + ClockHeapBytes;
  }

  /// Test oracle: \p Counts holds, per cell, the references from outside
  /// the pool (lists and metadata). Adds the Next/ClockOf links of live
  /// cells and checks the result against every Refs and the free list.
  /// Returns an empty string when they agree, else the first mismatch.
  std::string verifyRefs(std::vector<uint32_t> Counts) const;

  size_t size() const { return Cells.size(); }

private:
  /// A fresh cell on \p M inside \p Next (adopting that reference) with
  /// one reference, its depth and outermost cell set; ClockOf is unset.
  CSRef link(LockId M, CSRef Next) {
    CSRef R;
    if (FreeHead != NoCS) {
      R = FreeHead;
      FreeHead = Cells[R].Next;
    } else {
      R = static_cast<CSRef>(Cells.size());
      Cells.emplace_back();
    }
    ++Live;
    CSCell &C = Cells[R];
    C.M = M;
    C.Next = Next;
    C.Refs = 1;
    C.Depth = Next == NoCS ? 1 : Cells[Next].Depth + 1;
    C.Outer = Next == NoCS ? R : Cells[Next].Outer;
    return R;
  }

  std::vector<CSCell> Cells;
  CSRef FreeHead = NoCS;
  size_t Live = 0;
  size_t ClockHeapBytes = 0;
  std::vector<CSRef> Above; // close()'s scratch: cells above the released
};

inline std::string CSPool::verifyRefs(std::vector<uint32_t> Counts) const {
  auto Cell = [](size_t I) { return "cell " + std::to_string(I); };
  if (Counts.size() != Cells.size())
    return "root counts cover " + std::to_string(Counts.size()) +
           " cells, pool has " + std::to_string(Cells.size());
  std::vector<bool> Free(Cells.size());
  size_t NumFree = 0;
  for (CSRef R = FreeHead; R != NoCS; R = Cells[R].Next) {
    if (R >= Cells.size() || Free[R] || ++NumFree > Cells.size())
      return "free list is corrupt at " + Cell(R);
    if (Cells[R].Refs != 0 || Cells[R].Depth != 0)
      return Cell(R) + " is on the free list but referenced";
    Free[R] = true;
  }
  if (Live + NumFree + 1 != Cells.size())
    return std::to_string(Live) + " live and " + std::to_string(NumFree) +
           " free cells do not add up to " + std::to_string(Cells.size());
  for (size_t I = 1; I != Cells.size(); ++I) {
    if (Free[I])
      continue;
    const CSCell &C = Cells[I];
    for (CSRef L : {C.Next, C.ClockOf == I ? NoCS : C.ClockOf}) {
      if (L == NoCS)
        continue;
      if (L >= Cells.size() || Free[L])
        return Cell(I) + " links to free " + Cell(L);
      ++Counts[L];
    }
  }
  for (size_t I = 1; I != Cells.size(); ++I) {
    if (Free[I]) {
      if (Counts[I] != 0)
        return "free " + Cell(I) + " has " + std::to_string(Counts[I]) +
               " references";
      continue;
    }
    if (Counts[I] == 0)
      return "live " + Cell(I) + " is unreachable (Refs " +
             std::to_string(Cells[I].Refs) + ")";
    if (Counts[I] != Cells[I].Refs)
      return Cell(I) + " has Refs " + std::to_string(Cells[I].Refs) +
             " but " + std::to_string(Counts[I]) + " references";
  }
  return {};
}

/// Lock -> retained section whose release clock a residual names ("extra"
/// metadata leaf).
using LockClockMap = std::unordered_map<LockId, CSRef>;

/// Thread-indexed extra metadata E^r_x / E^w_x.
using ExtraMap = std::unordered_map<ThreadId, LockClockMap>;

} // namespace st

#endif // SMARTTRACK_ANALYSIS_CSLIST_H
