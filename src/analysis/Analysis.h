//===- analysis/Analysis.h - Dynamic race analysis interface ----*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The common interface every race detection analysis implements: an online
/// consumer of trace events that reports data races. Races are *pushed*
/// through the report layer (report/RaceSink.h) the moment they are found:
/// every analysis owns a CountingSink implementing the paper's accounting
/// (§5.1: analyses keep running after a race; at most one dynamic race is
/// counted per access event; races at the same static site count as one
/// statically distinct race) plus a bounded CollectingSink, and callers may
/// attach any further sink with setRaceSink().
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_ANALYSIS_ANALYSIS_H
#define SMARTTRACK_ANALYSIS_ANALYSIS_H

#include "report/RaceSink.h"
#include "support/Epoch.h"
#include "trace/Trace.h"

#include <cstdint>
#include <vector>

namespace st {

/// Frequencies of the FTO/SmartTrack access-handling cases, reported by the
/// epoch-optimized analyses (paper Appendix B, Table 12).
struct CaseStats {
  // Fast paths (not counted as non-same-epoch accesses).
  uint64_t ReadSameEpoch = 0;
  uint64_t SharedSameEpoch = 0;
  uint64_t WriteSameEpoch = 0;
  // Non-same-epoch read cases.
  uint64_t ReadOwned = 0;        // "Owned Excl" in Table 12
  uint64_t ReadSharedOwned = 0;  // "Owned Shared"
  uint64_t ReadExclusive = 0;    // "Unowned Excl"
  uint64_t ReadShare = 0;        // "Unowned Share"
  uint64_t ReadShared = 0;       // "Unowned Shared"
  // Non-same-epoch write cases.
  uint64_t WriteOwned = 0;
  uint64_t WriteExclusive = 0;
  uint64_t WriteShared = 0;

  uint64_t nonSameEpochReads() const {
    return ReadOwned + ReadSharedOwned + ReadExclusive + ReadShare +
           ReadShared;
  }
  uint64_t nonSameEpochWrites() const {
    return WriteOwned + WriteExclusive + WriteShared;
  }
};

/// Abstract online race detection analysis.
class Analysis {
public:
  virtual ~Analysis() = default;

  /// Feeds one event; events must arrive in trace order. Deliberately
  /// non-virtual: the per-event dispatch is the hot path and goes through
  /// exactly one virtual call (the on* handler).
  void processEvent(const Event &E);

  /// Feeds a contiguous batch of events in trace order; the chunked entry
  /// point the streaming engine drives.
  void processBatch(const Event *Events, size_t N);

  /// Feeds an entire trace.
  void processTrace(const Trace &Tr);

  /// Human-readable analysis name as used in the paper's tables.
  virtual const char *name() const = 0;

  /// Live bytes of analysis state, for the memory experiments: the
  /// analysis's own metadata plus the base race accounting.
  size_t footprintBytes() const {
    return metadataFootprintBytes() + raceAccountingFootprintBytes();
  }

  /// Live bytes of the analysis-specific metadata.
  virtual size_t metadataFootprintBytes() const = 0;

  /// Live bytes of the base race accounting (the counting and collecting
  /// sinks), identical machinery for every analysis.
  size_t raceAccountingFootprintBytes() const {
    return Accounting.footprintBytes() + Stored.footprintBytes();
  }

  /// FTO-case frequencies if this analysis tracks them (Table 12).
  virtual const CaseStats *caseStats() const { return nullptr; }

  uint64_t dynamicRaces() const { return Accounting.dynamicRaces(); }
  unsigned staticRaces() const { return Accounting.staticRaces(); }

  /// Reports retained by the built-in bounded CollectingSink (the first
  /// maxStoredRaces of the run).
  const std::vector<RaceReport> &raceRecords() const {
    return Stored.reports();
  }

  /// Caps the number of stored RaceReports (counting and attached sinks
  /// are unaffected); the benches use this to keep multi-million-race
  /// runs bounded.
  void setMaxStoredRaces(size_t N) { Stored.setCapacity(N); }

  /// Attaches \p S to receive every race report at detection time, after
  /// the built-in accounting (null detaches). The sink is borrowed and
  /// must outlive the analysis's processing.
  void setRaceSink(RaceSink *S) { Sink = S; }

  /// The currently attached sink (null when none). Session composes its
  /// fan-out with a caller-attached sink through this.
  RaceSink *raceSink() const { return Sink; }

  uint64_t eventsProcessed() const { return EventIdx; }

protected:
  /// Called before dispatching each event; analyses that keep per-event
  /// bookkeeping (e.g. graph recording) override this.
  virtual void preEvent(const Event &E) { (void)E; }

  virtual void onRead(const Event &E) = 0;
  virtual void onWrite(const Event &E) = 0;
  virtual void onAcquire(const Event &E) = 0;
  virtual void onRelease(const Event &E) = 0;
  virtual void onFork(const Event &E) = 0;
  virtual void onJoin(const Event &E) = 0;
  virtual void onVolRead(const Event &E) = 0;
  virtual void onVolWrite(const Event &E) = 0;

  /// Reports a race at the current access against \p Prior. Multiple
  /// reports during one event count once (paper §5.1); the first builds a
  /// RaceReport and pushes it through the sinks.
  void reportRace(const Event &E, Epoch Prior);

  /// Index of the event currently being processed.
  uint64_t currentEventIndex() const { return EventIdx; }

private:
  uint64_t EventIdx = 0;
  bool RacedThisEvent = false;
  /// The paper's dedup/static-site accounting — always on, the default
  /// path every consumer's race counts come from.
  CountingSink Accounting;
  /// Bounded report store backing raceRecords().
  CollectingSink Stored;
  /// Optional caller-attached sink (live callbacks, NDJSON, tees, ...).
  RaceSink *Sink = nullptr;
};

} // namespace st

#endif // SMARTTRACK_ANALYSIS_ANALYSIS_H
