//===- report/RaceSink.h - Streaming race-report consumers ------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The results side of the streaming pipeline: analyses *push* every
/// detected race through a RaceSink the moment it is found, the same way
/// events flow in through an EventSource. A RaceReport is self-describing
/// (both accesses, explicit site provenance, the reporting analysis), so
/// sinks compose without knowing which analysis produced a report.
///
/// Built-in sinks:
///  - CountingSink: the paper's §5.1 accounting (per-event dedup, dynamic
///    count, statically distinct sites) — every Analysis owns one.
///  - CollectingSink: bounded in-memory store of reports.
///  - CallbackSink: user std::function, for live reactions.
///  - TeeSink: fan-out to any number of downstream sinks, in order.
///  - NdjsonSink: one JSON object per race appended to a ByteSink —
///    constant-memory reporting for multi-million-race runs.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_REPORT_RACESINK_H
#define SMARTTRACK_REPORT_RACESINK_H

#include "support/Bytes.h"
#include "support/DenseIdSet.h"
#include "support/Epoch.h"
#include "support/Json.h" // re-exported: JSON consumers of race reports
#include "support/Types.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace st {

/// How a RaceReport's Site field was obtained. Accesses without a static
/// source site (builder-made traces, uninstrumented runtime events) fall
/// back to a per-variable pseudo-site so static counting still works; the
/// two id spaces are disjoint and must never be mixed.
enum class SiteProvenance : uint8_t {
  /// Site is the access event's real static SiteId.
  Explicit,
  /// Site is the raced-on variable's VarId (no static site was known).
  FallbackVar,
};

/// One detected dynamic race, as pushed to sinks at detection time: the
/// current access plus a representative prior conflicting access (the
/// epoch the failed ordering check compared against).
struct RaceReport {
  /// Index of the current access event in the analyzed stream.
  uint64_t EventIdx = 0;
  /// The raced-on variable.
  VarId Var = 0;
  /// Thread performing the current access.
  ThreadId Tid = 0;
  /// True when the current access is a write.
  bool IsWrite = false;
  /// Static site of the current access; a VarId when Provenance is
  /// FallbackVar. Never carries encoding bits — check Provenance instead.
  SiteId Site = InvalidId;
  SiteProvenance Provenance = SiteProvenance::FallbackVar;
  /// Epoch of one prior conflicting access (⊥ when only a clock was
  /// known).
  Epoch Prior;
  /// Registry-style name of the reporting analysis ("ST-WDC", ...).
  /// Points at storage owned by the analysis; copy it to outlive the run.
  const char *AnalysisName = "";
};

/// Longest writeRaceSite spelling: "line:" and a 32-bit id.
inline constexpr size_t MaxRaceSiteChars = 15;

/// Writes "line:<id>" for explicit sites, "var:<id>" for fallback sites —
/// the canonical human/JSON spelling shared by every reporter — at \p P,
/// which has room for MaxRaceSiteChars; returns the end.
char *writeRaceSite(char *P, const RaceReport &R);

/// Appends the writeRaceSite spelling.
void appendRaceSite(std::string &Out, const RaceReport &R);

/// appendRaceSite's spelling as a new string.
std::string raceSiteString(const RaceReport &R);

/// Appends symbol \p Id as a JSON string: Names[Id] escaped when the
/// table is present and in range, else the quoted "<Prefix><Id>".
void jsonAppendSymbol(std::string &Out, const std::vector<std::string> *Names,
                      uint32_t Id, char Prefix);

/// Abstract push-based race consumer. onRace() is called once per counted
/// dynamic race (reports are already deduplicated per access event by the
/// producing analysis), in stream order for that analysis, synchronously
/// on the thread that processed the racing event.
class RaceSink {
public:
  virtual ~RaceSink() = default;

  virtual void onRace(const RaceReport &R) = 0;
};

/// The paper's §5.1 race accounting as a sink: at most one dynamic race
/// per access event, and races at the same static site count as one
/// statically distinct race. Expects a single analysis's report stream
/// (the per-event dedup keys on EventIdx).
class CountingSink : public RaceSink {
public:
  void onRace(const RaceReport &R) override {
    if (HaveLast && R.EventIdx == LastEventIdx)
      return; // one dynamic race per access event
    HaveLast = true;
    LastEventIdx = R.EventIdx;
    ++Dynamic;
    // Explicit SiteIds and per-variable fallback ids live in disjoint
    // dense spaces, so each set stays dense.
    if (R.Provenance == SiteProvenance::Explicit)
      ExplicitSites.insert(R.Site);
    else
      FallbackSites.insert(R.Site);
  }

  uint64_t dynamicRaces() const { return Dynamic; }
  unsigned staticRaces() const {
    return static_cast<unsigned>(ExplicitSites.size() +
                                 FallbackSites.size());
  }
  size_t footprintBytes() const {
    return ExplicitSites.footprintBytes() + FallbackSites.footprintBytes();
  }

private:
  uint64_t Dynamic = 0;
  uint64_t LastEventIdx = 0;
  bool HaveLast = false;
  DenseIdSet ExplicitSites;
  DenseIdSet FallbackSites;
};

/// Bounded in-memory store: keeps the first Capacity reports and counts
/// the rest as dropped, so multi-million-race runs stay bounded while the
/// interesting prefix remains inspectable.
class CollectingSink : public RaceSink {
public:
  explicit CollectingSink(size_t Capacity = SIZE_MAX)
      : Capacity(Capacity) {}

  void onRace(const RaceReport &R) override {
    if (Reports.size() < Capacity)
      Reports.push_back(R);
    else
      ++Dropped;
  }

  /// Applies to future reports only; already stored reports are kept.
  void setCapacity(size_t N) { Capacity = N; }

  const std::vector<RaceReport> &reports() const { return Reports; }
  uint64_t dropped() const { return Dropped; }
  size_t footprintBytes() const {
    return Reports.capacity() * sizeof(RaceReport);
  }

private:
  size_t Capacity;
  uint64_t Dropped = 0;
  std::vector<RaceReport> Reports;
};

/// Adapts a std::function, for callers that want to react to races live
/// (log, abort the run, feed a dashboard) without subclassing.
class CallbackSink : public RaceSink {
public:
  using Callback = std::function<void(const RaceReport &)>;

  explicit CallbackSink(Callback Fn) : Fn(std::move(Fn)) {}

  void onRace(const RaceReport &R) override { Fn(R); }

private:
  Callback Fn;
};

/// Fan-out: forwards every report to each added sink in registration
/// order. Sinks are borrowed and must outlive the tee.
class TeeSink : public RaceSink {
public:
  void addSink(RaceSink &S) { Sinks.push_back(&S); }
  bool empty() const { return Sinks.empty(); }

  void onRace(const RaceReport &R) override {
    for (RaceSink *S : Sinks)
      S->onRace(R);
  }

private:
  std::vector<RaceSink *> Sinks;
};

/// Streams races as newline-delimited JSON (one object per line) to a
/// ByteSink: O(symbol-table) memory no matter how many races flow
/// through. The sink never reads the bound symbol tables at emit time —
/// it keeps its own snapshot, taken at setSymbols() and refreshed on
/// demand — so the live tables may keep growing on another thread (the
/// parallel engine's decode thread interns names mid-parse) as long as
/// refreshSymbols() is only called at quiet points
/// (SessionOptions::OnBatchPublish).
///
/// A race line makes no heap allocation once each analysis has emitted
/// one: the snapshot holds names already escaped and quoted, each
/// analysis's line prefix is escaped once at its first report, and every
/// line is assembled in one reused buffer and handed to the ByteSink in
/// a single write() (FrameSink relies on this to frame lines).
class NdjsonSink : public RaceSink {
public:
  explicit NdjsonSink(ByteSink &Out) : Out(Out) {}

  /// Binds thread/variable name tables and snapshots their current
  /// contents; ids beyond the snapshot print as "T<id>" / "x<id>". Pass
  /// null to drop a table. Names for already-interned ids never change,
  /// so the snapshot only ever appends.
  void setSymbols(const std::vector<std::string> *Threads,
                  const std::vector<std::string> *Vars) {
    LiveThreadNames = Threads;
    LiveVarNames = Vars;
    ThreadSnapshot.clear();
    VarSnapshot.clear();
    LongestThread = LongestVar = 0;
    refreshSymbols();
  }

  /// Re-snapshots the bound tables (appending entries interned since the
  /// last snapshot). Call only when no thread is concurrently growing
  /// the tables or delivering reports — the engine's per-batch quiet
  /// point is exactly that.
  void refreshSymbols() {
    auto Append = [](const std::vector<std::string> *Live,
                     std::vector<std::string> &Snap, size_t &Longest) {
      if (!Live)
        return;
      for (size_t I = Snap.size(); I < Live->size(); ++I) {
        std::string Quoted;
        jsonAppendEscaped(Quoted, (*Live)[I]);
        Longest = std::max(Longest, Quoted.size());
        Snap.push_back(std::move(Quoted));
      }
    };
    Append(LiveThreadNames, ThreadSnapshot, LongestThread);
    Append(LiveVarNames, VarSnapshot, LongestVar);
  }

  /// Caps emitted race lines per reporting analysis (counting sinks are
  /// unaffected); SIZE_MAX means unlimited.
  void setMaxRacesPerAnalysis(size_t N) { MaxPerAnalysis = N; }

  void onRace(const RaceReport &R) override;

  /// False after any write failure (subsequent reports are dropped).
  bool ok() const { return !WriteFailed; }

private:
  /// What the sink keeps per reporting analysis, keyed by name pointer
  /// (names are stable for the analysis's lifetime).
  struct AnalysisLines {
    const char *Name;
    /// `{"type":"race","analysis":"<escaped name>","event":`
    std::string Prefix;
    size_t Emitted;
  };

  AnalysisLines &linesFor(const char *Name);

  ByteSink &Out;
  /// Live tables (borrowed; may grow on the decode thread) and the
  /// sink-owned snapshots every emit reads from, JSON-escaped and quoted.
  const std::vector<std::string> *LiveThreadNames = nullptr;
  const std::vector<std::string> *LiveVarNames = nullptr;
  std::vector<std::string> ThreadSnapshot;
  std::vector<std::string> VarSnapshot;
  /// Longest entry of each snapshot, so a line's buffer is sized by the
  /// tables rather than by the names in it: it stops growing once every
  /// analysis has reported (until a refresh adds a longer name).
  size_t LongestThread = 0;
  size_t LongestVar = 0;
  size_t MaxPerAnalysis = SIZE_MAX;
  /// One entry per analysis seen; Current indexes the last one used.
  std::vector<AnalysisLines> Analyses;
  size_t Current = 0;
  /// The line being assembled.
  std::vector<char> Line;
  bool WriteFailed = false;
};

} // namespace st

#endif // SMARTTRACK_REPORT_RACESINK_H
