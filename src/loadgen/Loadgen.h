//===- loadgen/Loadgen.h - Open-loop load generator for st-serve *- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The open-loop load generator behind tools/st-loadgen: N connection
/// workers drive a live st-serve instance with Poisson arrivals at a
/// target event rate, timing every request from its *scheduled* send
/// instant to the final stream-SUMMARY receipt.
///
/// Open-loop means the arrival schedule never waits for the server: each
/// worker draws its request instants up front from a seeded exponential
/// stream (ExpArrivals), and a slow server makes requests *late*, not
/// *fewer*. That is the Leverich & Kozyrakis discipline the ROADMAP's
/// mutated reference prescribes, and it is what makes tail percentiles
/// honest: a closed-loop client stops offering load exactly when the
/// server stalls, hiding the stall from the histogram (coordinated
/// omission). Two corrections keep this generator honest when it —
/// rather than the server — falls behind:
///
///   1. latency is measured from the scheduled arrival instant, so
///      generator queueing delay counts against the report rather than
///      vanishing;
///   2. every send that starts more than LateSendToleranceNs past its
///      schedule increments late_sends, which the report carries so a
///      run whose generator could not sustain the offered rate is
///      visibly degraded instead of silently closed-loop.
///
/// One request is one full STS1 conversation on a fresh connection:
/// connect + HELLO ahead of the scheduled instant (handshake cost is
/// not the server's report latency), then EVENTS chunks + EOS at the
/// scheduled time, with a dedicated reader thread draining RACE/SUMMARY
/// frames concurrently (docs/serving.md explains why neither side may
/// block on a full send buffer). Request payloads come from
/// buildRequestPayload() — a pure function of (options, worker,
/// request index) — so the same --seed offers bit-identical
/// per-connection event streams on every run.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_LOADGEN_LOADGEN_H
#define SMARTTRACK_LOADGEN_LOADGEN_H

#include "loadgen/Histogram.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace st {

/// How many events one request carries, drawn per request from the
/// deterministic per-request stream.
enum class EventCountDist : uint8_t {
  /// Every request carries exactly EventsPerRequest events.
  Fixed,
  /// Uniform in [EventsPerRequest/2, 3*EventsPerRequest/2].
  Uniform,
  /// Exponential with mean EventsPerRequest, clamped to [1, 8x mean].
  Exponential,
};

/// Sends that start more than this past their scheduled instant count
/// as late_sends: wide enough to forgive OS sleep granularity, narrow
/// enough that real generator saturation is visible.
inline constexpr uint64_t LateSendToleranceNs = 1000000; // 1 ms

/// What one request produced (delivered to the OnRequest test hook).
struct RequestOutcome {
  bool Ok = false;
  /// Scheduled-send -> stream-SUMMARY-received, coordinated-omission
  /// corrected (includes any generator lateness).
  uint64_t LatencyNs = 0;
  /// Server-side service time from the stream SUMMARY's service_ns
  /// field (0 when the server predates the field).
  uint64_t ServiceNs = 0;
  uint64_t Races = 0;
  uint64_t Events = 0;
  /// Concatenated frame payloads in receive order (filled only when an
  /// OnRequest hook is installed).
  std::string RaceBytes;
  std::string SummaryBytes;
  std::string ErrorBytes;
};

struct LoadgenOptions {
  /// Server address ("unix:PATH", "tcp:HOST:PORT", "HOST:PORT").
  std::string Connect;
  /// Target offered load, summed across all connections, in events/sec.
  double EventsPerSec = 100000;
  /// Concurrent connection workers. Each runs an independent Poisson
  /// process at EventsPerSec/Connections; their superposition is
  /// Poisson at the target rate.
  unsigned Connections = 4;
  double DurationSeconds = 5;
  uint64_t Seed = 42;
  /// Workload profile name (workload/Workload.h registry).
  std::string Workload = "avrora";
  /// HELLO analysis names (empty = server default).
  std::vector<std::string> Analyses;
  /// Mean events per request; per-request counts drawn from Dist.
  uint64_t EventsPerRequest = 2000;
  EventCountDist Dist = EventCountDist::Fixed;
  /// EVENTS frame chunking (stays under the frame payload cap).
  size_t ChunkBytes = 64 * 1024;
  /// Socket receive timeout; a hung server fails the request instead of
  /// wedging a worker.
  double RecvTimeoutSeconds = 30;
  /// Test hook, called from worker threads after each request completes
  /// (at most one call per worker at a time; distinct workers call
  /// concurrently). Installing it turns on frame-byte capture.
  std::function<void(unsigned Worker, uint64_t Request,
                     const RequestOutcome &Outcome)>
      OnRequest;
};

/// Aggregated results of one run. Histograms are the elementwise merge
/// of the per-worker histograms (see LatencyHistogram::merge — pure
/// counter addition, no re-weighting, so the coordinated-omission
/// correction applied at record time survives aggregation unchanged).
struct LoadgenReport {
  LatencyHistogram Latency;
  LatencyHistogram Service;
  uint64_t Requests = 0;
  uint64_t Completed = 0;
  uint64_t Errors = 0;
  /// Requests whose send began > LateSendToleranceNs past schedule.
  uint64_t LateSends = 0;
  /// Events encoded into sent payloads (all requests / completed only).
  uint64_t EventsSent = 0;
  uint64_t EventsCompleted = 0;
  uint64_t BytesSent = 0;
  /// Sum of total_dynamic_races over completed requests.
  uint64_t Races = 0;
  double WallSeconds = 0;
  double OfferedEventsPerSec = 0;
  /// EventsCompleted / WallSeconds — claims clamp to this, never to the
  /// offered rate.
  double AchievedEventsPerSec = 0;
};

/// One request's wire payload: STB bytes plus the exact event count the
/// encoder emitted (the generator stops at a block boundary, so this
/// can exceed the drawn target slightly).
struct RequestPayload {
  std::string Bytes;
  uint64_t Events = 0;
};

/// The pure payload function: (options, worker, request) -> identical
/// bytes on every run with the same seed. Exposed for the determinism
/// test and for comparing server results against a direct Session run.
RequestPayload buildRequestPayload(const LoadgenOptions &Opts,
                                   unsigned Worker, uint64_t Request);

/// The per-worker exponential arrival seed/mean (exposed for tests).
uint64_t arrivalSeed(uint64_t Seed, unsigned Worker);
double meanArrivalGapNs(const LoadgenOptions &Opts);

/// Runs the full open-loop measurement. Returns false with \p Err set
/// on configuration errors (bad address, unknown workload, zero rate);
/// per-request transport failures are counted in LoadgenReport::Errors,
/// not fatal.
bool runLoadgen(const LoadgenOptions &Opts, LoadgenReport &Out,
                std::string *Err);

} // namespace st

#endif // SMARTTRACK_LOADGEN_LOADGEN_H
