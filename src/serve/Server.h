//===- serve/Server.h - Multi-client race-detection service -----*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The st-serve service core: a long-running server accepting framed STB
/// or text trace uploads (serve/Frame.h) from many concurrent clients
/// over unix-domain and TCP listeners, running each connection through
/// its own Session and streaming RACE/DIAG frames back live.
///
/// Concurrency model: one acceptor thread feeds a fixed pool of worker
/// threads; each worker owns one connection at a time end-to-end, so a
/// connection's Session, decode stack, and sinks are all single-threaded.
/// Backpressure is the pull pipeline itself: a worker reads frames off the
/// socket only when the engine asks for the next batch, so a fast client
/// cannot balloon server memory — the kernel socket buffer is the only
/// queue.
///
/// Budgets and eviction: per-connection memory (analysis footprintBytes
/// accounting) and wall-time budgets are checked at every engine read;
/// a connection over budget is evicted gracefully — SUMMARY frames for
/// the prefix analyzed so far, then an ERROR frame naming the budget —
/// never a silent close. Every other abnormal outcome (malformed frames,
/// decode failures, strict validation rejection) likewise ends with an
/// ERROR frame, and the worker slot is always returned to the pool.
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_SERVE_SERVER_H
#define SMARTTRACK_SERVE_SERVER_H

#include "report/Session.h"
#include "serve/Frame.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace st {

/// Server configuration. Session carries the per-connection defaults a
/// client HELLO may override (validation, batch size, diagnostic cap)
/// within the limits here; the race-line cap comes from HELLO alone.
struct ServerOptions {
  /// Worker threads, i.e. connections analyzed concurrently; further
  /// accepted connections queue until a worker frees up.
  unsigned Workers = 4;
  /// Cap on one frame's payload bytes (protocol error beyond it).
  size_t MaxFramePayload = DefaultMaxFramePayload;
  /// Per-connection cap on summed analysis footprintBytes(); 0 means
  /// unlimited. Breach evicts the connection (SUMMARY + ERROR
  /// "evicted-memory").
  uint64_t MemoryBudgetBytes = 0;
  /// Per-connection wall-time budget in seconds; 0 means unlimited.
  /// Doubles as the socket receive timeout, so a silent client cannot
  /// hold a worker past its budget. Breach sends ERROR "evicted-time".
  double TimeBudgetSeconds = 0;
  /// Per-connection Session defaults (Parallel is forced off — the
  /// worker pool is the cross-connection parallelism).
  SessionOptions Session;
  /// Analyses run when the client HELLO names none.
  std::vector<AnalysisKind> DefaultKinds = {AnalysisKind::STWDC};
  /// Stop accepting after this many connections (0 = serve until
  /// stop()); wait() returns once they have all been handled.
  uint64_t MaxConnections = 0;
};

/// Lifetime connection accounting; every accepted connection lands in
/// exactly one of the four outcome buckets.
struct ServerStats {
  uint64_t Accepted = 0;
  /// Run completed, SUMMARY frames sent, no ERROR.
  uint64_t Completed = 0;
  /// Budget evictions (SUMMARY + ERROR sent).
  uint64_t Evicted = 0;
  /// Input rejected after a good handshake: decode/frame error
  /// mid-stream, disconnect before EOS, or strict validation rejection.
  uint64_t Rejected = 0;
  /// Handshake never completed: missing/malformed/incompatible HELLO or
  /// frame-layer garbage where HELLO was expected.
  uint64_t ProtocolErrors = 0;

  uint64_t handled() const {
    return Completed + Evicted + Rejected + ProtocolErrors;
  }
};

/// The service: add listeners, start(), then wait() or stop(). One
/// Server instance may host any mix of unix and TCP listeners.
class Server {
public:
  explicit Server(ServerOptions Opts = ServerOptions());
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Adds a listener before start(). Returns false with \p Err set on
  /// bind failure.
  bool addUnixListener(const std::string &Path, std::string *Err = nullptr);
  bool addTcpListener(const std::string &Host, uint16_t Port,
                      std::string *Err = nullptr);

  /// The bound port of the last TCP listener (for port-0 binds).
  uint16_t tcpPort() const { return TcpPort; }

  /// Spawns the acceptor and worker threads. Requires >= 1 listener.
  bool start(std::string *Err = nullptr);

  /// Blocks until MaxConnections connections have been fully handled
  /// (forever — i.e. until stop() from another thread — when
  /// MaxConnections is 0).
  void wait();

  /// Stops accepting, drains queued connections' worker handling, joins
  /// every thread, closes listeners, and unlinks unix socket paths.
  /// Idempotent; also run by the destructor.
  void stop();

  /// Snapshot of the lifetime accounting.
  ServerStats stats() const;

private:
  void acceptLoop();
  void workerLoop();
  void handleConnection(int Fd);

  ServerOptions Opts;
  std::vector<int> Listeners;
  std::vector<std::string> UnixPaths;
  uint16_t TcpPort = 0;

  mutable std::mutex M;
  std::condition_variable QueueCv;
  std::condition_variable DoneCv;
  std::deque<int> Pending;
  bool Stopping = false;
  bool Started = false;
  ServerStats Stats;

  std::thread Acceptor;
  std::vector<std::thread> WorkerThreads;
};

} // namespace st

#endif // SMARTTRACK_SERVE_SERVER_H
