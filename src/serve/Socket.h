//===- serve/Socket.h - POSIX socket plumbing for st-serve ------*- C++ -*-===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The thin POSIX layer under the st-serve service: ByteSource/ByteSink
/// adapters over a connected file descriptor (so the whole streaming
/// pipeline — frame codec, trace decoders, NDJSON sinks — runs unchanged
/// over a socket), plus address parsing and listener/connect helpers for
/// the two supported transports:
///
///   unix:/path/to.sock    unix-domain stream socket
///   tcp:host:port         TCP (host may be a name or numeric address)
///   host:port             shorthand for tcp:
///
//===----------------------------------------------------------------------===//

#ifndef SMARTTRACK_SERVE_SOCKET_H
#define SMARTTRACK_SERVE_SOCKET_H

#include "support/Bytes.h"

#include <cstdint>
#include <string>

namespace st {

/// ByteSource over a connected socket/pipe fd (not owned). Retries EINTR;
/// a recv timeout (SO_RCVTIMEO) or reset latches as an error with a
/// description, a clean peer shutdown is end of stream.
class FdByteSource : public ByteSource {
public:
  explicit FdByteSource(int Fd) : Fd(Fd) {}

  size_t read(char *Buf, size_t Max) override;
  bool error(std::string *Msg = nullptr) const override;

private:
  int Fd;
  bool HadError = false;
  std::string ErrorMsg;
};

/// ByteSink over a connected socket/pipe fd (not owned). Short writes are
/// completed in a loop; SIGPIPE is suppressed (MSG_NOSIGNAL) so a client
/// that hung up mid-report surfaces as a write failure, not a signal.
class FdByteSink : public ByteSink {
public:
  explicit FdByteSink(int Fd) : Fd(Fd) {}

  bool write(const char *Buf, size_t N) override;

private:
  int Fd;
  bool Failed = false;
};

/// A parsed serve address.
struct ServeAddress {
  bool IsUnix = false;
  /// Unix-domain socket path (IsUnix).
  std::string Path;
  /// TCP endpoint (!IsUnix).
  std::string Host;
  uint16_t Port = 0;
};

/// Parses "unix:PATH", "tcp:HOST:PORT", or "HOST:PORT". Returns false
/// with a description in \p Err on malformed input.
bool parseServeAddress(std::string_view Text, ServeAddress &Out,
                       std::string *Err);

/// Binds and listens on a unix-domain socket at \p Path (unlinking a
/// stale socket file first). Returns the listening fd, or -1 with \p Err
/// set.
int listenUnix(const std::string &Path, std::string *Err);

/// Binds and listens on TCP \p Host:\p Port (port 0 picks a free port).
/// Returns the listening fd, or -1 with \p Err set.
int listenTcp(const std::string &Host, uint16_t Port, std::string *Err);

/// The locally bound port of a listening TCP fd (after port-0 binds).
uint16_t boundTcpPort(int Fd);

/// Connects to \p Addr; returns the connected fd, or -1 with \p Err set.
int connectServeAddress(const ServeAddress &Addr, std::string *Err);

/// close() tolerant of EINTR and -1.
void closeFd(int Fd);

/// The largest receive timeout or wall-time budget the CLIs accept, in
/// seconds (about 11.6 days): far below where the steady_clock deadline
/// arithmetic or the timeval conversion would overflow.
inline constexpr double MaxTimeoutSeconds = 1e6;

/// Sets \p Fd's receive timeout (SO_RCVTIMEO). A positive \p Seconds
/// rounds up to at least 1 us, so it never turns into "no timeout";
/// Seconds <= 0 leaves the socket without one. \p Seconds must be at
/// most MaxTimeoutSeconds.
void setRecvTimeout(int Fd, double Seconds);

} // namespace st

#endif // SMARTTRACK_SERVE_SOCKET_H
