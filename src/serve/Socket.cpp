//===- serve/Socket.cpp - POSIX socket plumbing for st-serve --------------===//
//
// Part of the SmartTrack reproduction, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "serve/Socket.h"

#include <cerrno>
#include <cstring>

#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

using namespace st;

size_t FdByteSource::read(char *Buf, size_t Max) {
  if (HadError || Max == 0)
    return 0;
  for (;;) {
    ssize_t N = ::recv(Fd, Buf, Max, 0);
    if (N > 0)
      return static_cast<size_t>(N);
    if (N == 0)
      return 0; // orderly peer shutdown
    if (errno == EINTR)
      continue;
    HadError = true;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      ErrorMsg = "socket read timed out";
    else
      ErrorMsg = std::string("socket read failed: ") + std::strerror(errno);
    return 0;
  }
}

bool FdByteSource::error(std::string *Msg) const {
  if (HadError && Msg)
    *Msg = ErrorMsg;
  return HadError;
}

bool FdByteSink::write(const char *Buf, size_t N) {
  if (Failed)
    return false;
  while (N) {
    ssize_t W = ::send(Fd, Buf, N, MSG_NOSIGNAL);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      Failed = true;
      return false;
    }
    Buf += W;
    N -= static_cast<size_t>(W);
  }
  return true;
}

bool st::parseServeAddress(std::string_view Text, ServeAddress &Out,
                           std::string *Err) {
  auto Fail = [&](const char *Msg) {
    if (Err)
      *Err = std::string(Msg) + ": '" + std::string(Text) + "'";
    return false;
  };
  if (Text.rfind("unix:", 0) == 0) {
    Out.IsUnix = true;
    Out.Path = std::string(Text.substr(5));
    if (Out.Path.empty())
      return Fail("empty unix socket path");
    if (Out.Path.size() >= sizeof(sockaddr_un{}.sun_path))
      return Fail("unix socket path too long");
    return true;
  }
  std::string_view Rest = Text;
  if (Rest.rfind("tcp:", 0) == 0)
    Rest = Rest.substr(4);
  size_t Colon = Rest.rfind(':');
  if (Colon == std::string_view::npos || Colon == 0 ||
      Colon + 1 == Rest.size())
    return Fail("expected unix:PATH or HOST:PORT");
  Out.IsUnix = false;
  Out.Host = std::string(Rest.substr(0, Colon));
  std::string_view PortText = Rest.substr(Colon + 1);
  uint32_t Port = 0;
  for (char C : PortText) {
    if (C < '0' || C > '9')
      return Fail("malformed port");
    Port = Port * 10 + static_cast<uint32_t>(C - '0');
    if (Port > 65535)
      return Fail("port out of range");
  }
  Out.Port = static_cast<uint16_t>(Port);
  return true;
}

namespace {

bool sysFail(std::string *Err, const char *What) {
  if (Err)
    *Err = std::string(What) + ": " + std::strerror(errno);
  return false;
}

} // namespace

int st::listenUnix(const std::string &Path, std::string *Err) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    if (Err)
      *Err = "unix socket path too long: " + Path;
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return sysFail(Err, "socket"), -1;
  ::unlink(Path.c_str()); // a stale socket file would fail the bind
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Fd, 64) < 0) {
    sysFail(Err, "bind/listen");
    closeFd(Fd);
    return -1;
  }
  return Fd;
}

int st::listenTcp(const std::string &Host, uint16_t Port, std::string *Err) {
  addrinfo Hints;
  std::memset(&Hints, 0, sizeof(Hints));
  Hints.ai_family = AF_UNSPEC;
  Hints.ai_socktype = SOCK_STREAM;
  Hints.ai_flags = AI_PASSIVE;
  addrinfo *Res = nullptr;
  std::string PortText = std::to_string(Port);
  int RC = ::getaddrinfo(Host.empty() ? nullptr : Host.c_str(),
                         PortText.c_str(), &Hints, &Res);
  if (RC != 0) {
    if (Err)
      *Err = std::string("getaddrinfo: ") + ::gai_strerror(RC);
    return -1;
  }
  int Fd = -1;
  for (addrinfo *AI = Res; AI; AI = AI->ai_next) {
    Fd = ::socket(AI->ai_family, AI->ai_socktype, AI->ai_protocol);
    if (Fd < 0)
      continue;
    int One = 1;
    ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    if (::bind(Fd, AI->ai_addr, AI->ai_addrlen) == 0 &&
        ::listen(Fd, 64) == 0)
      break;
    closeFd(Fd);
    Fd = -1;
  }
  ::freeaddrinfo(Res);
  if (Fd < 0)
    sysFail(Err, "bind/listen");
  return Fd;
}

uint16_t st::boundTcpPort(int Fd) {
  sockaddr_storage Addr;
  socklen_t Len = sizeof(Addr);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) != 0)
    return 0;
  if (Addr.ss_family == AF_INET)
    return ntohs(reinterpret_cast<sockaddr_in *>(&Addr)->sin_port);
  if (Addr.ss_family == AF_INET6)
    return ntohs(reinterpret_cast<sockaddr_in6 *>(&Addr)->sin6_port);
  return 0;
}

int st::connectServeAddress(const ServeAddress &A, std::string *Err) {
  if (A.IsUnix) {
    sockaddr_un Addr;
    std::memset(&Addr, 0, sizeof(Addr));
    Addr.sun_family = AF_UNIX;
    if (A.Path.size() >= sizeof(Addr.sun_path)) {
      if (Err)
        *Err = "unix socket path too long: " + A.Path;
      return -1;
    }
    std::memcpy(Addr.sun_path, A.Path.c_str(), A.Path.size() + 1);
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return sysFail(Err, "socket"), -1;
    if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
        0) {
      sysFail(Err, "connect");
      closeFd(Fd);
      return -1;
    }
    return Fd;
  }
  addrinfo Hints;
  std::memset(&Hints, 0, sizeof(Hints));
  Hints.ai_family = AF_UNSPEC;
  Hints.ai_socktype = SOCK_STREAM;
  addrinfo *Res = nullptr;
  std::string PortText = std::to_string(A.Port);
  int RC = ::getaddrinfo(A.Host.c_str(), PortText.c_str(), &Hints, &Res);
  if (RC != 0) {
    if (Err)
      *Err = std::string("getaddrinfo: ") + ::gai_strerror(RC);
    return -1;
  }
  int Fd = -1;
  for (addrinfo *AI = Res; AI; AI = AI->ai_next) {
    Fd = ::socket(AI->ai_family, AI->ai_socktype, AI->ai_protocol);
    if (Fd < 0)
      continue;
    if (::connect(Fd, AI->ai_addr, AI->ai_addrlen) == 0)
      break;
    closeFd(Fd);
    Fd = -1;
  }
  ::freeaddrinfo(Res);
  if (Fd < 0)
    sysFail(Err, "connect");
  return Fd;
}

void st::closeFd(int Fd) {
  if (Fd >= 0)
    ::close(Fd);
}

void st::setRecvTimeout(int Fd, double Seconds) {
  if (Seconds <= 0)
    return;
  timeval Tv;
  Tv.tv_sec = static_cast<time_t>(Seconds);
  Tv.tv_usec = static_cast<suseconds_t>(
      (Seconds - static_cast<double>(Tv.tv_sec)) * 1e6);
  if (Tv.tv_sec == 0 && Tv.tv_usec == 0)
    Tv.tv_usec = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
}
