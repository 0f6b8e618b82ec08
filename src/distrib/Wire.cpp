//===- Wire.cpp - Unix-socket plumbing for the serving router ------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "distrib/Wire.h"

#include <cerrno>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace uspec;
using namespace uspec::distrib;

namespace {

void fillErrno(std::string *Err, const std::string &What) {
  if (Err)
    *Err = What + ": " + std::strerror(errno);
}

/// Fills \p Sa for \p Path; false (with \p Err filled) when it does not fit.
bool unixAddress(const std::string &Path, sockaddr_un &Sa, std::string *Err) {
  Sa = sockaddr_un{};
  Sa.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Sa.sun_path)) {
    if (Err)
      *Err = "socket path too long: " + Path;
    return false;
  }
  std::memcpy(Sa.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

bool sendAll(int Fd, const char *Data, size_t Len, std::string *Err) {
  while (Len > 0) {
    ssize_t N = ::send(Fd, Data, Len, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      fillErrno(Err, "send");
      return false;
    }
    Data += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

} // namespace

int uspec::distrib::wireListen(const std::string &Path, std::string *Err) {
  sockaddr_un Sa;
  if (!unixAddress(Path, Sa, Err))
    return -1;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    fillErrno(Err, "socket");
    return -1;
  }
  ::unlink(Path.c_str()); // discard a stale socket from a dead process
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Sa), sizeof(Sa)) < 0 ||
      ::listen(Fd, 64) < 0) {
    fillErrno(Err, "bind/listen unix:" + Path);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int uspec::distrib::wireAccept(int ListenFd, unsigned PollMs) {
  pollfd Pfd{ListenFd, POLLIN, 0};
  int Ready;
  do {
    Ready = ::poll(&Pfd, 1, static_cast<int>(PollMs));
  } while (Ready < 0 && errno == EINTR);
  if (Ready < 0)
    return -2;
  if (Ready == 0)
    return -1;
  int Fd;
  do {
    Fd = ::accept(ListenFd, nullptr, nullptr);
  } while (Fd < 0 && errno == EINTR);
  return Fd < 0 ? -2 : Fd;
}

bool uspec::distrib::clientRoundTrip(const std::string &SocketPath,
                                     const std::string &RequestLine,
                                     std::string &Response, std::string *Err) {
  sockaddr_un Sa;
  if (!unixAddress(SocketPath, Sa, Err))
    return false;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    fillErrno(Err, "socket");
    return false;
  }
  int Rc;
  do {
    Rc = ::connect(Fd, reinterpret_cast<sockaddr *>(&Sa), sizeof(Sa));
  } while (Rc < 0 && errno == EINTR);
  if (Rc < 0) {
    fillErrno(Err, "connect unix:" + SocketPath);
    ::close(Fd);
    return false;
  }
  std::string Line = RequestLine;
  if (Line.empty() || Line.back() != '\n')
    Line.push_back('\n');
  if (!sendAll(Fd, Line.data(), Line.size(), Err)) {
    ::close(Fd);
    return false;
  }
  Response.clear();
  char Buf[4096];
  for (;;) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      fillErrno(Err, "recv");
      ::close(Fd);
      return false;
    }
    if (N == 0)
      break;
    Response.append(Buf, static_cast<size_t>(N));
    size_t Newline = Response.find('\n');
    if (Newline != std::string::npos) {
      Response.resize(Newline);
      break;
    }
  }
  ::close(Fd);
  if (Response.empty()) {
    if (Err)
      *Err = "empty response from " + SocketPath;
    return false;
  }
  return true;
}
