//===- LineServer.cpp - Newline-delimited JSON over Unix sockets ----------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/LineServer.h"

#include "service/Protocol.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <exception>
#include <list>
#include <mutex>
#include <string_view>
#include <system_error>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace uspec;
using namespace uspec::service;

namespace {

/// Fills \p Err with \p What and errno's text; returns false.
bool failErrno(std::string *Err, const std::string &What) {
  if (Err)
    *Err = What + ": " + std::strerror(errno);
  return false;
}

/// Fills \p Sa with the address of \p Path and returns a new Unix stream
/// socket (\p Flags as for socket(2)); -1 with \p Err and errno set when
/// the path does not fit (ENAMETOOLONG) or no socket can be made.
int unixSocket(const std::string &Path, int Flags, sockaddr_un &Sa,
               std::string *Err) {
  Sa = sockaddr_un{};
  Sa.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Sa.sun_path)) {
    errno = ENAMETOOLONG;
    if (Err)
      *Err = "socket path too long: " + Path;
    return -1;
  }
  std::memcpy(Sa.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | Flags, 0);
  if (Fd < 0)
    failErrno(Err, "socket");
  return Fd;
}

/// Writes all of \p Data to \p Fd; a vanished peer must not SIGPIPE us.
bool sendAll(int Fd, std::string_view Data, std::string *Err = nullptr) {
  while (!Data.empty()) {
    ssize_t N = ::send(Fd, Data.data(), Data.size(), MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0)
      return failErrno(Err, "send");
    Data.remove_prefix(static_cast<size_t>(N));
  }
  return true;
}

/// Serves one connection until EOF, a failed send or an oversized line.
void serveConnection(int Fd, const LineHandler &Handle) {
  std::string Buffer;
  size_t Scanned = 0; // Buffer[0, Scanned) holds no unhandled newline
  char Chunk[65536];
  for (;;) {
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return;
    Buffer.append(Chunk, static_cast<size_t>(N));
    size_t Start = 0; // first byte of the line being framed
    while (const char *Nl = static_cast<const char *>(std::memchr(
               Buffer.data() + Scanned, '\n', Buffer.size() - Scanned))) {
      size_t End = static_cast<size_t>(Nl - Buffer.data());
      size_t Len = End - Start;
      if (Len && Buffer[End - 1] == '\r')
        --Len;
      std::string Line(Buffer, Start, Len);
      Start = Scanned = End + 1;
      if (!Line.empty() && !sendAll(Fd, Handle(std::move(Line)) + '\n'))
        return;
    }
    Buffer.erase(0, Start);
    Scanned = Buffer.size();
    // A line past the cap can never frame correctly again: answer, hang up.
    if (Buffer.size() > MaxRequestBytes) {
      std::string Why = "request line exceeds the " +
                        std::to_string(MaxRequestBytes) + "-byte limit";
      sendAll(Fd, errorResponse("", "oversized", Why) + '\n');
      return;
    }
  }
}

/// The connection threads of one accept loop. Only the accept thread
/// changes the list, and its nodes never move, so a thread may hold its
/// entry.
class Connections {
  struct Entry {
    std::thread Thread;
    int Fd = -1; ///< Guarded by FdMutex; -1 once the thread closed it.
    std::atomic<bool> Finished{false};
  };
  std::mutex FdMutex;
  std::list<Entry> Entries;

public:
  ~Connections() { shutdownAndJoin(); }

  /// Serves \p Fd on a new thread; false (\p Fd closed) if none starts.
  bool spawn(int Fd, const LineHandler &Handle) {
    Entry &E = Entries.emplace_back();
    E.Fd = Fd;
    try {
      E.Thread = std::thread([this, &E, Fd, &Handle] {
        try {
          serveConnection(Fd, Handle);
        } catch (const std::exception &Ex) { // lose the connection only
          std::fprintf(stderr, "uspec: connection dropped: %s\n", Ex.what());
        }
        // Forget the fd as it is closed: accept() may reuse the number.
        std::lock_guard<std::mutex> Lock(FdMutex);
        E.Fd = -1;
        ::close(Fd);
        E.Finished.store(true, std::memory_order_release);
      });
      return true;
    } catch (const std::system_error &) {
      Entries.pop_back();
      ::close(Fd);
      return false;
    }
  }

  void joinFinished() {
    for (auto It = Entries.begin(); It != Entries.end();) {
      if (It->Finished.load(std::memory_order_acquire)) {
        It->Thread.join();
        It = Entries.erase(It);
      } else {
        ++It;
      }
    }
  }

  /// Wakes every blocked reader (its read sees EOF), then joins all.
  void shutdownAndJoin() {
    {
      std::lock_guard<std::mutex> Lock(FdMutex);
      for (Entry &E : Entries)
        if (E.Fd >= 0)
          ::shutdown(E.Fd, SHUT_RD);
    }
    for (Entry &E : Entries)
      E.Thread.join();
    Entries.clear();
  }
};

} // namespace

LineServer::~LineServer() {
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ::unlink(Path.c_str());
  }
}

bool LineServer::bind(const std::string &SocketPath) {
  std::string Err;
  sockaddr_un Sa;
  // Non-blocking: an accept() after the connection vanished between poll
  // and accept returns EAGAIN instead of blocking the stop check.
  int Fd = unixSocket(SocketPath, SOCK_NONBLOCK, Sa, &Err);
  if (Fd >= 0) {
    ::unlink(SocketPath.c_str()); // a stale socket from a dead process
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&Sa), sizeof(Sa)) == 0 &&
        ::listen(Fd, 64) == 0) {
      Path = SocketPath;
      ListenFd = Fd;
      return true;
    }
    failErrno(&Err, "cannot listen on unix:" + SocketPath);
    ::close(Fd);
  }
  std::fprintf(stderr, "error: %s\n", Err.c_str());
  return false;
}

void LineServer::serve(unsigned PollMs, const std::function<bool()> &Stop,
                       const LineHandler &Handle,
                       const std::function<void()> &OnWake) {
  Connections Conns;
  while (!Stop()) {
    if (OnWake)
      OnWake();
    pollfd Pfd{ListenFd, POLLIN, 0};
    int Ready = ::poll(&Pfd, 1, static_cast<int>(PollMs));
    Conns.joinFinished();
    if (Ready == 0 || (Ready < 0 && errno == EINTR))
      continue; // timeout or signal: re-check the stop predicate
    int Fd = Ready > 0 ? ::accept(ListenFd, nullptr, nullptr) : -1;
    if (Fd >= 0 && Conns.spawn(Fd, Handle))
      continue;
    if (Fd < 0 &&
        (errno == EINTR || errno == EAGAIN || errno == ECONNABORTED))
      continue; // the pending connection went away
    // Out of fds or memory, or no thread to serve the connection. The
    // listener stays readable, so retrying at once would spin: wait one
    // interval (a signal ends the wait early).
    ::poll(nullptr, 0, static_cast<int>(PollMs));
  }
  ::close(ListenFd);
  ListenFd = -1;
  ::unlink(Path.c_str());
  Conns.shutdownAndJoin();
}

bool service::clientRoundTrip(const std::string &SocketPath,
                              const std::string &RequestLine,
                              std::string &Response, std::string *Err,
                              bool *LocalFailure) {
  sockaddr_un Sa;
  int Fd = unixSocket(SocketPath, 0, Sa, Err);
  if (LocalFailure)
    *LocalFailure = Fd < 0 && (errno == EMFILE || errno == ENFILE ||
                               errno == ENOBUFS || errno == ENOMEM);
  if (Fd < 0)
    return false;
  struct Closer {
    int Fd;
    ~Closer() { ::close(Fd); }
  } CloseFd{Fd};
  int Rc;
  do
    Rc = ::connect(Fd, reinterpret_cast<sockaddr *>(&Sa), sizeof(Sa));
  while (Rc < 0 && errno == EINTR);
  if (Rc < 0)
    return failErrno(Err, "connect unix:" + SocketPath);
  bool Framed = !RequestLine.empty() && RequestLine.back() == '\n';
  if (!sendAll(Fd, Framed ? RequestLine : RequestLine + '\n', Err))
    return false;
  Response.clear();
  char Chunk[65536];
  for (;;) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0)
      return failErrno(Err, "recv");
    if (N == 0)
      break;
    // Only the new bytes are scanned for the newline.
    auto *Nl = static_cast<const char *>(
        std::memchr(Chunk, '\n', static_cast<size_t>(N)));
    Response.append(Chunk, Nl ? static_cast<size_t>(Nl - Chunk)
                              : static_cast<size_t>(N));
    if (Nl)
      break;
  }
  if (Response.empty()) {
    if (Err)
      *Err = "empty response from " + SocketPath;
    return false;
  }
  return true;
}
