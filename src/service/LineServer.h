//===- LineServer.h - Newline-delimited JSON over Unix sockets -*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one transport of the request protocol (DESIGN.md §9). `uspec serve
/// --socket` and `uspec route` serve through a LineServer; the router's
/// forwards, `uspec query`, `uspec obs top` and the tests use
/// clientRoundTrip(). Only the stop predicate ends a LineServer's accept
/// loop: after a poll or accept error (EMFILE, say) it waits one poll
/// interval and retries.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_SERVICE_LINESERVER_H
#define USPEC_SERVICE_LINESERVER_H

#include <functional>
#include <string>

namespace uspec {
namespace service {

/// Answers one request line (framing removed) with one response line
/// (without its newline). Called on the connection's thread.
using LineHandler = std::function<std::string(std::string Line)>;

class LineServer {
public:
  LineServer() = default;
  LineServer(const LineServer &) = delete;
  LineServer &operator=(const LineServer &) = delete;
  /// Closes and unlinks a listener that serve() never ran on.
  ~LineServer();

  /// Binds and listens on a Unix stream socket at \p Path, unlinking a
  /// stale socket file first. On failure prints `error: ` and the reason,
  /// which names the path, to stderr and returns false.
  bool bind(const std::string &Path);

  /// Serves connections until \p Stop returns true, each on its own
  /// thread (joined on every wake-up once finished): newline framing under
  /// MaxRequestBytes, `\r` stripped, blank lines skipped, one request in
  /// flight per connection. Then closes and unlinks the listener, SHUT_RDs
  /// every open connection and joins. \p Stop is checked at least every
  /// \p PollMs; \p OnWake, when set, runs on the accept thread before every
  /// poll.
  void serve(unsigned PollMs, const std::function<bool()> &Stop,
             const LineHandler &Handle,
             const std::function<void()> &OnWake = nullptr);

private:
  std::string Path;
  int ListenFd = -1;
};

/// One-shot round trip: connects to \p SocketPath, sends \p RequestLine
/// (plus a newline when it lacks one) and reads one response line into
/// \p Response, without its newline. Returns false with \p Err filled on a
/// connect, send or receive error, or when the peer closes without
/// answering. \p LocalFailure, when given, tells whether a failure was
/// this process's own: no socket could be made (EMFILE, ENFILE, ENOBUFS,
/// ENOMEM), so the peer was never tried.
bool clientRoundTrip(const std::string &SocketPath,
                     const std::string &RequestLine, std::string &Response,
                     std::string *Err = nullptr, bool *LocalFailure = nullptr);

} // namespace service
} // namespace uspec

#endif // USPEC_SERVICE_LINESERVER_H
