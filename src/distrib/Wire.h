//===- Wire.h - Unix-socket plumbing for the serving router ----*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The socket layer under `uspec route` (DESIGN.md §14): a Unix-domain
/// listener with a poll-bounded accept, and the one-shot newline-delimited
/// JSON client that the router, `uspec query`, `uspec obs top` and the
/// tests use to talk to a `uspec serve --socket` replica or to the router.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_DISTRIB_WIRE_H
#define USPEC_DISTRIB_WIRE_H

#include <string>

namespace uspec {
namespace distrib {

/// Creates a listening Unix stream socket at \p Path (unlinking a stale
/// socket file first). Returns the fd, or -1 with \p Err filled.
int wireListen(const std::string &Path, std::string *Err = nullptr);

/// Polls \p ListenFd for up to \p PollMs and accepts one connection.
/// Returns the connected fd, -1 on timeout, -2 on a hard error.
int wireAccept(int ListenFd, unsigned PollMs);

/// One-shot newline-delimited JSON round trip against a Unix-socket service
/// (a serve replica or the router): connects, sends \p RequestLine (plus a
/// newline when it lacks one) and reads one response line into \p Response,
/// without its newline. Returns false with \p Err filled on a connect,
/// send or receive error, or when the peer closes without answering.
bool clientRoundTrip(const std::string &SocketPath,
                     const std::string &RequestLine, std::string &Response,
                     std::string *Err = nullptr);

} // namespace distrib
} // namespace uspec

#endif // USPEC_DISTRIB_WIRE_H
