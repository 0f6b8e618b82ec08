//===- ConnectionThreads.h - Connection threads, joined as they end -*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The connection threads of an accept loop (`serve --socket`, `route`).
/// Each thread serves one connection and marks itself finished; the loop
/// calls reapFinished() on every wake-up of its accept poll, so a
/// long-running server holds a thread stack per *open* connection, not one
/// per connection it ever accepted.
///
/// Used from the accept thread only; the connection threads touch nothing
/// but their own finished flag.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_SUPPORT_CONNECTIONTHREADS_H
#define USPEC_SUPPORT_CONNECTIONTHREADS_H

#include <atomic>
#include <list>
#include <thread>
#include <utility>

namespace uspec {

class ConnectionThreads {
public:
  ConnectionThreads() = default;
  ConnectionThreads(const ConnectionThreads &) = delete;
  ConnectionThreads &operator=(const ConnectionThreads &) = delete;
  ~ConnectionThreads() { joinAll(); }

  /// Runs \p F on a new thread.
  template <typename Fn> void spawn(Fn &&F) {
    // List nodes never move, so the thread may hold its entry.
    Entry &E = Entries.emplace_back();
    try {
      E.Thread = std::thread([&E, F = std::forward<Fn>(F)]() mutable {
        F();
        E.Finished.store(true, std::memory_order_release);
      });
    } catch (...) {
      Entries.pop_back(); // no thread started: nothing to join
      throw;
    }
  }

  /// Joins every thread that has finished.
  void reapFinished() {
    for (auto It = Entries.begin(); It != Entries.end();) {
      if (!It->Finished.load(std::memory_order_acquire)) {
        ++It;
        continue;
      }
      It->Thread.join();
      It = Entries.erase(It);
    }
  }

  /// Joins every thread, finished or not.
  void joinAll() {
    for (Entry &E : Entries)
      E.Thread.join();
    Entries.clear();
  }

private:
  struct Entry {
    std::thread Thread;
    std::atomic<bool> Finished{false};
  };
  std::list<Entry> Entries;
};

} // namespace uspec

#endif // USPEC_SUPPORT_CONNECTIONTHREADS_H
