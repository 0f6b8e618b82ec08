//===- Router.h - Consistent-hash serving router ---------------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `uspec route`: a consistent-hash router in front of N `uspec serve`
/// replicas (DESIGN.md §14), self-healing per DESIGN.md §15. Program-carrying
/// verbs (analyze/alias/typestate/taint) are forwarded to the replica owning
/// the program's position on a 64-virtual-node hash ring keyed by
/// hashString(source) — the same source text always lands on the same
/// replica, so the shared-nothing per-replica LRU caches partition the
/// fingerprint keyspace instead of duplicating it. `stats`/`metrics` fan out
/// to every replica (re-probing down ones) and aggregate; `reload`
/// broadcasts for zero-downtime fleet-wide model swaps; a dead replica
/// yields a structured `replica_down` error (transient — `uspec query
/// --retries` retries it) and deterministic failover: the ring walk skips
/// down replicas, so the retry lands on the next live owner. When the
/// router cannot make a socket itself (out of fds or memory) it answers
/// `overloaded`, also transient, and blames no replica.
///
/// Self-healing layers on top of that base:
///
///  - **Supervisor** (`route --supervise` / `--respawn-cmd`): a background
///    thread probes every replica each ProbeIntervalMs; a dead one is
///    respawned via the shell command template (deterministic seeded
///    backoff between attempts, fault sites `router.probe` /
///    `router.respawn`) and re-added to the ring only after a successful
///    stats probe — so key movement on rejoin is exactly the inverse of the
///    removal, restoring the original assignment.
///  - **Request hedging** (`--hedge-ms` / `--hedge-auto`): if the owner has
///    not answered within the hedge delay (fixed, or derived from the
///    observed p95 forward latency), the request is fired at the next live
///    ring owner with `"no_cache":true` (so the non-owner never pollutes
///    its cache partition) and the first successful answer wins — both
///    answers are byte-identical by the determinism contract.
///  - **Warm-cache handoff**: per replica, a small LRU of the hottest
///    forwarded request lines (keys + request text, never response
///    payloads). On rejoin and after a confirmed broadcast reload the
///    router replays them against the replica before it takes traffic, so
///    a recovered or swapped fleet serves warm.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_DISTRIB_ROUTER_H
#define USPEC_DISTRIB_ROUTER_H

#include "support/Telemetry.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace uspec {
namespace service {
struct Request;
} // namespace service
namespace distrib {

struct RouterConfig {
  /// Unix socket paths of the serve replicas, in ring order (the ring is a
  /// pure function of these strings, so a restart reproduces it).
  std::vector<std::string> Replicas;
  /// Ring points per replica. More points smooth the keyspace split;
  /// ownership stays deterministic at any value.
  unsigned VirtualNodes = 64;
  /// Accept-loop poll interval (bounds stop-flag latency), milliseconds.
  unsigned AcceptPollMs = 200;

  /// Starts the supervisor thread in serveUnixSocket: probe every replica
  /// each ProbeIntervalMs, respawn dead ones (when RespawnCmd is set) and
  /// rejoin recovered ones warm.
  bool Supervise = false;
  /// Shell command template used to respawn a dead replica; every
  /// occurrence of `{socket}` is replaced by the replica's socket path.
  /// Empty = probe/rejoin only (externally managed processes).
  std::string RespawnCmd;
  /// Supervisor probe interval, milliseconds.
  unsigned ProbeIntervalMs = 500;
  /// Seed of the deterministic respawn backoff (service::retryDelayMs over
  /// hash(seed, replica index)): the same seed reproduces the same backoff
  /// schedule.
  uint64_t RespawnSeed = 0;

  /// Hedge delay in milliseconds; 0 disables hedging.
  unsigned HedgeMs = 0;
  /// Derive the hedge delay from the observed p95 forward latency once
  /// enough samples accumulated; HedgeMs (or 50 ms when 0) is the fallback
  /// until then.
  bool HedgeAuto = false;

  /// Per-replica hot-key LRU capacity for the warm-cache handoff;
  /// 0 disables the handoff.
  unsigned WarmKeys = 32;
};

/// The router. Health state (down flags) is test-visible: consistent-hash
/// stability under replica removal is a pinned property, not an emergent
/// one.
class Router {
public:
  explicit Router(RouterConfig Config);

  size_t numReplicas() const { return Config.Replicas.size(); }

  /// Ring owner of \p Program ignoring health — the stable assignment.
  size_t ownerOf(std::string_view Program) const;

  /// Ring owner skipping down replicas (deterministic failover order).
  /// Returns numReplicas() when every replica is down.
  size_t liveOwnerOf(std::string_view Program) const;

  /// First live ring owner of \p Program that is not \p Exclude — where a
  /// hedged request goes. Returns numReplicas() when there is none.
  size_t nextLiveOwnerAfter(std::string_view Program, size_t Exclude) const;

  void markDown(size_t Replica);
  void markUp(size_t Replica);
  bool isDown(size_t Replica) const;

  /// One supervisor pass: probe every replica (fault site `router.probe`),
  /// rejoin recovered ones (warm replay, then markUp), and respawn dead
  /// ones past their backoff deadline (fault site `router.respawn`).
  /// Called periodically by the supervisor thread; public so tests drive
  /// single deterministic passes.
  void superviseTick();

  /// Probe \p Replica once; on success replay its warm set and mark it up
  /// (the ring re-add discipline: never take traffic cold). Returns true
  /// if the replica is up afterwards.
  bool recoverReplica(size_t Replica);

  /// Current hedge delay in milliseconds (0 = hedging off). Fixed
  /// (HedgeMs) or p95-derived (HedgeAuto).
  unsigned hedgeDelayMs() const;

  /// Handles one request line, returning one response line (no trailing
  /// newline). Forwarding, fan-out and broadcast happen synchronously.
  std::string handleLine(const std::string &Line);

  /// The router's own counters as a JSON object.
  std::string statsJson() const;

  /// Serves handleLine() through a service::LineServer on \p Path until
  /// \p StopFlag is set or a `shutdown` request (also broadcast to the
  /// replicas) arrives. Starts the supervisor thread when Config.Supervise.
  /// \p OnListening, when set, runs once \p Path is bound. Returns 0, or 1
  /// when \p Path cannot be bound.
  int serveUnixSocket(const std::string &Path, const volatile int *StopFlag,
                      const std::function<void()> &OnListening = nullptr);

  uint64_t hedgedCount() const { return Hedged.load(); }
  uint64_t hedgedWinsCount() const { return HedgedWins.load(); }
  uint64_t respawnsCount() const { return Respawns.load(); }
  uint64_t rejoinsCount() const { return Rejoins.load(); }
  uint64_t warmReplaysCount() const { return WarmReplays.load(); }

private:
  struct RingPoint {
    uint64_t Point;
    uint32_t Replica;
  };

  /// One remembered hot request: the dedup key (hash of program + options)
  /// and the raw request line to replay. Lines, not payloads: the replica
  /// recomputes the answer, the router never stores responses.
  struct HotEntry {
    uint64_t Key;
    std::string Line;
  };
  /// Per-replica warm set; mutex-guarded, tiny (Config.WarmKeys entries).
  struct WarmSet {
    std::mutex Mu;
    std::list<HotEntry> Lru; ///< Front = hottest.
  };

  /// Per-replica supervisor state; guarded by SupMu.
  struct SupState {
    unsigned Attempts = 0; ///< Respawn attempts since the last rejoin.
    std::chrono::steady_clock::time_point NextRespawn{};
  };

  size_t ringBegin(std::string_view Program) const;
  std::string fanOut(const std::string &Id, std::string_view TraceId,
                     bool Metrics);
  std::string broadcastReload(const std::string &Line, const std::string &Id,
                              std::string_view TraceId);
  std::string forward(const service::Request &Req, const std::string &Line);
  std::string forwardHedged(const service::Request &Req,
                            const std::string &Line, size_t Primary,
                            size_t Secondary, unsigned DelayMs);
  /// Remembers \p Line in \p Replica's warm set (LRU, deduped by key).
  void recordHotLine(size_t Replica, const service::Request &Req,
                     const std::string &Line);
  /// Replays \p Replica's warm set against it; returns replayed count.
  size_t replayWarmKeys(size_t Replica);
  /// markDown plus a `replica_down` event on the up→down transition only
  /// (\p Cause says which path noticed: probe, forward, hedge...).
  void noteReplicaDown(size_t Replica, const char *Cause);
  /// The ring re-add discipline in one place: warm replay, markUp, rejoin
  /// counter — each step mirrored into the event log (\p Via = which path
  /// recovered it: supervisor probe, fan-out probe, recoverReplica).
  void rejoinReplica(size_t Replica, const char *Via);
  /// Double-forks `/bin/sh -c <RespawnCmd with {socket} substituted>` so
  /// the replica is orphaned to init (no zombies, no SIGCHLD handler).
  void spawnReplica(size_t Replica);

  RouterConfig Config;
  std::vector<RingPoint> Ring;
  std::unique_ptr<std::atomic<bool>[]> Down;
  std::atomic<bool> StopRequested{false};

  /// Process start, wall clock (Unix seconds) for the
  /// uspec_process_start_time_seconds aggregation and steady clock for
  /// uptime_s in statsJson().
  double StartTimeUnix = 0;
  std::chrono::steady_clock::time_point StartSteady;

  std::vector<std::unique_ptr<WarmSet>> Warm; ///< One per replica.
  std::mutex SupMu;
  std::vector<SupState> Sup; ///< One per replica; guarded by SupMu.

  /// Forward latency of answered program-carrying requests (the hedging
  /// p95 source).
  telemetry::ShardedHistogram ForwardLatency;

  // Counters (rendered by statsJson and the metrics aggregation).
  mutable std::atomic<uint64_t> Requests{0};
  mutable std::atomic<uint64_t> Forwarded{0};
  mutable std::atomic<uint64_t> FanOuts{0};
  mutable std::atomic<uint64_t> Broadcasts{0};
  mutable std::atomic<uint64_t> ReplicaDownErrors{0};
  mutable std::atomic<uint64_t> BadRequests{0};
  mutable std::atomic<uint64_t> Hedged{0};      ///< Hedge requests fired.
  mutable std::atomic<uint64_t> HedgedWins{0};  ///< Hedge answered first.
  mutable std::atomic<uint64_t> Respawns{0};    ///< Respawn attempts.
  mutable std::atomic<uint64_t> Rejoins{0};     ///< Down→up transitions.
  mutable std::atomic<uint64_t> WarmReplays{0}; ///< Hot lines replayed.
  mutable std::atomic<uint64_t> ProbeFailures{0};
};

} // namespace distrib
} // namespace uspec

#endif // USPEC_DISTRIB_ROUTER_H
