//===- Server.h - Resident alias-query server ------------------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The long-running query engine behind `uspec serve`. One server loads one
/// specification set (from a USPB artifact or spec text) and then answers
/// protocol requests (service/Protocol.h) until drained.
///
/// Shape:
///
///   submit(line) ──▶ bounded admission queue ──▶ worker pool ──▶ future
///
///  - Admission is non-blocking with explicit backpressure: a full queue
///    answers immediately with a structured `overloaded` error instead of
///    blocking the producer or growing without bound.
///  - Workers (plain std::threads, same idiom as support/ParallelFor.h) pop
///    requests, resolve them against the sharded fingerprint-keyed
///    AnalysisCache, and fulfil the response promise.
///  - Responses for a given (program, spec set, options) are byte-identical
///    to `uspec analyze --json` and independent of worker count: every
///    worker runs the same deterministic engine over private state, and
///    cache hits return payloads that same engine produced earlier.
///  - `shutdown` (or SIGTERM in the serve loops) starts a graceful drain:
///    queued and in-flight requests complete, later submissions get a
///    `shutting_down` error, then workers join.
///
/// Transports: serveStream (newline-delimited JSON over any iostream pair —
/// `uspec serve` uses stdin/stdout) and serveUnixSocket (a LineServer whose
/// handler is submit(line).get()). Both are thin shells over submit().
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_SERVICE_SERVER_H
#define USPEC_SERVICE_SERVER_H

#include "service/Cache.h"
#include "service/Metrics.h"
#include "service/Protocol.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace uspec {
namespace service {

struct ServerConfig {
  /// Worker threads; 0 = hardware concurrency.
  unsigned Workers = 0;
  /// Admission queue bound; a submit() beyond this answers `overloaded`.
  size_t QueueCapacity = 128;
  /// Result cache budget in analyzed programs.
  size_t CacheCapacity = 256;
  unsigned CacheShards = 8;
  /// Default per-request deadline in ms (`serve --request-timeout`);
  /// 0 = none. A request's own `deadline_ms` takes precedence. Expired
  /// requests are answered with a structured `deadline_exceeded` error by
  /// the watchdog (or by the worker, whichever notices first) — the worker
  /// is never killed.
  unsigned RequestTimeoutMs = 0;
  /// Step budget per request for the bounded analysis (0 = unlimited);
  /// exhaustion degrades to a sound ⊤ payload with `"bounded":true`, which
  /// is never inserted into the cache.
  uint64_t MaxStepsPerRequest = 0;
  /// Accept-loop poll interval for serveUnixSocket, which bounds how long
  /// a drain/SIGTERM can go unnoticed while no client connects.
  unsigned AcceptPollMs = 200;
  /// Enables the test-only `test_block` verb (see Protocol.h). Tests use it
  /// to park workers deterministically and observe backpressure.
  bool EnableTestVerbs = false;
  /// Slow-request log threshold (`serve --slow-ms`): a request whose
  /// admission-to-answer wall time reaches this many milliseconds is logged
  /// as one structured `uspec-slow ...` line; 0 disables the log.
  unsigned SlowRequestMs = 0;
  /// Slow-request log destination; nullptr = stderr. Tests point this at a
  /// string stream.
  std::ostream *SlowLog = nullptr;
  /// Path the model was loaded from (artifact or spec text). The `reload`
  /// verb without an explicit "path", and the SIGHUP handler, re-read this
  /// file; "" disables path-less reloads.
  std::string ModelPath;
};

/// One immutable model generation: the spec set requests are answered
/// under, plus the identity that keys the analysis cache and the
/// `model_generation` metric. Swapped wholesale by reload — a request takes
/// one shared snapshot at dispatch and never sees a torn mix of two
/// generations.
struct ModelState {
  ServiceSpecs Specs;
  /// Journal generation of the artifact (JournalLineage::Generation, else
  /// CorpusManifest::Generation; 0 for plain spec text).
  uint64_t Generation = 0;
  /// hashString over the canonical spec text — mixed into every cache key,
  /// so entries computed under another generation can never answer this
  /// one (cache non-bleed without an explicit flush).
  uint64_t Checksum = 0;
  /// Where the model came from (path or "inline"), for logs and errors.
  std::string Source;

  /// Stamps Checksum from the canonical text.
  static ModelState make(ServiceSpecs Specs, uint64_t Generation,
                         std::string Source);
};

/// Loads a ModelState from \p Path: USPB artifacts (checksum-validated by
/// the container open; generation from the lineage/manifest) or canonical
/// spec text. Fault site `service.reload.load` fires before the read (the
/// hot-swap failure-injection point). Returns nullopt and fills \p Err on
/// any failure.
std::optional<ModelState> loadModelState(const std::string &Path,
                                         std::string *Err);

class Server {
public:
  /// \p Specs is the canonical spec set (empty = API-unaware service);
  /// wrapped into an unversioned (generation 0) ModelState.
  Server(ServerConfig Config, ServiceSpecs Specs);

  /// Full form: serve \p Model, hot-swappable via reload.
  Server(ServerConfig Config, ModelState Model);

  /// Joins all workers (drains first if still running).
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Enqueues one request line; the future resolves to the response line
  /// (without trailing newline). Never blocks: when the queue is full the
  /// future is already resolved to an `overloaded` error, and after drain
  /// began to a `shutting_down` error.
  std::future<std::string> submit(std::string Line);

  /// submit() + wait — convenience for tests and benches.
  std::string handle(std::string Line);

  /// True once a shutdown request (or beginDrain) was seen.
  bool draining() const;

  /// Starts rejecting new work; queued and in-flight requests complete.
  void beginDrain();

  /// beginDrain() + waits for the queue to empty and all workers to exit.
  void drain();

  /// Opens the test_block gate (EnableTestVerbs); all parked workers
  /// resume.
  void releaseTestGate();

  /// Current stats payload (same bytes as the `stats` verb modulo the
  /// moving counters).
  std::string statsJson();

  /// Current Prometheus text exposition (the `metrics` verb returns this as
  /// a JSON string result).
  std::string metricsText();

  const ServiceMetrics &metrics() const { return Metrics; }
  ServiceMetrics &metrics() { return Metrics; }

  /// Snapshot of the serving model. Cheap (one mutex-guarded shared_ptr
  /// copy); holders keep the generation alive across a concurrent swap.
  std::shared_ptr<const ModelState> model() const;

  /// Atomically replaces the serving model. Requests admitted before the
  /// swap finish under the generation they snapshotted; later dispatches
  /// see the new one. Old cache entries are keyed by the old checksum and
  /// age out via LRU.
  void swapModel(ModelState NewModel);

  /// loadModelState(Path) + swapModel, serialized against concurrent
  /// reloads. On failure returns false with \p Err set and the old model
  /// untouched. Path "" means ServerConfig::ModelPath.
  bool reloadModel(std::string Path, std::string *Err);

  /// Serves newline-delimited JSON from \p In to \p Out until EOF or
  /// drain; responses are written in request order. Returns 0 on a clean
  /// drain.
  int serveStream(std::istream &In, std::ostream &Out);

  /// Serves \p Path through a LineServer until drain or a nonzero
  /// \p StopFlag (a SIGTERM handler sets it). A nonzero \p ReloadFlag (the
  /// CLI's SIGHUP handler sets it) is cleared and the model reloaded from
  /// ServerConfig::ModelPath on the accept thread, never a worker; a failed
  /// reload logs to stderr and the old model keeps serving. \p OnListening,
  /// when set, runs once \p Path is bound. Returns 0 on a clean drain, 1
  /// when \p Path cannot be bound.
  int serveUnixSocket(const std::string &Path,
                      const volatile int *StopFlag = nullptr,
                      volatile int *ReloadFlag = nullptr,
                      const std::function<void()> &OnListening = nullptr);

private:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// Per-request state shared between the worker executing it and the
  /// deadline watchdog. Whoever calls answer() first wins; the loser's
  /// response is dropped — the promise is set exactly once.
  struct JobState {
    std::string Id; ///< Best-effort raw id token (scanRequestId), for
                    ///< watchdog error responses.
    std::promise<std::string> Promise;
    std::atomic<bool> Answered{false};
    TimePoint Deadline{}; ///< Meaningful only when HasDeadline.
    bool HasDeadline = false;

    /// Claims the single right to resolve the promise; true for exactly
    /// one caller.
    bool claim() { return !Answered.exchange(true, std::memory_order_acq_rel); }

    /// Resolves the promise once. Returns false if already answered.
    bool answer(std::string Response) {
      if (!claim())
        return false;
      Promise.set_value(std::move(Response));
      return true;
    }
  };

  struct Job {
    std::string Line;
    std::shared_ptr<JobState> State;
    TimePoint Admitted;
  };

  /// What the slow-request log and the request trace span know about a
  /// request once it parsed; filled by handleRequest.
  struct RequestInfo {
    const char *Verb = "?"; ///< Protocol verb name ("?" before parse).
    std::string TraceId;
  };

  void workerLoop();
  void watchdogLoop();
  void watchJob(std::shared_ptr<JobState> State);
  /// Dying-worker path (injected `service.worker` fault): answers the
  /// in-flight request `internal`, spawns a replacement, and lets the
  /// thread exit.
  void replaceDeadWorker(Job &TheJob);
  std::string handleRequest(const std::string &Line, const Job &TheJob,
                            RequestInfo *Info = nullptr);
  std::string handleParsed(const Request &R, Budget *B);
  /// statsJson()'s view of the current model identity.
  ModelInfo modelInfo() const;
  /// Emits one structured `uspec-slow ...` line (ServerConfig::SlowLog,
  /// default stderr).
  void logSlowRequest(const RequestInfo &Info, const Job &TheJob,
                      double TotalSeconds, double QueueSeconds, bool Ok);

  /// Cache-or-analyze for verbs that carry a program, under one model
  /// generation snapshot \p M (cache keys mix M.Checksum). A Bounded
  /// result (budget exhausted mid-analysis) is returned but never cached.
  /// \p NoCache answers without mutating the cache (hits still served):
  /// the router's hedged requests carry it so non-owner replicas never
  /// adopt foreign keys.
  std::shared_ptr<const ProgramAnalysis>
  analysisFor(const ModelState &M, const std::string &Program,
              const std::string &Name, bool Coverage, bool NoCache,
              std::string *Error, Budget *B);

  ServerConfig Config;
  /// The serving model; read through model(), replaced by swapModel().
  /// shared_ptr-swapped under ModelMutex (not std::atomic_load — deprecated
  /// in C++20), so readers and the swapper never race on the pointer.
  std::shared_ptr<const ModelState> Model;
  mutable std::mutex ModelMutex;
  std::mutex ReloadMutex; ///< Serializes reloadModel() end to end.
  AnalysisCache Cache;
  ServiceMetrics Metrics;

  mutable std::mutex QueueMutex;
  std::condition_variable QueueCv;    ///< Signals workers: work or stop.
  std::condition_variable DrainedCv;  ///< Signals drain(): queue empty+idle.
  std::deque<Job> Queue;              ///< Guarded by QueueMutex.
  size_t InFlight = 0;                ///< Jobs popped, not yet finished.
  bool Draining = false;              ///< Reject new submissions.
  bool StopWorkers = false;           ///< Workers exit once queue empties.

  std::mutex GateMutex;
  std::condition_variable GateCv;
  bool GateOpen = false;

  std::mutex SlowLogMutex; ///< Serializes slow-request log lines.

  std::mutex WatchMutex;
  std::condition_variable WatchCv;
  std::vector<std::shared_ptr<JobState>> Watched; ///< Guarded by WatchMutex.
  bool StopWatchdog = false;                      ///< Guarded by WatchMutex.
  std::thread Watchdog;

  std::vector<std::thread> Workers; ///< Guarded by QueueMutex after start.
  unsigned EffectiveWorkers = 1;
};

} // namespace service
} // namespace uspec

#endif // USPEC_SERVICE_SERVER_H
