//===- Coordinator.cpp - Distributed training coordinator ----------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "distrib/Coordinator.h"

#include "core/Naming.h"
#include "distrib/Worker.h"
#include "support/EventLog.h"
#include "support/FaultInject.h"
#include "support/ParallelFor.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <mutex>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace uspec;
using namespace uspec::distrib;

namespace {

struct WorkerConn {
  int Fd = -1;
  pid_t Pid = -1; ///< -1 for externally-launched workers.
  uint32_t Id = 0;
  bool Dead = false;
};

struct ShardPlan {
  uint64_t Id = 0;
  size_t Lo = 0, Hi = 0; ///< Delta-relative contiguous range [Lo, Hi).
};

/// Resolves the path of the running binary for self-exec worker spawning.
std::string selfExePath() {
  char Buf[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  if (N <= 0)
    return std::string();
  Buf[N] = '\0';
  return std::string(Buf);
}

class Coordinator {
public:
  Coordinator(const std::vector<ProgramSource> &Sources,
              const LearnerConfig &Config, StringInterner &Strings,
              const DistribOptions &Opts, DistStats &Stats)
      : Sources(Sources), Config(Config), Strings(Strings), Opts(Opts),
        Stats(Stats) {
    Wire.Seed = Config.Seed;
    Wire.DistanceBound = Config.DistanceBound;
    Wire.ProgramStepBudget = Config.ProgramStepBudget;
    Wire.Threads = Opts.WorkerThreads;
    Wire.ExperimentalPatterns = Config.ExperimentalPatterns;
  }

  ~Coordinator() {
    for (WorkerConn &W : Workers)
      if (W.Fd >= 0)
        ::close(W.Fd);
    if (ListenFd >= 0)
      ::close(ListenFd);
    if (!OwnedSocketPath.empty())
      ::unlink(OwnedSocketPath.c_str());
    // Reap spawned children. Their sockets are closed by now, so a live
    // worker's recvFrame fails and it exits; a faulted one is already gone.
    for (WorkerConn &W : Workers)
      if (W.Pid > 0) {
        int St = 0;
        ::waitpid(W.Pid, &St, 0);
      }
  }

  std::optional<LearnResult> run(std::optional<WarmStart> Warm,
                                 std::string *Err);

private:
  bool provision(std::string *Err);
  void spawnWorkers(const std::string &ConnectTo);
  void markDead(WorkerConn &W, const std::string &Why);
  void note(const std::string &Msg) {
    std::lock_guard<std::mutex> Lock(Mu);
    Stats.Notes.push_back(Msg);
  }

  void runAnalyzeRound();
  void runExtractRound();
  bool analyzeInProcess(const ShardPlan &P, const std::string &Why);
  void extractInProcess(const ShardPlan &P, unsigned Attempts);

  AnalyzeTask makeAnalyzeTask(const ShardPlan &P) const {
    AnalyzeTask T;
    T.Shard = P.Id;
    T.Base = GlobalBase + P.Lo;
    T.Programs.assign(Sources.begin() + static_cast<ptrdiff_t>(P.Lo),
                      Sources.begin() + static_cast<ptrdiff_t>(P.Hi));
    T.TraceContext = TraceCtx;
    return T;
  }

  const std::vector<ProgramSource> &Sources;
  const LearnerConfig &Config;
  StringInterner &Strings;
  const DistribOptions &Opts;
  DistStats &Stats;

  WireConfig Wire;
  /// Trace context shipped to workers on Init/Analyze/Extract so their
  /// spans stitch under this run ("" when the coordinator is untraced).
  std::string TraceCtx;
  size_t GlobalBase = 0;
  int ListenFd = -1;
  std::string OwnedSocketPath;
  std::vector<WorkerConn> Workers;
  std::vector<ShardPlan> Shards;

  std::mutex Mu;
  // Round 1 results, indexed by shard id.
  std::vector<AnalyzedResult> Analyzed;
  std::vector<bool> AnalyzedOk;
  /// Which worker holds the shard's cached state after round 1; -1 =
  /// coordinator (demoted in-process).
  std::vector<int> Owner;
  // Round 2 results: raw Extracted frames (decoded serially on the main
  // thread — SymbolTable::decode touches the interner) or in-process
  // results.
  std::vector<std::string> ExtractedFrames;
  std::vector<ExtractedResult> Extracted;
  std::vector<bool> ExtractedOk;
  /// In-process shard state for demoted shards.
  std::vector<ShardState> CoordState;
  std::vector<bool> CoordStateOk;

  EdgeModel Model{EdgeModelConfig()};
};

void Coordinator::spawnWorkers(const std::string &ConnectTo) {
  std::string Exe = selfExePath();
  if (Exe.empty()) {
    note("worker spawn unavailable: cannot resolve /proc/self/exe; running "
         "all shards in-process");
    return;
  }
  for (unsigned I = 0; I < Opts.NumWorkers; ++I) {
    try {
      USPEC_FAULT_POINT("distrib.spawn");
    } catch (const FaultInjected &) {
      note("worker " + std::to_string(I) +
           " spawn failed (injected fault at distrib.spawn); provisioning "
           "continues degraded");
      continue;
    }
    pid_t Pid = ::fork();
    if (Pid < 0) {
      note("worker " + std::to_string(I) +
           " spawn failed: fork: " + std::strerror(errno));
      continue;
    }
    if (Pid == 0) {
      ::execl(Exe.c_str(), Exe.c_str(), "worker", "--connect",
              ConnectTo.c_str(), static_cast<char *>(nullptr));
      ::_exit(127); // exec failed; the coordinator sees a missing Hello
    }
    WorkerConn W;
    W.Pid = Pid;
    Workers.push_back(W);
  }
}

bool Coordinator::provision(std::string *Err) {
  Stats.WorkersRequested = Opts.NumWorkers;
  bool External = !Opts.ListenAddress.empty();
  std::string AddrText = Opts.ListenAddress;
  if (!External) {
    OwnedSocketPath = "/tmp/uspec-coord-" + std::to_string(::getpid()) +
                      ".sock";
    AddrText = "unix:" + OwnedSocketPath;
  }
  auto Addr = parseAddress(AddrText, Err);
  if (!Addr)
    return false;
  ListenFd = wireListen(*Addr, Err);
  if (ListenFd < 0)
    return false;

  if (!External) {
    spawnWorkers(Addr->str());
    if (Workers.empty()) {
      // Nothing to accept; run fully in-process.
      return true;
    }
  }

  // Accept + handshake. The deadline covers the whole fleet: a worker that
  // never shows up (spawn fault, exec failure, slow external launch) costs
  // at most the remaining budget and the run proceeds degraded.
  size_t Expected = External ? Opts.NumWorkers : Workers.size();
  std::vector<int> Fds;
  PhaseTimer Deadline;
  double BudgetSec = Opts.AcceptTimeoutMs / 1000.0;
  double Spent = 0;
  while (Fds.size() < Expected && Spent < BudgetSec) {
    int Fd = wireAccept(ListenFd, 200);
    Spent += Deadline.lap();
    if (Fd == -2)
      break;
    if (Fd < 0)
      continue;
    std::string Frame, HandshakeErr;
    MsgType Type;
    std::string Text;
    if (!recvFrame(Fd, Frame, &HandshakeErr) ||
        !decodeControl(Frame, Type, Text, &HandshakeErr) ||
        Type != MsgType::Hello) {
      note("rejecting connection with bad handshake: " + HandshakeErr);
      ::close(Fd);
      continue;
    }
    Fds.push_back(Fd);
  }

  // Bind fds to worker slots and send Init. Spawn order and accept order
  // need not agree (the Pid association is only used for reaping).
  if (External)
    Workers.resize(Fds.size());
  InitMsg Init;
  Init.Config = Wire;
  Init.TraceContext = TraceCtx;
  Init.Symbols.reserve(Strings.size() - 1);
  for (uint32_t I = 1; I < Strings.size(); ++I)
    Init.Symbols.push_back(Strings.str(Symbol(I)));
  size_t Bound = 0;
  for (WorkerConn &W : Workers) {
    if (Bound >= Fds.size()) {
      W.Dead = true; // never connected
      continue;
    }
    W.Fd = Fds[Bound];
    W.Id = static_cast<uint32_t>(Bound);
    ++Bound;
    Init.WorkerId = W.Id;
    std::string SendErr;
    if (!sendFrame(W.Fd, encodeInit(Init), &SendErr))
      markDead(W, "init send failed: " + SendErr);
  }
  Stats.WorkersConnected = static_cast<unsigned>(Bound);
  if (Bound < Expected)
    note(std::to_string(Expected - Bound) + " of " + std::to_string(Expected) +
         " workers never connected within " +
         std::to_string(Opts.AcceptTimeoutMs) +
         " ms; their shards run degraded");
  return true;
}

void Coordinator::markDead(WorkerConn &W, const std::string &Why) {
  bool First;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    First = !W.Dead;
    W.Dead = true;
    if (First) {
      ++Stats.WorkersDied;
      Stats.Notes.push_back("worker " + std::to_string(W.Id) + " lost: " +
                            Why);
    }
  }
  if (First && events::enabled())
    events::emit("worker_lost", {{"worker", std::to_string(W.Id)},
                                 {"reason", Why}});
  if (First && W.Fd >= 0) {
    ::close(W.Fd);
    W.Fd = -1;
  }
}

/// Runs Phase 1 in-process for a shard whose retries are exhausted (or that
/// never had a live worker). Same code path the workers run.
bool Coordinator::analyzeInProcess(const ShardPlan &P,
                                   const std::string &Why) {
  WireConfig Local = Wire;
  Local.Threads = Config.Threads;
  AnalyzeTask Task = makeAnalyzeTask(P);
  Analyzed[P.Id] = analyzeShard(Task, Local, Strings, CoordState[P.Id]);
  AnalyzedOk[P.Id] = true;
  CoordStateOk[P.Id] = true;
  Owner[P.Id] = -1;
  ++Stats.ShardsDemoted;
  note("shard " + std::to_string(P.Id) + " (" +
       std::to_string(P.Hi - P.Lo) + " programs) demoted to in-process "
       "execution at the coordinator: " + Why);
  if (events::enabled())
    events::emit("demotion", {{"shard", std::to_string(P.Id)},
                              {"phase", "analyze"},
                              {"reason", Why}});
  return true;
}

void Coordinator::runAnalyzeRound() {
  struct Task {
    size_t Shard;
    unsigned Attempts;
  };
  std::deque<Task> Queue;
  for (const ShardPlan &P : Shards)
    Queue.push_back(Task{static_cast<size_t>(P.Id), 1});

  auto WorkerLoop = [&](WorkerConn &W) {
    for (;;) {
      Task T{0, 0};
      {
        std::lock_guard<std::mutex> Lock(Mu);
        if (Queue.empty())
          return;
        T = Queue.front();
        Queue.pop_front();
      }
      const ShardPlan &P = Shards[T.Shard];
      std::string IoErr;
      std::string Frame;
      bool Ok = sendFrame(W.Fd, encodeAnalyzeTask(makeAnalyzeTask(P)),
                          &IoErr) &&
                recvFrame(W.Fd, Frame, &IoErr);
      if (Ok) {
        auto Type = peekType(Frame, &IoErr);
        if (Type && *Type == MsgType::Error) {
          MsgType MT;
          decodeControl(Frame, MT, IoErr);
          Ok = false;
          IoErr = "worker error: " + IoErr;
        } else if (!Type || *Type != MsgType::Analyzed) {
          Ok = false;
          IoErr = "unexpected reply during analyze: " + IoErr;
        }
      }
      if (Ok) {
        AnalyzedResult R;
        Ok = decodeAnalyzedResult(Frame, R, &IoErr) && R.Shard == P.Id;
        if (Ok && R.QReason.size() != P.Hi - P.Lo) {
          Ok = false;
          IoErr = "analyzed reply covers " + std::to_string(R.QReason.size()) +
                  " programs, shard has " + std::to_string(P.Hi - P.Lo);
        }
        if (Ok) {
          std::lock_guard<std::mutex> Lock(Mu);
          Analyzed[P.Id] = std::move(R);
          AnalyzedOk[P.Id] = true;
          Owner[P.Id] = static_cast<int>(W.Id);
          continue;
        }
      }
      markDead(W, IoErr + " (analyzing shard " + std::to_string(P.Id) + ")");
      if (events::enabled())
        events::emit("shard_reassignment",
                     {{"shard", std::to_string(P.Id)},
                      {"phase", "analyze"},
                      {"attempt", std::to_string(T.Attempts + 1)}});
      {
        std::lock_guard<std::mutex> Lock(Mu);
        ++Stats.ShardsReassigned;
        Stats.Notes.push_back(
            "shard " + std::to_string(P.Id) + " reassigned (attempt " +
            std::to_string(T.Attempts + 1) + "/" +
            std::to_string(Opts.MaxAttempts) + ")");
        if (T.Attempts + 1 <= Opts.MaxAttempts)
          Queue.push_back(Task{T.Shard, T.Attempts + 1});
        else
          Stats.Notes.push_back("shard " + std::to_string(T.Shard) +
                                " exhausted its " +
                                std::to_string(Opts.MaxAttempts) +
                                " attempts");
      }
      return; // this worker is gone; its thread ends
    }
  };

  std::vector<std::thread> Threads;
  for (WorkerConn &W : Workers)
    if (!W.Dead && W.Fd >= 0)
      Threads.emplace_back(WorkerLoop, std::ref(W));
  for (std::thread &T : Threads)
    T.join();

  // Anything still pending (all workers dead, attempts exhausted, or no
  // workers at all) runs in-process.
  for (const ShardPlan &P : Shards)
    if (!AnalyzedOk[P.Id])
      analyzeInProcess(P, Workers.empty()
                              ? "no workers available"
                              : "no live worker left or retries exhausted");
}

void Coordinator::extractInProcess(const ShardPlan &P, unsigned Attempts) {
  WireConfig Local = Wire;
  Local.Threads = Config.Threads;
  if (!CoordStateOk[P.Id]) {
    // The analyzing worker died after round 1: rebuild state from sources
    // (deterministic, so graphs and quarantine agree with the original).
    AnalyzeTask Task = makeAnalyzeTask(P);
    analyzeShard(Task, Local, Strings, CoordState[P.Id]);
    CoordStateOk[P.Id] = true;
  }
  Extracted[P.Id] = extractShard(CoordState[P.Id], Model, Local);
  Extracted[P.Id].Shard = P.Id;
  ExtractedOk[P.Id] = true;
  if (Owner[P.Id] != -1) {
    ++Stats.ShardsDemoted;
    note("shard " + std::to_string(P.Id) + " (" +
         std::to_string(P.Hi - P.Lo) + " programs) extraction demoted to "
         "the coordinator after " + std::to_string(Attempts) + " attempt(s)");
    if (events::enabled())
      events::emit("demotion", {{"shard", std::to_string(P.Id)},
                                {"phase", "extract"},
                                {"attempts", std::to_string(Attempts)}});
  }
}

void Coordinator::runExtractRound() {
  // Broadcast the trained model; a failed send costs the worker its shards.
  std::string ModelFrame = encodeModelMsg(Model);
  for (WorkerConn &W : Workers) {
    if (W.Dead || W.Fd < 0)
      continue;
    std::string SendErr;
    if (!sendFrame(W.Fd, ModelFrame, &SendErr))
      markDead(W, "model broadcast failed: " + SendErr);
  }

  struct Task {
    size_t Shard;
    unsigned Attempts;
    bool NeedSources; ///< Reassigned away from the shard's analyzer.
  };
  // Owned lists: each live worker extracts the shards it analyzed (cached
  // state, no source resend). Orphans (dead owner / coordinator-owned go
  // straight in-process) are taken by any live worker with sources.
  std::vector<std::deque<Task>> Owned(Workers.size());
  std::deque<Task> Orphans;
  std::vector<Task> Demoted;
  for (const ShardPlan &P : Shards) {
    int O = Owner[P.Id];
    if (O >= 0 && !Workers[static_cast<size_t>(O)].Dead)
      Owned[static_cast<size_t>(O)].push_back(
          Task{static_cast<size_t>(P.Id), 1, false});
    else if (O >= 0)
      Orphans.push_back(Task{static_cast<size_t>(P.Id), 1, true});
    else
      Demoted.push_back(Task{static_cast<size_t>(P.Id), 1, false});
  }

  auto WorkerLoop = [&](WorkerConn &W) {
    for (;;) {
      Task T{0, 0, false};
      {
        std::lock_guard<std::mutex> Lock(Mu);
        if (!Owned[W.Id].empty()) {
          T = Owned[W.Id].front();
          Owned[W.Id].pop_front();
        } else if (!Orphans.empty()) {
          T = Orphans.front();
          Orphans.pop_front();
        } else {
          return;
        }
      }
      const ShardPlan &P = Shards[T.Shard];
      ExtractTask XT;
      XT.Shard = P.Id;
      XT.Base = GlobalBase + P.Lo;
      XT.TraceContext = TraceCtx;
      if (T.NeedSources)
        XT.Programs.assign(Sources.begin() + static_cast<ptrdiff_t>(P.Lo),
                           Sources.begin() + static_cast<ptrdiff_t>(P.Hi));
      std::string IoErr;
      std::string Frame;
      bool Ok = sendFrame(W.Fd, encodeExtractTask(XT), &IoErr) &&
                recvFrame(W.Fd, Frame, &IoErr);
      if (Ok) {
        auto Type = peekType(Frame, &IoErr);
        if (!Type || *Type != MsgType::Extracted) {
          Ok = false;
          if (Type && *Type == MsgType::Error) {
            MsgType MT;
            decodeControl(Frame, MT, IoErr);
            IoErr = "worker error: " + IoErr;
          } else {
            IoErr = "unexpected reply during extract: " + IoErr;
          }
        }
      }
      if (Ok) {
        std::lock_guard<std::mutex> Lock(Mu);
        ExtractedFrames[P.Id] = std::move(Frame);
        continue;
      }
      markDead(W, IoErr + " (extracting shard " + std::to_string(P.Id) +
                      ")");
      if (events::enabled())
        events::emit("shard_reassignment",
                     {{"shard", std::to_string(P.Id)},
                      {"phase", "extract"},
                      {"attempt", std::to_string(T.Attempts + 1)}});
      {
        std::lock_guard<std::mutex> Lock(Mu);
        ++Stats.ShardsReassigned;
        if (T.Attempts + 1 <= Opts.MaxAttempts)
          Orphans.push_back(Task{T.Shard, T.Attempts + 1, true});
        else
          Demoted.push_back(Task{T.Shard, T.Attempts, false});
        // The dead worker's remaining owned shards need sources elsewhere.
        while (!Owned[W.Id].empty()) {
          Task Rest = Owned[W.Id].front();
          Owned[W.Id].pop_front();
          Rest.NeedSources = true;
          ++Rest.Attempts;
          ++Stats.ShardsReassigned;
          Orphans.push_back(Rest);
        }
      }
      return;
    }
  };

  std::vector<std::thread> Threads;
  for (WorkerConn &W : Workers)
    if (!W.Dead && W.Fd >= 0)
      Threads.emplace_back(WorkerLoop, std::ref(W));
  for (std::thread &T : Threads)
    T.join();

  // Decode worker frames serially: SymbolTable::decode probes the interner,
  // and single-threaded decode keeps the single-writer contract trivially.
  for (const ShardPlan &P : Shards) {
    if (ExtractedFrames[P.Id].empty())
      continue;
    std::string DecodeErr;
    ExtractedResult R;
    if (decodeExtractedResult(ExtractedFrames[P.Id], R, Strings,
                              &DecodeErr) &&
        R.Shard == P.Id) {
      Extracted[P.Id] = std::move(R);
      ExtractedOk[P.Id] = true;
    } else {
      note("shard " + std::to_string(P.Id) +
           " reply failed to decode (" + DecodeErr +
           "); re-running in-process");
    }
  }
  for (const Task &T : Demoted)
    if (!ExtractedOk[T.Shard])
      extractInProcess(Shards[T.Shard], T.Attempts);
  while (!Orphans.empty()) { // all workers died with orphans pending
    Task T = Orphans.front();
    Orphans.pop_front();
    if (!ExtractedOk[T.Shard])
      extractInProcess(Shards[T.Shard], T.Attempts);
  }
  for (const ShardPlan &P : Shards)
    if (!ExtractedOk[P.Id])
      extractInProcess(P, Opts.MaxAttempts);
}

std::optional<LearnResult> Coordinator::run(std::optional<WarmStart> Warm,
                                            std::string *Err) {
  TraceSpan Span("distrib.coordinate");
  // A traced run mints a trace context (stamped on every frame we send) so
  // worker-side spans stitch under this coordinator in `uspec obs stitch`.
  if (trace::enabled())
    TraceCtx = "coord-" + std::to_string(static_cast<long>(::getpid()));
  if (Span.active() && !TraceCtx.empty())
    Span.arg("trace_ctx", TraceCtx);
  size_t N = Sources.size();
  GlobalBase = Warm ? Warm->BasePrograms : 0;

  // Deterministic shard plan: contiguous ranges, the same shardRange
  // geometry the in-process pipeline uses, sized independently of how many
  // workers actually show up (the plan, not the placement, is part of the
  // provenance checksum).
  size_t M = std::min<size_t>(std::max<size_t>(N, 1),
                              std::max<unsigned>(Opts.NumWorkers, 1) * 4);
  if (N == 0)
    M = 0;
  Shards.clear();
  Stats.ShardMapChecksum = hashCombine(hashCombine(0x5D157B, N), M);
  for (size_t S = 0; S < M; ++S) {
    auto [Lo, Hi] = shardRange(N, static_cast<unsigned>(S),
                               static_cast<unsigned>(M));
    Shards.push_back(ShardPlan{S, Lo, Hi});
    Stats.ShardMapChecksum =
        hashCombine(hashCombine(Stats.ShardMapChecksum, Lo), Hi);
  }
  Stats.Shards = M;
  if (Span.active()) {
    Span.arg("programs", std::to_string(N));
    Span.arg("shards", std::to_string(M));
    Span.arg("workers", std::to_string(Opts.NumWorkers));
  }

  Analyzed.resize(M);
  AnalyzedOk.assign(M, false);
  Owner.assign(M, -2);
  ExtractedFrames.assign(M, std::string());
  Extracted.resize(M);
  ExtractedOk.assign(M, false);
  CoordState.resize(M);
  CoordStateOk.assign(M, false);

  if (!provision(Err))
    return std::nullopt;

  LearnResult Result;
  PhaseTimer Total, Phase;
  Result.Stats.Programs = N;
  Result.Stats.ThreadsUsed = std::max<unsigned>(Stats.WorkersConnected, 1);

  // Round 1: Phase 1 + 2a across workers.
  runAnalyzeRound();
  std::vector<std::string> QReason(N);
  for (const ShardPlan &P : Shards) {
    const AnalyzedResult &R = Analyzed[P.Id];
    Result.Stats.Graphs += R.Graphs;
    for (size_t I = 0; I < R.QReason.size(); ++I)
      QReason[P.Lo + I] = R.QReason[I];
  }
  Result.Stats.AnalyzeSeconds = Phase.lap();

  // Phase 2b at the coordinator: concatenate samples in shard order (=
  // corpus order; shards are contiguous ascending) and train — the exact
  // sample sequence a single-process run feeds Model.train.
  {
    std::vector<SampleSet> ShardSamples;
    ShardSamples.reserve(Shards.size());
    for (const ShardPlan &P : Shards)
      ShardSamples.push_back(std::move(Analyzed[P.Id].Samples));
    Model = Warm ? std::move(Warm->Model) : EdgeModel(Config.Model);
    trainOnSamples(std::move(ShardSamples),
                   Warm ? Warm->BaseTrainingSamples : 0, Model, Result);
  }
  Result.Stats.TrainSeconds = Phase.lap();

  // Round 2: Phase 3 across workers, ledgers merged left-to-right.
  runExtractRound();
  CandidateLedger Ledger = Warm ? std::move(Warm->Ledger) : CandidateLedger();
  for (const ShardPlan &P : Shards) {
    ExtractedResult &R = Extracted[P.Id];
    for (const auto &[Idx, Reason] : R.QUpdates)
      QReason[P.Lo + Idx] = Reason;
    Result.Stats.ReceiverPairs += R.ReceiverPairs;
    Result.Stats.Matches += R.Matches;
    Result.Stats.PeakCandidates += R.PeakCandidates;
    Ledger.extendWith(std::move(R.Ledger));
  }
  Result.Stats.Candidates = Ledger.Entries.size();
  Result.Stats.ExtractSeconds = Phase.lap();

  // Phase 4 (scoring) and Phase 5 (selection) at the coordinator, over the
  // merged ledger — the same per-entry arithmetic learnIncrement runs,
  // which equals learn()'s collector-based scoring (scoreCandidate(Stats)
  // delegates to the bare-evidence overload).
  Result.Candidates.resize(Ledger.Entries.size());
  parallelFor(Ledger.Entries.size(), Config.Threads, [&](size_t I) {
    const CandidateLedger::Entry &E = Ledger.Entries[I];
    ScoredCandidate C;
    C.S = E.S;
    C.Score = scoreCandidate(E.Confidences, E.Matches, E.Programs,
                             Config.Scoring, Config.TopK);
    if (Config.Scoring == ScoreKind::NameAware)
      C.Score = blendWithNamingPrior(C.Score, namingPrior(E.S, Strings));
    C.Matches = E.Matches;
    C.Programs = E.Programs;
    C.NumConfidences = E.Confidences.size();
    Result.Candidates[I] = std::move(C);
  });
  std::stable_sort(Result.Candidates.begin(), Result.Candidates.end(),
                   [](const ScoredCandidate &A, const ScoredCandidate &B) {
                     if (A.Score != B.Score)
                       return A.Score > B.Score;
                     return A.Matches > B.Matches;
                   });
  Result.Stats.ScoreSeconds = Phase.lap();

  Result.Selected =
      USpecLearner::select(Result.Candidates, Config.Tau,
                           Config.ExtendConsistency,
                           &Result.AddedByExtension);
  Result.Stats.SelectSeconds = Phase.lap();

  Result.Model = std::move(Model);
  Result.Ledger = std::move(Ledger);
  for (size_t I = 0; I < N; ++I)
    if (!QReason[I].empty()) {
      Result.Stats.Quarantined.push_back(
          QuarantineRecord{GlobalBase + I, Sources[I].Name, QReason[I]});
      if (events::enabled())
        events::emit("quarantine", {{"program", Sources[I].Name},
                                    {"reason", QReason[I]}});
    }
  Result.Stats.TotalSeconds = Total.lap();

  // Orderly shutdown; failures here are irrelevant to the result.
  for (WorkerConn &W : Workers)
    if (!W.Dead && W.Fd >= 0)
      sendFrame(W.Fd, encodeControl(MsgType::Done, ""));
  return Result;
}

} // namespace

std::optional<LearnResult> uspec::distrib::distributedLearn(
    const std::vector<ProgramSource> &Sources, const LearnerConfig &Config,
    StringInterner &Strings, const DistribOptions &Opts,
    std::optional<WarmStart> Warm, DistStats &Stats, std::string *Err) {
  Coordinator C(Sources, Config, Strings, Opts, Stats);
  return C.run(std::move(Warm), Err);
}
