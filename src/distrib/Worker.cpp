//===- Worker.cpp - Distributed training worker --------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "distrib/Worker.h"

#include "eventgraph/EventGraph.h"
#include "ir/Lowering.h"
#include "support/Budget.h"
#include "support/FaultInject.h"
#include "support/ParallelFor.h"
#include "support/Trace.h"

#include <unistd.h>
#include <unordered_map>

using namespace uspec;
using namespace uspec::distrib;

AnalyzedResult uspec::distrib::analyzeShard(const AnalyzeTask &Task,
                                            const WireConfig &Config,
                                            StringInterner &Strings,
                                            ShardState &State) {
  size_t N = Task.Programs.size();
  State.Base = Task.Base;
  State.Programs.clear();
  State.Programs.reserve(N);

  // Parse serially: the interner mutates here (lookups of already-interned
  // snapshot strings allocate nothing, but the contract is single-writer).
  // A source that no longer parses keeps an empty slot, mirroring the
  // journal pipeline; the coordinator made the same call on its own parse.
  for (const ProgramSource &P : Task.Programs) {
    DiagnosticSink Diags;
    std::optional<IRProgram> Prog =
        parseAndLower(P.Source, P.Name, Strings, Diags);
    if (Prog) {
      State.Programs.push_back(std::move(*Prog));
    } else {
      IRProgram Empty;
      Empty.Name = P.Name;
      State.Programs.push_back(std::move(Empty));
    }
  }

  // Phase 1 + 2a, verbatim learn() semantics with global indices Base + I:
  // same seeds, same budget, same quarantine reasons, same fault site.
  State.Analyses.clear();
  State.Analyses.resize(N);
  State.Graphs.assign(N, EventGraph());
  State.QReason.assign(N, std::string());
  AnalyzedResult Result;
  Result.Shard = Task.Shard;
  std::vector<SampleSet> PerProgramSamples(N);
  Result.QReason.resize(N);
  parallelFor(N, static_cast<unsigned>(Config.Threads), [&](size_t I) {
    uint64_t G = State.Base + I;
    try {
      if (faultFiresAt("learn.analyze", G))
        throw FaultInjected("learn.analyze");
      Budget B = Budget::steps(Config.ProgramStepBudget);
      AnalysisOptions Opts;
      if (Config.ProgramStepBudget != 0)
        Opts.StepBudget = &B;
      State.Analyses[I] = std::make_unique<AnalysisResult>(
          analyzeProgram(State.Programs[I], Strings, Opts));
      if (State.Analyses[I]->Bounded) {
        State.QReason[I] = std::string("analysis:") + B.reason();
        if (State.QReason[I] == "analysis:")
          State.QReason[I] = "analysis:bounded";
        State.Analyses[I] = std::make_unique<AnalysisResult>();
        return;
      }
      State.Graphs[I] = EventGraph::build(*State.Analyses[I]);
      Rng Rand(hashValues(Config.Seed, G));
      collectTrainingSamples(State.Graphs[I], Rand, PerProgramSamples[I]);
    } catch (const FaultInjected &F) {
      State.QReason[I] = "fault:" + F.site();
      State.Analyses[I] = std::make_unique<AnalysisResult>();
      State.Graphs[I] = EventGraph();
      PerProgramSamples[I] = SampleSet();
    } catch (const std::exception &E) {
      State.QReason[I] = std::string("error:") + E.what();
      State.Analyses[I] = std::make_unique<AnalysisResult>();
      State.Graphs[I] = EventGraph();
      PerProgramSamples[I] = SampleSet();
    }
  });

  Result.ProgramSamples.resize(N);
  for (size_t I = 0; I < N; ++I) {
    Result.QReason[I] = State.QReason[I];
    Result.ProgramSamples[I] = PerProgramSamples[I].size();
  }
  Result.Samples = SampleSet::concat(std::move(PerProgramSamples));
  for (const EventGraph &G : State.Graphs)
    if (!G.callSites().empty())
      ++Result.Graphs;
  return Result;
}

ExtractedResult uspec::distrib::extractShard(ShardState &State,
                                             const EdgeModel &Model,
                                             const WireConfig &Config) {
  ExtractedResult Result;
  CandidateCollector Collector(Model,
                               static_cast<unsigned>(Config.DistanceBound),
                               Config.ExperimentalPatterns);
  for (size_t I = 0; I < State.Graphs.size(); ++I) {
    if (!State.QReason[I].empty())
      continue; // quarantined in Phase 1; default graph has no analysis
    uint32_t Pid = static_cast<uint32_t>(State.Base + I);
    if (Config.ProgramStepBudget == 0) {
      Collector.addGraph(State.Graphs[I], Pid);
      continue;
    }
    // All-or-nothing per graph under a budget, exactly as learn() Phase 3:
    // stage into a scratch collector, merge only on completion.
    Budget B = Budget::steps(Config.ProgramStepBudget);
    CandidateCollector Tmp(Model, static_cast<unsigned>(Config.DistanceBound),
                           Config.ExperimentalPatterns);
    if (Tmp.addGraph(State.Graphs[I], Pid, &B)) {
      Collector.merge(std::move(Tmp));
    } else {
      State.QReason[I] = "extract:steps";
      Result.QUpdates.emplace_back(I, State.QReason[I]);
    }
  }
  Result.Ledger = CandidateLedger::fromCollector(Collector);
  Result.ReceiverPairs = Collector.numReceiverPairs();
  Result.Matches = Collector.numMatches();
  Result.PeakCandidates = Collector.candidates().size();
  return Result;
}

int uspec::distrib::runWorker(const Address &Coordinator,
                              unsigned ThreadsOverride, std::string *Err) {
  int Fd = wireConnect(Coordinator, Err);
  if (Fd < 0)
    return 1;
  std::string LocalErr;
  if (!Err)
    Err = &LocalErr;

  auto Bail = [&](const std::string &Msg) {
    *Err = Msg;
    sendFrame(Fd, encodeControl(MsgType::Error, Msg));
    ::close(Fd);
    return 1;
  };

  if (!sendFrame(Fd, encodeControl(MsgType::Hello,
                                   std::to_string(::getpid())),
                 Err)) {
    ::close(Fd);
    return 1;
  }

  StringInterner Strings;
  WireConfig Config;
  uint32_t WorkerId = 0;
  EdgeModel Model;
  std::unordered_map<uint64_t, ShardState> Shards;
  // Coordinator trace context from Init (per-task contexts override); spans
  // recorded here carry it so obs stitch hangs this worker's work under the
  // coordinating run.
  std::string TraceCtx;
  auto TagSpan = [&](TraceSpan &Span, uint64_t Shard,
                     const std::string &TaskCtx) {
    if (!Span.active())
      return;
    Span.arg("shard", std::to_string(Shard));
    Span.arg("worker", std::to_string(WorkerId));
    const std::string &Ctx = TaskCtx.empty() ? TraceCtx : TaskCtx;
    if (!Ctx.empty())
      Span.arg("trace_ctx", Ctx);
  };

  std::string Frame;
  while (recvFrame(Fd, Frame, Err)) {
    auto Type = peekType(Frame, Err);
    if (!Type)
      return Bail("bad frame: " + *Err);
    try {
      switch (*Type) {
      case MsgType::Init: {
        InitMsg Msg;
        if (!decodeInit(Frame, Msg, Err))
          return Bail(*Err);
        Config = Msg.Config;
        if (ThreadsOverride != 0)
          Config.Threads = ThreadsOverride;
        WorkerId = Msg.WorkerId;
        TraceCtx = Msg.TraceContext;
        // Replay the coordinator's interner: the snapshot ships ids
        // 1..size-1 in order, and this interner is fresh, so intern()
        // reassigns the identical dense ids — feature hashes (which fold in
        // Symbol ids) then agree bit-for-bit with the coordinator's.
        for (const std::string &S : Msg.Symbols)
          Strings.intern(S);
        break;
      }
      case MsgType::Analyze: {
        AnalyzeTask Task;
        if (!decodeAnalyzeTask(Frame, Task, Err))
          return Bail(*Err);
        if (faultFiresAt("distrib.worker.analyze", WorkerId))
          throw FaultInjected("distrib.worker.analyze");
        AnalyzedResult R;
        {
          TraceSpan Span("worker.analyze");
          TagSpan(Span, Task.Shard, Task.TraceContext);
          R = analyzeShard(Task, Config, Strings, Shards[Task.Shard]);
        }
        TraceSpan IoSpan("worker.reply");
        TagSpan(IoSpan, Task.Shard, Task.TraceContext);
        if (!sendFrame(Fd, encodeAnalyzedResult(R), Err)) {
          ::close(Fd);
          return 1;
        }
        break;
      }
      case MsgType::Model: {
        if (!decodeModelMsg(Frame, Model, Err))
          return Bail(*Err);
        break;
      }
      case MsgType::Extract: {
        ExtractTask Task;
        if (!decodeExtractTask(Frame, Task, Err))
          return Bail(*Err);
        if (faultFiresAt("distrib.worker.extract", WorkerId))
          throw FaultInjected("distrib.worker.extract");
        ShardState &State = Shards[Task.Shard];
        ExtractedResult R;
        {
          TraceSpan Span("worker.extract");
          TagSpan(Span, Task.Shard, Task.TraceContext);
          if (!Task.Programs.empty()) {
            // Reassigned shard: this worker never analyzed it. Rebuild the
            // cached state from the re-sent sources (analysis is
            // deterministic, so graphs and quarantine agree with the dead
            // worker's run); the samples were already delivered and are
            // discarded here.
            AnalyzeTask Rebuild;
            Rebuild.Shard = Task.Shard;
            Rebuild.Base = Task.Base;
            Rebuild.Programs = Task.Programs;
            analyzeShard(Rebuild, Config, Strings, State);
          }
          R = extractShard(State, Model, Config);
        }
        R.Shard = Task.Shard;
        TraceSpan IoSpan("worker.reply");
        TagSpan(IoSpan, Task.Shard, Task.TraceContext);
        if (!sendFrame(Fd, encodeExtractedResult(R, Strings), Err)) {
          ::close(Fd);
          return 1;
        }
        break;
      }
      case MsgType::Done:
        ::close(Fd);
        return 0;
      default:
        return Bail("unexpected message type");
      }
    } catch (const FaultInjected &F) {
      return Bail("fault:" + F.site());
    } catch (const std::exception &E) {
      return Bail(std::string("error:") + E.what());
    }
  }
  // recvFrame failed: the coordinator went away without Done. Not this
  // worker's error to report.
  ::close(Fd);
  return 0;
}
