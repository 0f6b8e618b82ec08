//===- Learner.cpp - The USpec learning pipeline (Fig. 1) ---------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Learner.h"

#include "core/Naming.h"
#include "eventgraph/EventGraph.h"
#include "support/Budget.h"
#include "support/FaultInject.h"
#include "support/ParallelFor.h"
#include "support/Trace.h"

#include <algorithm>
#include <unordered_set>

using namespace uspec;

namespace {

/// Phase 2b (§4): concatenates \p Parts in order (one sample set per
/// phase-1 chunk) into one training set, continues SGD on \p Model over it,
/// and records the training counters and in-sample accuracy in \p Result
/// (NumTrainingSamples = \p BaseSamples + the set's size). Every sample is
/// released before it returns, so a phase lap taken right after covers the
/// release too.
void trainOnSamples(std::vector<SampleSet> Parts, size_t BaseSamples,
                    EdgeModel &Model, LearnResult &Result) {
  TraceSpan PhaseSpan("learn.phase2_train");
  SampleSet Samples = SampleSet::concat(std::move(Parts));
  Result.NumTrainingSamples = BaseSamples + Samples.size();
  Result.Stats.TrainingSamples = Samples.size();
  Result.Stats.FeatureHashes = Samples.numHashes();
  Model.train(Samples);
  Result.TrainAccuracy = Model.accuracy(Samples);
  if (PhaseSpan.active())
    PhaseSpan.arg("samples", std::to_string(Samples.size()));
}

} // namespace

LearnResult USpecLearner::learn(const std::vector<IRProgram> &Corpus) {
  // Tracing is observational only: spans read clocks and buffer events but
  // never influence scheduling, seeds, or shard boundaries, so the learned
  // artifacts are bit-identical with tracing on or off (pinned by
  // TelemetryDeterminism tests).
  TraceSpan LearnSpan("learn");
  if (LearnSpan.active()) {
    LearnSpan.arg("programs", std::to_string(Corpus.size()));
    LearnSpan.arg("threads", std::to_string(effectiveThreads(
                                 std::max<size_t>(1, Corpus.size()),
                                 Config.Threads)));
  }
  // A full run is an increment over nothing: a fresh ϕ, an empty ledger,
  // and program ids, sample seeds and fault indices starting at 0.
  WarmStart Cold;
  Cold.Model = EdgeModel(Config.Model);
  return runPhases(Corpus, std::move(Cold));
}

LearnResult USpecLearner::learnIncrement(const std::vector<IRProgram> &Delta,
                                         WarmStart Prev) {
  TraceSpan LearnSpan("learn.increment");
  if (LearnSpan.active()) {
    LearnSpan.arg("base_programs", std::to_string(Prev.BasePrograms));
    LearnSpan.arg("delta_programs", std::to_string(Delta.size()));
    LearnSpan.arg("threads", std::to_string(effectiveThreads(
                                 std::max<size_t>(1, Delta.size()),
                                 Config.Threads)));
  }
  return runPhases(Delta, std::move(Prev));
}

LearnResult USpecLearner::runPhases(const std::vector<IRProgram> &Programs,
                                    WarmStart Prev) {
  assert(!Config.Analysis.ApiAware &&
         "learning runs on the API-unaware analysis");
  LearnResult Result;
  Result.Model = std::move(Prev.Model);
  Result.Ledger = std::move(Prev.Ledger);
  size_t N = Programs.size();
  size_t Base = Prev.BasePrograms;

  Result.Stats.ThreadsUsed =
      effectiveThreads(std::max<size_t>(1, N), Config.Threads);
  Result.Stats.Programs = N;
  PhaseTimer Total, Phase;

  // Phase 1 (§3): analyze each program and build its event graph. Programs
  // are independent, so this fans out across threads (the paper runs its
  // pipeline on a 28-core server, §7.2). Seeds, program ids and fault
  // indices are *global corpus positions* (Base + I): exactly what a full
  // replay of the grown corpus uses for the same slots, so per-program
  // sampling decisions agree between the incremental and replay pipelines.
  // Each program's AnalysisResult dies as soon as its graph is built: the
  // graph owns every fact phases 2–3 read.
  //
  // Phase 2a (§4.2): per-program training samples, seeded per program so
  // results do not depend on scheduling. Programs run in contiguous chunks,
  // one per worker (the shard ranges of Phase 3), and each chunk appends its
  // programs' samples to one SampleSet in program order, so the chunk sets
  // concatenate to the same training set at any thread count.
  //
  // Per-program isolation (DESIGN.md §10): an analysis that throws or blows
  // its step budget quarantines that one program instead of aborting the
  // run. Quarantine is IN PLACE — the program keeps its slot with an empty
  // graph, and its chunk's set is cut back to where the program began — so
  // sample seeds hashValues(Seed, Base + I) and Phase-3 shard boundaries are
  // exactly those of the full corpus, keeping the result bit-identical at
  // any thread count.
  unsigned NumChunks = effectiveThreads(N, Config.Threads);
  std::vector<EventGraph> Graphs(N);
  std::vector<std::string> QReason(N);
  std::vector<SampleSet> ChunkSamples(NumChunks);
  auto RunProgram = [&](size_t I, SampleSet &Samples) {
    TraceSpan ProgramSpan("learn.program");
    if (ProgramSpan.active()) {
      ProgramSpan.arg("index", std::to_string(Base + I));
      if (!Programs[I].Name.empty())
        ProgramSpan.arg("name", Programs[I].Name);
    }
    size_t Mark = Samples.size();
    try {
      if (faultFiresAt("learn.analyze", Base + I))
        throw FaultInjected("learn.analyze");
      Budget B = Budget::steps(Config.ProgramStepBudget);
      AnalysisOptions Opts = Config.Analysis;
      if (Config.ProgramStepBudget != 0)
        Opts.StepBudget = &B;
      {
        AnalysisResult R = analyzeProgram(Programs[I], Strings, Opts);
        if (R.Bounded) {
          QReason[I] = std::string("analysis:") + B.reason();
          if (QReason[I] == "analysis:") // injected exhaustion, not the budget
            QReason[I] = "analysis:bounded";
          return;
        }
        TraceSpan GraphSpan("eventgraph.build");
        Graphs[I] = EventGraph::build(R);
      }
      {
        TraceSpan SampleSpan("learn.samples");
        Rng Rand(hashValues(Config.Seed, Base + I));
        collectTrainingSamples(Graphs[I], Rand, Samples);
      }
      if (faultFiresAt("learn.sample", Base + I))
        throw FaultInjected("learn.sample");
    } catch (const FaultInjected &F) {
      QReason[I] = "fault:" + F.site();
    } catch (const std::exception &E) {
      QReason[I] = std::string("error:") + E.what();
    }
    if (!QReason[I].empty()) {
      Graphs[I] = EventGraph();
      Samples.truncate(Mark);
    }
  };
  {
  TraceSpan PhaseSpan("learn.phase1_analyze");
  parallelFor(NumChunks, Config.Threads, [&](size_t C) {
    auto [Lo, Hi] = shardRange(N, static_cast<unsigned>(C), NumChunks);
    for (size_t I = Lo; I < Hi; ++I)
      RunProgram(I, ChunkSamples[C]);
  });
  for (const EventGraph &G : Graphs)
    if (!G.callSites().empty())
      ++Result.Stats.Graphs;
  Result.Stats.AnalyzeSeconds = Phase.lap();
  }

  // Phase 2b: SGD over the concatenated samples. train() shuffles the
  // samples deterministically and never resets existing per-pair models, so
  // a warm start's restored weights are the optimization's starting point.
  // Accuracy is measured on this run's samples (a warm start's base samples
  // are gone); the sample count reported is cumulative.
  trainOnSamples(std::move(ChunkSamples), Prev.BaseTrainingSamples,
                 Result.Model, Result);
  Result.Stats.TrainSeconds = Phase.lap();

  // Phase 3 (Alg. 1): candidate extraction and confidence collection,
  // sharded. Each worker runs Alg. 1 over its own contiguous range of
  // graphs into a private collector (ϕ queries are read-only). A graph adds
  // its evidence all or nothing: one whose step budget runs out adds none
  // and quarantines its program. The shard tables then append to the
  // carried ledger in shard order: known candidates keep their slots, new
  // ones append in first-seen order, so the ledger is bit-identical to a
  // serial pass at any shard count.
  {
  TraceSpan PhaseSpan("learn.phase3_extract");
  std::vector<CandidateCollector> Shards;
  Shards.reserve(NumChunks);
  for (unsigned S = 0; S < NumChunks; ++S)
    Shards.emplace_back(Result.Model, Config.DistanceBound,
                        Config.ExperimentalPatterns);
  parallelFor(NumChunks, Config.Threads, [&](size_t S) {
    auto [Lo, Hi] = shardRange(N, static_cast<unsigned>(S), NumChunks);
    for (size_t I = Lo; I < Hi; ++I) {
      if (!QReason[I].empty())
        continue; // quarantined in Phase 1; default graph has no analysis
      Budget B = Budget::steps(Config.ProgramStepBudget);
      if (!Shards[S].addGraph(Graphs[I], static_cast<uint32_t>(Base + I), &B))
        QReason[I] = "extract:steps";
    }
  });
  // Phase 3 is the graphs' last reader: free them inside its span.
  std::vector<EventGraph>().swap(Graphs);
  for (CandidateCollector &Shard : Shards) {
    Result.Stats.PeakCandidates += Shard.table().Entries.size();
    Result.Stats.ReceiverPairs += Shard.numReceiverPairs();
    Result.Stats.Matches += Shard.numMatches();
    Result.Ledger.append(Shard.take());
  }
  }
  Result.Stats.Candidates = Result.Ledger.Entries.size();
  Result.Stats.ExtractSeconds = Phase.lap();

  // Phase 4 (§5.2): scoring over the ledger, i.e. all evidence so far,
  // parallel per candidate slot. Each worker writes only its candidate's
  // slot; the stable sort then sees the same sequence as a serial run.
  const std::vector<CandidateLedger::Entry> &Entries = Result.Ledger.Entries;
  Result.Candidates.resize(Entries.size());
  {
  TraceSpan PhaseSpan("learn.phase4_score");
  if (PhaseSpan.active())
    PhaseSpan.arg("candidates", std::to_string(Entries.size()));
  parallelFor(Entries.size(), Config.Threads, [&](size_t I) {
    const CandidateLedger::Entry &E = Entries[I];
    ScoredCandidate C;
    C.S = E.S;
    C.Score = scoreCandidate(E, Config.Scoring, Config.TopK);
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
  }

  // Phase 5 (§5.3–5.4): selection and consistency extension.
  {
  TraceSpan PhaseSpan("learn.phase5_select");
  Result.Selected =
      select(Result.Candidates, Config.Tau, Config.ExtendConsistency,
             &Result.AddedByExtension);
  Result.Stats.SelectSeconds = Phase.lap();
  }

  // Quarantine report, in corpus order with global indices (deterministic
  // at any thread count).
  for (size_t I = 0; I < N; ++I)
    if (!QReason[I].empty())
      Result.Stats.Quarantined.push_back(
          QuarantineRecord{Base + I, Programs[I].Name, QReason[I]});

  Result.Stats.TotalSeconds = Total.lap();
  return Result;
}

SpecSet USpecLearner::select(const std::vector<ScoredCandidate> &Candidates,
                             double Tau, bool Extend,
                             size_t *AddedByExtension) {
  SpecSet Selected;
  for (const ScoredCandidate &C : Candidates)
    if (C.Score >= Tau)
      Selected.insert(C.S);
  size_t Added = Extend ? Selected.extendConsistency() : 0;
  if (AddedByExtension)
    *AddedByExtension = Added;
  return Selected;
}

size_t USpecLearner::countApiClasses(
    const std::vector<ScoredCandidate> &Candidates) {
  std::unordered_set<uint32_t> Classes;
  for (const ScoredCandidate &C : Candidates)
    Classes.insert(C.S.Target.Class.id());
  return Classes.size();
}

size_t USpecLearner::countApiClasses(const SpecSet &Specs) {
  std::unordered_set<uint32_t> Classes;
  for (const Spec &S : Specs.all())
    Classes.insert(S.Target.Class.id());
  return Classes.size();
}
