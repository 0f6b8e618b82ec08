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
  // Each program's AnalysisResult dies as soon as its graph is built, and
  // the graph dies with the program's iteration: sampling and matching are
  // its only readers.
  //
  // Phase 2a (§4.2): per-program training samples, seeded per program so
  // results do not depend on scheduling. Programs run in contiguous chunks,
  // one per worker, and each chunk appends its programs' samples to one
  // SampleSet in program order, so the chunk sets concatenate to the same
  // training set at any thread count.
  //
  // Alg. 1's matching (§5.1) runs right after sampling, into the chunk's
  // CandidateCollector, with the program's own step budget. It records the
  // feature row of each single induced edge; ϕ scores the rows in Phase 3,
  // once Phase 2b has trained it. A program whose budget runs out adds no
  // evidence, keeps its samples and is quarantined as extract:steps. The
  // matching runs outside the program's try, so an exception there leaves
  // learn().
  //
  // Per-program isolation (DESIGN.md §10): an analysis that throws or blows
  // its step budget quarantines that one program instead of aborting the
  // run. Quarantine is IN PLACE — the program keeps its slot, adds no
  // evidence, and its chunk's set is cut back to where the program began —
  // so sample seeds hashValues(Seed, Base + I) and chunk boundaries are
  // exactly those of the full corpus, keeping the result bit-identical at
  // any thread count.
  unsigned NumChunks = effectiveThreads(N, Config.Threads);
  std::vector<std::string> QReason(N);
  std::vector<SampleSet> ChunkSamples(NumChunks);
  std::vector<CandidateCollector> ChunkMatches(
      NumChunks,
      CandidateCollector(Config.DistanceBound, Config.ExperimentalPatterns));
  std::vector<size_t> ChunkGraphs(NumChunks, 0);
  auto RunProgram = [&](size_t I, size_t C) {
    TraceSpan ProgramSpan("learn.program");
    if (ProgramSpan.active()) {
      ProgramSpan.arg("index", std::to_string(Base + I));
      if (!Programs[I].Name.empty())
        ProgramSpan.arg("name", Programs[I].Name);
    }
    SampleSet &Samples = ChunkSamples[C];
    size_t Mark = Samples.size();
    EventGraph G;
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
        G = EventGraph::build(R);
      }
      {
        TraceSpan SampleSpan("learn.samples");
        Rng Rand(hashValues(Config.Seed, Base + I));
        collectTrainingSamples(G, Rand, Samples);
      }
      if (faultFiresAt("learn.sample", Base + I))
        throw FaultInjected("learn.sample");
    } catch (const FaultInjected &F) {
      QReason[I] = "fault:" + F.site();
    } catch (const std::exception &E) {
      QReason[I] = std::string("error:") + E.what();
    }
    if (!QReason[I].empty()) {
      Samples.truncate(Mark);
      return;
    }
    if (!G.callSites().empty())
      ++ChunkGraphs[C];
    TraceSpan MatchSpan("learn.match");
    Budget B = Budget::steps(Config.ProgramStepBudget);
    if (!ChunkMatches[C].addGraph(G, static_cast<uint32_t>(Base + I), &B))
      QReason[I] = "extract:steps";
  };
  {
  TraceSpan PhaseSpan("learn.phase1_analyze");
  parallelFor(NumChunks, Config.Threads, [&](size_t C) {
    auto [Lo, Hi] = shardRange(N, static_cast<unsigned>(C), NumChunks);
    for (size_t I = Lo; I < Hi; ++I)
      RunProgram(I, C);
  });
  for (size_t Graphs : ChunkGraphs)
    Result.Stats.Graphs += Graphs;
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

  // Phase 3 (Alg. 1, scoring its matches): each chunk's table is taken with
  // the ϕ Phase 2b just trained, which turns the chunk's recorded rows into
  // confidences, and appended to the carried ledger in chunk order. Known
  // candidates keep their slots, new ones append in first-seen order, so the
  // ledger is bit-identical to a serial pass at any chunk count. A warm
  // start's carried entries keep the confidences they were recorded with.
  {
  TraceSpan PhaseSpan("learn.phase3_extract");
  for (CandidateCollector &Shard : ChunkMatches) {
    Result.Stats.PeakCandidates += Shard.numCandidates();
    Result.Stats.ReceiverPairs += Shard.numReceiverPairs();
    Result.Stats.Matches += Shard.numMatches();
    Result.Ledger.append(Shard.take(Result.Model));
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
