//===- parallel_test.cpp - Determinism of the parallel pipeline ---------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
// The §7.2 contract, strengthened into hard assertions: the *entire*
// LearnResult — candidate order, exact score bits, match/program counts,
// selected specification text, and saved USPB artifact bytes — must be
// identical for any thread count. Plus unit coverage for the pieces the
// contract rests on: exception-safe parallelFor, the deterministic
// append of CandidateCollector shard tables, and StringInterner reference
// stability under growth (the parallel phases read the interner
// concurrently).
//
//===----------------------------------------------------------------------===//

#include "artifact/Checkpoint.h"
#include "core/USpec.h"
#include "corpus/Dedup.h"
#include "corpus/Generator.h"
#include "corpus/Profiles.h"
#include "specs/SpecIO.h"
#include "support/ParallelFor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>

using namespace uspec;

namespace {

//===----------------------------------------------------------------------===//
// parallelFor
//===----------------------------------------------------------------------===//

TEST(ParallelPipeline, ParallelForCoversEverySlotOnce) {
  for (unsigned Threads : {1u, 2u, 8u, 0u}) {
    std::vector<int> Touched(997, 0);
    parallelFor(Touched.size(), Threads,
                [&](size_t I) { Touched[I] += static_cast<int>(I) + 1; });
    for (size_t I = 0; I < Touched.size(); ++I)
      ASSERT_EQ(Touched[I], static_cast<int>(I) + 1) << "slot " << I;
  }
}

TEST(ParallelPipeline, ParallelForPropagatesWorkerExceptions) {
  // A throwing body must surface on the caller, not std::terminate the
  // process via an unhandled exception on a std::thread.
  for (unsigned Threads : {1u, 2u, 8u}) {
    std::atomic<size_t> Ran{0};
    EXPECT_THROW(
        parallelFor(64, Threads,
                    [&](size_t I) {
                      if (I == 13)
                        throw std::runtime_error("worker failure");
                      ++Ran;
                    }),
        std::runtime_error);
    EXPECT_LT(Ran.load(), 64u) << "the throwing slot never counts";
  }
}

TEST(ParallelPipeline, ParallelForRethrowsFirstExceptionOnly) {
  // Every worker throwing concurrently still yields exactly one rethrow.
  EXPECT_THROW(parallelFor(256, 8,
                           [](size_t) {
                             throw std::runtime_error("all workers fail");
                           }),
               std::runtime_error);
}

TEST(ParallelPipeline, ShardRangesPartitionTheIndexSpace) {
  for (size_t N : {0u, 1u, 7u, 64u, 1000u}) {
    for (unsigned Shards : {1u, 2u, 3u, 8u, 17u}) {
      size_t Covered = 0, PrevEnd = 0;
      for (unsigned S = 0; S < Shards; ++S) {
        auto [Lo, Hi] = shardRange(N, S, Shards);
        EXPECT_EQ(Lo, PrevEnd) << "contiguous";
        EXPECT_LE(Lo, Hi);
        Covered += Hi - Lo;
        PrevEnd = Hi;
      }
      EXPECT_EQ(PrevEnd, N);
      EXPECT_EQ(Covered, N);
    }
  }
}

//===----------------------------------------------------------------------===//
// StringInterner
//===----------------------------------------------------------------------===//

TEST(ParallelPipeline, InternerReferencesSurviveReallocation) {
  StringInterner S;
  Symbol First = S.intern("the-very-first-string");
  const std::string &FirstRef = S.str(First);
  const char *FirstData = FirstRef.data();

  // Far more interns than any initial chunk holds: a vector-backed storage
  // would have reallocated (and moved FirstRef's bytes) many times over.
  std::vector<Symbol> Syms;
  for (int I = 0; I < 20000; ++I)
    Syms.push_back(S.intern("filler-string-number-" + std::to_string(I)));

  EXPECT_EQ(FirstRef, "the-very-first-string");
  EXPECT_EQ(FirstRef.data(), FirstData)
      << "str() references must stay stable across interner growth";
  EXPECT_EQ(S.intern("the-very-first-string"), First);
  // Spot-check that growth kept every symbol resolvable.
  EXPECT_EQ(S.str(Syms[123]), "filler-string-number-123");
  EXPECT_EQ(S.str(Syms[19999]), "filler-string-number-19999");
}

TEST(ParallelPipeline, InternerHeterogeneousLookup) {
  StringInterner S;
  std::string Backing = "heterogeneous-probe";
  Symbol A = S.intern(std::string_view(Backing));
  // Probing with a view into different backing memory must hit the same
  // entry (the index compares contents, not addresses).
  std::string Copy = Backing;
  EXPECT_EQ(S.intern(std::string_view(Copy)), A);
  EXPECT_EQ(S.size(), 2u) << "empty string + one interned entry";
}

//===----------------------------------------------------------------------===//
// CandidateCollector shard tables appended in shard order
//===----------------------------------------------------------------------===//

TEST(ParallelPipeline, CollectorShardMergeMatchesSerialRun) {
  StringInterner S;
  LanguageProfile P = javaProfile();
  GeneratorConfig GenCfg;
  GenCfg.NumPrograms = 40;
  GenCfg.Seed = 0xA11CE;
  GeneratedCorpus Corpus = generateCorpus(P, GenCfg, S);

  std::vector<AnalysisResult> Analyses;
  std::vector<EventGraph> Graphs;
  Analyses.reserve(Corpus.Programs.size());
  for (const IRProgram &Prog : Corpus.Programs)
    Analyses.push_back(analyzeProgram(Prog, S, AnalysisOptions()));
  for (const AnalysisResult &R : Analyses)
    Graphs.push_back(EventGraph::build(R));

  // A trained ϕ, so that ΓS holds distinct confidences whose order shows.
  SampleSet Samples;
  for (size_t I = 0; I < Graphs.size(); ++I) {
    Rng Rand(I);
    collectTrainingSamples(Graphs[I], Rand, Samples);
  }
  EdgeModel Model;
  Model.train(Samples);

  CandidateCollector Serial(10);
  for (size_t I = 0; I < Graphs.size(); ++I)
    Serial.addGraph(Graphs[I], static_cast<uint32_t>(I));
  const CandidateLedger SerialLedger = Serial.take(Model);

  for (unsigned NumShards : {1u, 2u, 3u, 8u}) {
    std::vector<CandidateCollector> Shards;
    Shards.reserve(NumShards);
    for (unsigned T = 0; T < NumShards; ++T)
      Shards.emplace_back(10);
    for (unsigned T = 0; T < NumShards; ++T) {
      auto [Lo, Hi] = shardRange(Graphs.size(), T, NumShards);
      for (size_t I = Lo; I < Hi; ++I)
        Shards[T].addGraph(Graphs[I], static_cast<uint32_t>(I));
    }
    CandidateLedger Merged;
    size_t Pairs = 0, Matches = 0;
    for (CandidateCollector &Shard : Shards) {
      Pairs += Shard.numReceiverPairs();
      Matches += Shard.numMatches();
      Merged.append(Shard.take(Model));
    }

    const auto &Want = SerialLedger.Entries;
    ASSERT_EQ(Merged.Entries.size(), Want.size()) << NumShards << " shards";
    ASSERT_FALSE(Want.empty());
    for (size_t I = 0; I < Want.size(); ++I) {
      const CandidateLedger::Entry &A = Want[I], &B = Merged.Entries[I];
      EXPECT_EQ(B.S, A.S) << "first-seen order diverged at slot " << I
                          << " with " << NumShards << " shards";
      EXPECT_EQ(A.Matches, B.Matches);
      EXPECT_EQ(A.Programs, B.Programs);
      EXPECT_EQ(A.Confidences, B.Confidences)
          << "ΓS must concatenate in graph order: " << A.S.str(S);
    }
    EXPECT_EQ(Pairs, Serial.numReceiverPairs());
    EXPECT_EQ(Matches, Serial.numMatches());
  }
}

//===----------------------------------------------------------------------===//
// Full-pipeline determinism across thread counts
//===----------------------------------------------------------------------===//

struct FullRun {
  std::vector<std::string> CandidateText;
  std::vector<double> Scores;
  std::vector<size_t> Matches, Programs, NumConfidences;
  std::string SelectedText;
  std::string ArtifactBytes;
  PipelineStats Stats;
};

FullRun runPipelineWith(unsigned Threads) {
  StringInterner S;
  LanguageProfile P = javaProfile();
  GeneratorConfig GenCfg;
  GenCfg.NumPrograms = 120;
  GenCfg.Seed = 0xF00D;
  GeneratedCorpus Corpus = generateCorpus(P, GenCfg, S);

  LearnerConfig Cfg;
  Cfg.Threads = Threads;
  USpecLearner Learner(S, Cfg);
  LearnResult Result = Learner.learn(Corpus.Programs);

  CorpusManifest Manifest;
  for (size_t I = 0; I < Corpus.Programs.size(); ++I)
    Manifest.Entries.push_back(
        {"prog" + std::to_string(I), programFingerprint(Corpus.Programs[I])});

  FullRun Run;
  for (const ScoredCandidate &C : Result.Candidates) {
    Run.CandidateText.push_back(C.S.str(S));
    Run.Scores.push_back(C.Score);
    Run.Matches.push_back(C.Matches);
    Run.Programs.push_back(C.Programs);
    Run.NumConfidences.push_back(C.NumConfidences);
  }
  Run.SelectedText = serializeSpecs(Result.Selected, S);
  Run.ArtifactBytes = saveLearnArtifacts(Result, Cfg, S, Manifest);
  Run.Stats = Result.Stats;
  return Run;
}

TEST(ParallelPipeline, FullLearnResultIsThreadCountInvariant) {
  FullRun One = runPipelineWith(1);
  ASSERT_FALSE(One.CandidateText.empty());
  ASSERT_FALSE(One.SelectedText.empty());
  ASSERT_FALSE(One.ArtifactBytes.empty());

  for (unsigned Threads : {2u, 8u}) {
    FullRun Other = runPipelineWith(Threads);
    // Candidate order and every per-candidate field, bit-exact scores
    // included.
    EXPECT_EQ(One.CandidateText, Other.CandidateText) << Threads << " threads";
    EXPECT_EQ(One.Scores, Other.Scores) << Threads << " threads";
    EXPECT_EQ(One.Matches, Other.Matches) << Threads << " threads";
    EXPECT_EQ(One.Programs, Other.Programs) << Threads << " threads";
    EXPECT_EQ(One.NumConfidences, Other.NumConfidences)
        << Threads << " threads";
    // Selected specification text and the serialized artifact.
    EXPECT_EQ(One.SelectedText, Other.SelectedText) << Threads << " threads";
    EXPECT_EQ(One.ArtifactBytes, Other.ArtifactBytes)
        << "USPB bytes must not depend on the thread count ("
        << Threads << " threads)";
    // Workload counters (not timings) are sharding-invariant too.
    EXPECT_EQ(One.Stats.ReceiverPairs, Other.Stats.ReceiverPairs);
    EXPECT_EQ(One.Stats.Matches, Other.Stats.Matches);
    EXPECT_EQ(One.Stats.TrainingSamples, Other.Stats.TrainingSamples);
    EXPECT_EQ(One.Stats.FeatureHashes, Other.Stats.FeatureHashes);
    EXPECT_EQ(One.Stats.Candidates, Other.Stats.Candidates);
    EXPECT_EQ(One.Stats.Graphs, Other.Stats.Graphs);
  }
}

TEST(ParallelPipeline, PipelineStatsArePopulated) {
  FullRun Run = runPipelineWith(2);
  const PipelineStats &St = Run.Stats;
  EXPECT_EQ(St.Programs, 120u);
  EXPECT_GT(St.Graphs, 0u);
  EXPECT_GT(St.ReceiverPairs, 0u);
  EXPECT_GT(St.Matches, 0u);
  EXPECT_GT(St.TrainingSamples, 0u);
  EXPECT_GT(St.FeatureHashes, St.TrainingSamples);
  EXPECT_GT(St.Candidates, 0u);
  EXPECT_GE(St.PeakCandidates, St.Candidates);
  EXPECT_GT(St.TotalSeconds, 0.0);
  EXPECT_GE(St.TotalSeconds, St.AnalyzeSeconds);

  std::string Json = St.json();
  EXPECT_NE(Json.find("\"phase_seconds\""), std::string::npos);
  EXPECT_NE(Json.find("\"receiver_pairs\""), std::string::npos);
  EXPECT_NE(Json.find("\"peak_candidates\""), std::string::npos);
  EXPECT_NE(Json.find("\"feature_hashes\": " +
                      std::to_string(St.FeatureHashes)),
            std::string::npos);
  EXPECT_EQ(Json.front(), '{');
  EXPECT_EQ(Json.back(), '}');
}

} // namespace
