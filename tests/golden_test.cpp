//===- golden_test.cpp - Pinned artifact bit-identity ------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
// Trains the standard seed corpus (java profile, 60 programs, seed 42) and
// pins the resulting USPB artifact to a checksum recorded in this file. Any
// change that perturbs analysis results, candidate order, score bits, or
// the artifact encoding — however indirectly — fails here first, with the
// new checksum printed so a *deliberate* format change can update the pin
// in the same commit that explains it.
//
//===----------------------------------------------------------------------===//

#include "artifact/Checkpoint.h"
#include "core/USpec.h"
#include "corpus/Generator.h"
#include "corpus/Profiles.h"
#include "specs/SpecIO.h"
#include "support/Hashing.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace uspec;

namespace {

/// The pinned checksum of the seed-corpus artifact (hashString over the
/// serialized USPB bytes). Update ONLY for a deliberate, explained format
/// or semantics change — the failure message prints the new value.
constexpr uint64_t SeedArtifactChecksum = 0xa02fd7d2a9fba3b5ull;

std::string hex(uint64_t V) {
  char Buf[19];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

struct GoldenRun {
  std::string ArtifactBytes;
  /// Candidate specs rendered to text (the run's interner does not outlive
  /// trainSeedCorpus, so symbols are resolved eagerly).
  std::vector<std::string> CandidateText;
  std::string SelectedText;
  LearnResult Result;
};

GoldenRun trainSeedCorpus(unsigned Threads) {
  StringInterner S;
  GeneratorConfig GenCfg;
  GenCfg.NumPrograms = 60;
  GenCfg.Seed = 42;
  GeneratedCorpus Corpus = generateCorpus(javaProfile(), GenCfg, S);

  LearnerConfig Cfg;
  Cfg.Threads = Threads;
  USpecLearner Learner(S, Cfg);
  GoldenRun Run;
  Run.Result = Learner.learn(Corpus.Programs);
  Run.ArtifactBytes = saveLearnArtifacts(Run.Result, Cfg, S, CorpusManifest());
  for (const ScoredCandidate &C : Run.Result.Candidates)
    Run.CandidateText.push_back(C.S.str(S));
  Run.SelectedText = serializeSpecs(Run.Result.Selected, S);
  return Run;
}

} // namespace

TEST(GoldenArtifact, SeedCorpusChecksumIsPinned) {
  GoldenRun Run = trainSeedCorpus(1);
  ASSERT_FALSE(Run.ArtifactBytes.empty());
  uint64_t Checksum = hashString(Run.ArtifactBytes);
  EXPECT_EQ(Checksum, SeedArtifactChecksum)
      << "seed-corpus artifact bytes changed; computed checksum is "
      << hex(Checksum) << " (" << Run.ArtifactBytes.size()
      << " bytes). If the change is deliberate, update "
         "SeedArtifactChecksum and explain the format/semantics change in "
         "the same commit.";
}

TEST(GoldenArtifact, ThreadCountLeavesArtifactAndStatsUnchanged) {
  GoldenRun One = trainSeedCorpus(1);
  GoldenRun Eight = trainSeedCorpus(8);

  EXPECT_EQ(hashString(One.ArtifactBytes), hashString(Eight.ArtifactBytes));
  ASSERT_EQ(One.ArtifactBytes, Eight.ArtifactBytes)
      << "USPB bytes must not depend on the thread count";

  // LearnResult equality beyond the serialized artifact: scored candidates
  // (bit-exact scores) and the workload counters in PipelineStats.
  ASSERT_EQ(One.Result.Candidates.size(), Eight.Result.Candidates.size());
  EXPECT_EQ(One.CandidateText, Eight.CandidateText);
  for (size_t I = 0; I < One.Result.Candidates.size(); ++I) {
    const ScoredCandidate &A = One.Result.Candidates[I];
    const ScoredCandidate &B = Eight.Result.Candidates[I];
    EXPECT_EQ(A.Score, B.Score) << "score bits diverged at " << I;
    EXPECT_EQ(A.Matches, B.Matches);
    EXPECT_EQ(A.Programs, B.Programs);
    EXPECT_EQ(A.NumConfidences, B.NumConfidences);
  }
  EXPECT_EQ(One.SelectedText, Eight.SelectedText);
  EXPECT_EQ(One.Result.AddedByExtension, Eight.Result.AddedByExtension);
  EXPECT_EQ(One.Result.NumTrainingSamples, Eight.Result.NumTrainingSamples);
  EXPECT_EQ(One.Result.TrainAccuracy, Eight.Result.TrainAccuracy);

  const PipelineStats &SA = One.Result.Stats;
  const PipelineStats &SB = Eight.Result.Stats;
  EXPECT_EQ(SA.Programs, SB.Programs);
  EXPECT_EQ(SA.Graphs, SB.Graphs);
  EXPECT_EQ(SA.ReceiverPairs, SB.ReceiverPairs);
  EXPECT_EQ(SA.Matches, SB.Matches);
  EXPECT_EQ(SA.TrainingSamples, SB.TrainingSamples);
  EXPECT_EQ(SA.Candidates, SB.Candidates);
  // PeakCandidates is the sum of the shard tables' sizes before the fold,
  // so it may legitimately differ with the shard count — only its floor is
  // invariant.
  EXPECT_GE(SA.PeakCandidates, SA.Candidates);
  EXPECT_GE(SB.PeakCandidates, SB.Candidates);
}
