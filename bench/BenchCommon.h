//===- BenchCommon.h - Shared helpers for the benchmark harnesses -*- C++-*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the per-table/figure harnesses (DESIGN.md §4): corpus
/// generation, pipeline execution, labeling, and common printing.
///
/// Training runs are checkpointable: when USPEC_ARTIFACT_CACHE names a
/// directory, runPipeline() loads the trained model + scored candidates
/// from a USPB artifact there instead of retraining, after validating the
/// corpus manifest (per-program structural fingerprints) against the
/// freshly generated corpus — "train once, serve many" across harnesses.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_BENCH_BENCHCOMMON_H
#define USPEC_BENCH_BENCHCOMMON_H

#include "artifact/Checkpoint.h"
#include "core/USpec.h"
#include "corpus/Dedup.h"
#include "corpus/Generator.h"
#include "corpus/GroundTruth.h"
#include "corpus/Profiles.h"
#include "support/Table.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

namespace uspec::bench {

/// A full pipeline run over one language profile.
struct PipelineRun {
  std::unique_ptr<StringInterner> Strings = std::make_unique<StringInterner>();
  LanguageProfile Profile;
  GeneratedCorpus Corpus;
  LearnerConfig Config;
  CorpusManifest Manifest;
  LearnResult Result;
  std::vector<LabeledCandidate> Labeled;
  /// True when Result was loaded from a cached artifact (no retraining).
  bool FromCache = false;
};

/// Structural fingerprints of a generated corpus, for artifact validation.
inline CorpusManifest corpusManifest(const GeneratedCorpus &Corpus) {
  CorpusManifest Manifest;
  Manifest.Entries.reserve(Corpus.Programs.size());
  for (size_t I = 0; I < Corpus.Programs.size(); ++I)
    Manifest.Entries.push_back(
        {"prog" + std::to_string(I), programFingerprint(Corpus.Programs[I])});
  return Manifest;
}

/// Generates a corpus for \p Profile and runs the learning pipeline,
/// consulting the USPEC_ARTIFACT_CACHE artifact cache when configured.
inline PipelineRun runPipeline(LanguageProfile Profile, size_t NumPrograms,
                               uint64_t Seed, double Tau = 0.6) {
  PipelineRun Run;
  Run.Profile = std::move(Profile);

  GeneratorConfig GenCfg;
  GenCfg.NumPrograms = NumPrograms;
  GenCfg.Seed = Seed;
  Run.Corpus = generateCorpus(Run.Profile, GenCfg, *Run.Strings);
  Run.Manifest = corpusManifest(Run.Corpus);

  Run.Config.Tau = Tau;
  Run.Config.Seed = Seed ^ 0x5eedULL;
  USpecLearner Learner(*Run.Strings, Run.Config);

  const char *CacheDir = std::getenv("USPEC_ARTIFACT_CACHE");
  std::string CachePath;
  if (CacheDir && *CacheDir) {
    CachePath = std::string(CacheDir) + "/" + Run.Profile.Name + "-n" +
                std::to_string(NumPrograms) + "-s" + std::to_string(Seed) +
                ".uspb";
    std::ifstream In(CachePath, std::ios::binary);
    if (In) {
      std::ostringstream Buf;
      Buf << In.rdbuf();
      std::string Bytes = Buf.str();
      ArtifactError Err;
      auto Artifacts = loadLearnArtifacts(Bytes, *Run.Strings, &Err);
      if (!Artifacts) {
        std::fprintf(stderr, "artifact cache: ignoring %s: %s\n",
                     CachePath.c_str(), Err.str().c_str());
      } else if (Artifacts->Manifest.sameCorpus(Run.Manifest) &&
                 Artifacts->Config.Seed == Run.Config.Seed) {
        Run.Result = std::move(Artifacts->Result);
        if (Artifacts->Config.Tau != Tau)
          Run.Result.Selected =
              USpecLearner::select(Run.Result.Candidates, Tau,
                                   Run.Config.ExtendConsistency,
                                   &Run.Result.AddedByExtension);
        Run.FromCache = true;
      } else {
        std::fprintf(stderr,
                     "artifact cache: %s is for a different corpus/seed, "
                     "retraining\n",
                     CachePath.c_str());
      }
    }
  }

  if (!Run.FromCache) {
    Run.Result = Learner.learn(Run.Corpus.Programs);
    if (!CachePath.empty()) {
      std::filesystem::create_directories(CacheDir);
      std::ofstream Out(CachePath, std::ios::binary);
      if (Out)
        Out << saveLearnArtifacts(Run.Result, Run.Config, *Run.Strings,
                                  Run.Manifest);
      if (!Out)
        std::fprintf(stderr, "artifact cache: cannot write %s\n",
                     CachePath.c_str());
    }
  }

  Run.Labeled =
      labelCandidates(Run.Profile.Registry, *Run.Strings, Run.Result.Candidates);
  return Run;
}

/// Prints a section banner.
inline void banner(const std::string &Title) {
  std::printf("\n==== %s ====\n\n", Title.c_str());
}

} // namespace uspec::bench

#endif // USPEC_BENCH_BENCHCOMMON_H
