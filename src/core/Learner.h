//===- Learner.h - The USpec learning pipeline (Fig. 1) --------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end unsupervised pipeline of Fig. 1: analyze every corpus
/// program API-unaware (§3), train the probabilistic edge model (§4),
/// extract and score candidate specifications (§5.1–5.2), select those with
/// score ≥ τ (§5.3), and extend the set for consistency (§5.4).
///
/// This is the primary public entry point of the library:
/// \code
///   StringInterner Strings;
///   std::vector<IRProgram> Corpus = ...;      // parseAndLower(...)
///   USpecLearner Learner(Strings, LearnerConfig());
///   LearnResult Result = Learner.learn(Corpus);
///   for (const ScoredCandidate &C : Result.Candidates) ...
///   // Result.Selected drives the API-aware analysis (AnalysisOptions).
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_CORE_LEARNER_H
#define USPEC_CORE_LEARNER_H

#include "core/Candidates.h"
#include "core/PipelineStats.h"
#include "ir/IR.h"
#include "model/EdgeModel.h"
#include "pointsto/Analysis.h"
#include "specs/Spec.h"

#include <string>
#include <vector>

namespace uspec {

/// Configuration of the full learning pipeline.
struct LearnerConfig {
  /// Options for the initial, API-unaware points-to pass (§3.2). ApiAware
  /// must stay false here; the learned specs feed a separate aware pass.
  AnalysisOptions Analysis;
  /// Probabilistic model configuration (§4).
  EdgeModelConfig Model;
  /// Receiver-pair distance bound in Alg. 1 (§7.1 uses 10).
  unsigned DistanceBound = 10;
  /// k of the top-k-mean score (§5.2 uses 10).
  size_t TopK = 10;
  /// Selection threshold τ (§5.3; the evaluation uses 0.6).
  double Tau = 0.6;
  /// Score aggregation (§5.2; TopKMean is the paper's choice).
  ScoreKind Scoring = ScoreKind::TopKMean;
  /// Apply the §5.4 consistency extension to the selected set.
  bool ExtendConsistency = true;
  /// Also instantiate the experimental RetRecv pattern (§5.3 discussion).
  bool ExperimentalPatterns = false;
  /// Seed for negative subsampling and SGD shuffling.
  uint64_t Seed = 0xC0FFEE;
  /// Worker threads for the parallel pipeline phases: per-program
  /// analysis, graph, sampling and candidate matching (Phase 1–2a) and
  /// per-candidate scoring (Phase 4). 0 = hardware concurrency. Results are
  /// bit-identical for any thread count — sampling is seeded per program,
  /// the chunks' candidate tables fold deterministically, and scoring
  /// writes per-candidate slots.
  unsigned Threads = 0;
  /// Per-program step budget for the analysis and for Alg. 1's matching,
  /// both spent in Phase 1 (0 = unlimited). A program that exhausts its
  /// budget — or throws — is quarantined (recorded in
  /// PipelineStats::Quarantined with a reason) instead of aborting the run.
  /// Quarantine is in-place: the program keeps its corpus slot (no samples,
  /// no evidence; one whose matching runs out keeps its samples and adds no
  /// candidate evidence), so per-program sample seeds hashValues(Seed, I)
  /// and chunk boundaries are unchanged and the result stays bit-identical
  /// at any thread count.
  uint64_t ProgramStepBudget = 0;
};

/// One scored candidate specification.
struct ScoredCandidate {
  Spec S;
  double Score = 0;
  size_t Matches = 0;        ///< Pattern matches in the corpus.
  size_t Programs = 0;       ///< Distinct programs with a match.
  size_t NumConfidences = 0; ///< |ΓS| (single-edge matches scored by ϕ).
};

/// Prior state threaded into an incremental (warm-start) run; built from a
/// previously saved artifact by src/incremental/Trainer.
struct WarmStart {
  /// ϕ restored from the previous artifact. train() never resets existing
  /// per-position-pair models, so the delta samples continue SGD from these
  /// weights.
  EdgeModel Model;
  /// Candidate evidence accumulated over every program trained so far.
  CandidateLedger Ledger;
  /// Programs already trained through; delta program ids, sample seeds and
  /// fault indices continue from here so they match a full replay's.
  size_t BasePrograms = 0;
  /// Training-set size so far (reported cumulatively in LearnResult).
  size_t BaseTrainingSamples = 0;
};

/// Output of the pipeline.
struct LearnResult {
  EdgeModel Model;
  /// All candidates, sorted by descending score (ties broken by matches).
  std::vector<ScoredCandidate> Candidates;
  /// Specifications with score ≥ τ, closed under the §5.4 extension.
  SpecSet Selected;
  /// How many specs the consistency extension added.
  size_t AddedByExtension = 0;
  /// Training set size and in-sample accuracy of ϕ. After learnIncrement
  /// the sample count is cumulative (base + delta) while the accuracy is
  /// measured on the delta samples only.
  size_t NumTrainingSamples = 0;
  double TrainAccuracy = 0;
  /// The merged candidate evidence behind Candidates, in the same order.
  /// Incremental runs extend it; journal-trained artifacts persist it so
  /// the next delta can keep extending (DESIGN.md §12).
  CandidateLedger Ledger;
  /// Per-phase wall times and workload counters of this run. Observational
  /// only — never serialized into USPB artifacts (select(τ) byte-identity
  /// is independent of where or how fast a model was trained).
  PipelineStats Stats;
};

/// The USpec pipeline.
class USpecLearner {
public:
  USpecLearner(StringInterner &Strings, LearnerConfig Config)
      : Strings(Strings), Config(std::move(Config)) {}

  /// Runs the full pipeline over \p Corpus: learnIncrement from a cold
  /// start (a fresh ϕ from Config.Model, an empty ledger, base 0), traced
  /// as one `learn` span.
  LearnResult learn(const std::vector<IRProgram> &Corpus);

  /// Incremental continuation: runs the pipeline over \p Delta only —
  /// programs appended to the corpus after \p Prev was trained — warm-
  /// starting ϕ from Prev.Model and folding the new candidate evidence into
  /// Prev.Ledger. Per-program sample seeds and program ids are global
  /// (Prev.BasePrograms + i), exactly what a full retrain would use for the
  /// same positions, and the result is bit-identical at any thread count.
  /// Scores, selection and the extension run over the *combined* evidence.
  LearnResult learnIncrement(const std::vector<IRProgram> &Delta,
                             WarmStart Prev);

  /// Re-selects specifications at a different threshold \p Tau from already
  /// scored candidates (used by the precision/recall sweeps of Fig. 7, which
  /// must not retrain the model per τ).
  static SpecSet select(const std::vector<ScoredCandidate> &Candidates,
                        double Tau, bool Extend,
                        size_t *AddedByExtension = nullptr);

  /// Number of distinct API classes covered by \p Specs (§7.2 statistics).
  static size_t countApiClasses(const std::vector<ScoredCandidate> &Candidates);
  static size_t countApiClasses(const SpecSet &Specs);

private:
  /// The one phase driver behind learn and learnIncrement: Phases 1–5 over
  /// \p Programs, continuing from \p Prev.
  LearnResult runPhases(const std::vector<IRProgram> &Programs,
                        WarmStart Prev);

  StringInterner &Strings;
  LearnerConfig Config;
};

} // namespace uspec

#endif // USPEC_CORE_LEARNER_H
