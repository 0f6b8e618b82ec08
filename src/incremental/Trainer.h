//===- Trainer.h - Journal-driven incremental training ---------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The policy layer of `uspec train --journal` (DESIGN.md §12): given a
/// corpus journal and (optionally) the bytes of the previously trained
/// artifact, decide between four modes and run the pipeline accordingly:
///
///   Full     — no usable prior: train every journal entry from scratch.
///   Replay   — `--replay`: full retrain over the journal regardless of the
///              prior. Byte-identical to Full from the same seed; the smoke
///              script and tests pin this as the incremental ground truth.
///   Warm     — the prior is a journal-trained artifact whose lineage is a
///              verified prefix of this journal with a compatible config:
///              parse only the new entries, warm-start ϕ from the prior
///              model (USpecLearner::learnIncrement) and emit a quantified
///              spec-level diff against the prior's selected set. If only
///              τ changed, the prior's candidates are re-selected at it.
///   UpToDate — nothing newer than the prior, at its τ; nothing runs.
///
/// Any eligibility failure (corrupt prior, rewritten journal history,
/// config mismatch) demotes to Full with a human-readable note — a warm
/// start is never silently wrong, only skipped.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_INCREMENTAL_TRAINER_H
#define USPEC_INCREMENTAL_TRAINER_H

#include "artifact/Checkpoint.h"
#include "core/Learner.h"
#include "incremental/Journal.h"

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace uspec {
namespace incremental {

enum class TrainMode { Full, Replay, Warm, UpToDate };

/// Display name of a mode ("full", "replay", "warm", "up-to-date").
std::string_view trainModeName(TrainMode Mode);

/// Everything a journal-driven run produces. The caller saves
/// Result+Manifest+Lineage+Ledger via saveLearnArtifacts (the ledger is
/// Result.Ledger).
struct IncrementalOutcome {
  TrainMode Mode = TrainMode::Full;
  LearnResult Result;
  /// Per-entry fingerprints; Generation = journal lastGeneration(). For a
  /// warm run the prefix is carried over from the prior artifact unchanged.
  CorpusManifest Manifest;
  /// Lineage to persist: trained through the whole journal.
  JournalLineage Lineage;
  /// Warm runs only: JSON object quantifying the spec-level change against
  /// the prior artifact ({"added":…,"removed":…,"kept":…,
  /// "added_specs":[…],"removed_specs":[…],"score_drift":{…}}). Empty
  /// otherwise.
  std::string DiffJson;
  /// Number of programs actually parsed+analyzed this run (delta size for
  /// Warm, journal size for Full/Replay, 0 for UpToDate).
  size_t ProgramsTrained = 0;
  /// Human-readable decisions worth surfacing (why a warm start was
  /// demoted, parse failures kept as empty corpus slots, …).
  std::vector<std::string> Notes;
};

/// Runs journal-driven training. \p PrevArtifactBytes is the raw USPB
/// artifact previously written to the output path ("" when none exists);
/// it is inspected with a throwaway interner, and only a warm run decodes
/// it into \p Strings. \p ForceReplay pins Replay mode. Fails (nullopt +
/// \p Err) only on an empty journal; every prior-artifact problem demotes
/// to Full instead.
std::optional<IncrementalOutcome>
trainFromJournal(const CorpusJournal &J, const LearnerConfig &Config,
                 StringInterner &Strings, std::string_view PrevArtifactBytes,
                 bool ForceReplay, std::string *Err = nullptr);

} // namespace incremental
} // namespace uspec

#endif // USPEC_INCREMENTAL_TRAINER_H
