//===- Trainer.cpp - Journal-driven incremental training ----------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "incremental/Trainer.h"

#include "corpus/Dedup.h"
#include "ir/Lowering.h"
#include "support/JsonEscape.h"
#include "support/Trace.h"

#include <cmath>
#include <cstdio>
#include <unordered_map>

using namespace uspec;
using namespace uspec::incremental;

namespace {

/// Parses journal entries [Begin, End), keeping one corpus slot per entry:
/// a parse failure leaves a default (empty) IRProgram in place so entry
/// index == program index == program id stays true — exactly the in-place
/// quarantine discipline of the pipeline itself.
std::vector<IRProgram> parsePrograms(const CorpusJournal &J, size_t Begin,
                                     size_t End, StringInterner &Strings,
                                     std::vector<std::string> &Notes) {
  // One span for the whole loop, none per program: parseAndLower stays
  // unspanned so the service's own parse span keeps its self time.
  TraceSpan Span("ir.parse_lower");
  size_t Bytes = 0;
  std::vector<IRProgram> Programs;
  Programs.reserve(End - Begin);
  for (size_t I = Begin; I < End; ++I) {
    const JournalEntry &E = J.Entries[I];
    Bytes += E.Source.size();
    DiagnosticSink Diags;
    std::optional<IRProgram> P = parseAndLower(E.Source, E.Name, Strings,
                                               Diags);
    if (P) {
      Programs.push_back(std::move(*P));
      continue;
    }
    IRProgram Empty;
    Empty.Name = E.Name;
    Programs.push_back(std::move(Empty));
    Notes.push_back("journal entry " + std::to_string(I) + " ('" + E.Name +
                    "') no longer parses; kept as an empty corpus slot");
  }
  if (Span.active()) {
    Span.arg("programs", std::to_string(End - Begin));
    Span.arg("bytes", std::to_string(Bytes));
  }
  return Programs;
}

void appendManifestEntries(CorpusManifest &Manifest,
                           const CorpusJournal &J, size_t Begin,
                           const std::vector<IRProgram> &Programs) {
  for (size_t I = 0; I < Programs.size(); ++I)
    Manifest.Entries.push_back(
        {J.Entries[Begin + I].Name, programFingerprint(Programs[I])});
}

void appendF64(std::string &Out, double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.6f", V);
  Out += Buf;
}

/// Quantifies how the selected set and candidate scores moved between the
/// prior artifact and the warm result. Both live in the same interner.
std::string specLevelDiff(const LearnArtifacts &Prev, const LearnResult &Now,
                          const StringInterner &Strings) {
  std::vector<std::string> Added, Removed;
  size_t Kept = 0;
  for (const Spec &S : Now.Selected.all()) {
    if (Prev.Result.Selected.contains(S))
      ++Kept;
    else
      Added.push_back(S.str(Strings));
  }
  for (const Spec &S : Prev.Result.Selected.all())
    if (!Now.Selected.contains(S))
      Removed.push_back(S.str(Strings));

  std::unordered_map<Spec, double, SpecHash> PrevScore;
  PrevScore.reserve(Prev.Result.Candidates.size());
  for (const ScoredCandidate &C : Prev.Result.Candidates)
    PrevScore.emplace(C.S, C.Score);
  double MaxDrift = 0, SumDrift = 0;
  size_t Scored = 0;
  for (const ScoredCandidate &C : Now.Candidates) {
    auto It = PrevScore.find(C.S);
    if (It == PrevScore.end())
      continue;
    double D = std::fabs(C.Score - It->second);
    MaxDrift = std::max(MaxDrift, D);
    SumDrift += D;
    ++Scored;
  }

  std::string Json = "{\"added\":" + std::to_string(Added.size()) +
                     ",\"removed\":" + std::to_string(Removed.size()) +
                     ",\"kept\":" + std::to_string(Kept) + ",\"added_specs\":[";
  for (size_t I = 0; I < Added.size(); ++I) {
    if (I)
      Json += ',';
    appendJsonQuoted(Json, Added[I]);
  }
  Json += "],\"removed_specs\":[";
  for (size_t I = 0; I < Removed.size(); ++I) {
    if (I)
      Json += ',';
    appendJsonQuoted(Json, Removed[I]);
  }
  Json += "],\"score_drift\":{\"compared\":" + std::to_string(Scored) +
          ",\"max\":";
  appendF64(Json, MaxDrift);
  Json += ",\"mean\":";
  appendF64(Json, Scored ? SumDrift / static_cast<double>(Scored) : 0.0);
  Json += "}}";
  return Json;
}

/// Why the prior artifact cannot seed a warm start ("" when it can).
std::string warmIneligibility(const LearnArtifacts &Prev,
                              const CorpusJournal &J,
                              const LearnerConfig &Config) {
  if (!Prev.Lineage || !Prev.Ledger)
    return "prior artifact was not journal-trained (no lineage/ledger)";
  const JournalLineage &L = *Prev.Lineage;
  if (L.TrainedEntries > J.Entries.size())
    return "prior artifact covers " + std::to_string(L.TrainedEntries) +
           " entries but the journal has only " +
           std::to_string(J.Entries.size()) + " (journal truncated?)";
  if (J.chainChecksum(static_cast<size_t>(L.TrainedEntries)) !=
      L.ChainChecksum)
    return "journal history was rewritten under the prior artifact "
           "(chain checksum mismatch)";
  if (Prev.Config.Seed != Config.Seed)
    return "seed changed";
  if (Prev.Config.DistanceBound != Config.DistanceBound)
    return "distance bound changed";
  if (Prev.Config.TopK != Config.TopK)
    return "top-k changed";
  if (Prev.Config.Scoring != Config.Scoring)
    return "score kind changed";
  if (Prev.Config.ExperimentalPatterns != Config.ExperimentalPatterns)
    return "experimental-pattern setting changed";
  return "";
}

} // namespace

std::string_view incremental::trainModeName(TrainMode Mode) {
  switch (Mode) {
  case TrainMode::Full:
    return "full";
  case TrainMode::Replay:
    return "replay";
  case TrainMode::Warm:
    return "warm";
  case TrainMode::UpToDate:
    return "up-to-date";
  }
  return "?";
}

std::optional<IncrementalOutcome>
incremental::trainFromJournal(const CorpusJournal &J,
                              const LearnerConfig &Config,
                              StringInterner &Strings,
                              std::string_view PrevArtifactBytes,
                              bool ForceReplay, std::string *Err) {
  if (J.Entries.empty()) {
    if (Err)
      *Err = "journal is empty; ingest programs first";
    return std::nullopt;
  }

  IncrementalOutcome Out;
  Out.Lineage.Generation = J.lastGeneration();
  Out.Lineage.ChainChecksum = J.chainChecksum();
  Out.Lineage.TrainedEntries = J.Entries.size();
  Out.Manifest.Generation = J.lastGeneration();

  // Inspect the prior artifact with a throwaway interner: only plain-value
  // fields (lineage, config scalars) are read from this decode, so the
  // training interner is never polluted on the Full/Replay paths.
  bool WarmEligible = false;
  std::string Demotion;
  if (!PrevArtifactBytes.empty()) {
    StringInterner Scratch;
    ArtifactError DecodeErr;
    std::optional<LearnArtifacts> Prev =
        loadLearnArtifacts(PrevArtifactBytes, Scratch, &DecodeErr);
    if (!Prev)
      Demotion = "prior artifact unreadable (" + DecodeErr.str() + ")";
    else if ((Demotion = warmIneligibility(*Prev, J, Config)).empty())
      WarmEligible = true;
    if (WarmEligible && Prev->Lineage->TrainedEntries == J.Entries.size() &&
        Prev->Config.Tau == Config.Tau && !ForceReplay) {
      Out.Mode = TrainMode::UpToDate;
      Out.Notes.push_back("journal generation " +
                          std::to_string(J.lastGeneration()) +
                          " already trained; nothing to do");
      return Out;
    }
  }

  TraceSpan Span("incremental.train");

  if (ForceReplay || !WarmEligible) {
    Out.Mode = ForceReplay ? TrainMode::Replay : TrainMode::Full;
    if (!Demotion.empty() && !ForceReplay)
      Out.Notes.push_back("full retrain: " + Demotion);
    std::vector<IRProgram> Corpus =
        parsePrograms(J, 0, J.Entries.size(), Strings, Out.Notes);
    if (Span.active()) {
      Span.arg("mode", std::string(trainModeName(Out.Mode)));
      Span.arg("programs", std::to_string(Corpus.size()));
    }
    USpecLearner Learner(Strings, Config);
    Out.Result = Learner.learn(Corpus);
    appendManifestEntries(Out.Manifest, J, 0, Corpus);
    Out.ProgramsTrained = Corpus.size();
    return Out;
  }

  // Warm start: this decode targets the real interner — the returned model
  // and ledger must speak the training run's symbols.
  ArtifactError DecodeErr;
  std::optional<LearnArtifacts> Prev =
      loadLearnArtifacts(PrevArtifactBytes, Strings, &DecodeErr);
  if (!Prev) {
    // Unreachable in practice (the scratch decode above succeeded), but a
    // torn read between the two decodes must not crash the trainer.
    if (Err)
      *Err = "prior artifact unreadable: " + DecodeErr.str();
    return std::nullopt;
  }

  size_t Base = static_cast<size_t>(Prev->Lineage->TrainedEntries);
  if (Span.active()) {
    Span.arg("mode", "warm");
    Span.arg("base", std::to_string(Base));
    Span.arg("delta", std::to_string(J.Entries.size() - Base));
  }
  Out.Mode = TrainMode::Warm;
  Out.Manifest.Entries = Prev->Manifest.Entries;
  if (Base == J.Entries.size()) {
    // Only τ changed (the same τ was UpToDate above), and select(τ) ≡
    // learn(τ): re-select from the prior's scored candidates, keeping its
    // model, ledger and in-sample accuracy.
    Out.Result = Prev->Result;
    Out.Result.Selected =
        USpecLearner::select(Out.Result.Candidates, Config.Tau,
                             Config.ExtendConsistency,
                             &Out.Result.AddedByExtension);
    Out.Result.Ledger = std::move(*Prev->Ledger);
    Out.DiffJson = specLevelDiff(*Prev, Out.Result, Strings);
    Out.Notes.push_back("tau changed: re-selected from the prior's " +
                        std::to_string(Out.Result.Candidates.size()) +
                        " scored candidates, no program analyzed");
    return Out;
  }
  std::vector<IRProgram> Delta =
      parsePrograms(J, Base, J.Entries.size(), Strings, Out.Notes);

  WarmStart Seed;
  Seed.Model = std::move(Prev->Result.Model);
  Seed.Ledger = std::move(*Prev->Ledger);
  Seed.BasePrograms = Base;
  Seed.BaseTrainingSamples = Prev->Result.NumTrainingSamples;

  USpecLearner Learner(Strings, Config);
  Out.Result = Learner.learnIncrement(Delta, std::move(Seed));
  appendManifestEntries(Out.Manifest, J, Base, Delta);
  Out.ProgramsTrained = Delta.size();
  Out.DiffJson = specLevelDiff(*Prev, Out.Result, Strings);
  return Out;
}
