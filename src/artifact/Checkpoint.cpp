//===- Checkpoint.cpp - Checkpointed train/select pipeline --------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "artifact/Checkpoint.h"

#include "artifact/Container.h"

#include "support/Trace.h"

using namespace uspec;

namespace {

// Section names. "meta" carries the learner config + run statistics; the
// remaining sections are the typed codecs of ArtifactIO.h.
constexpr std::string_view SecMeta = "meta";
constexpr std::string_view SecStrings = "strs";
constexpr std::string_view SecModel = "modl";
constexpr std::string_view SecCandidates = "cand";
constexpr std::string_view SecSelected = "spec";
constexpr std::string_view SecManifest = "mani";
// Optional sections written only by journal-driven training (DESIGN.md §12).
constexpr std::string_view SecLineage = "jrnl";
constexpr std::string_view SecLedger = "gams";

std::string encodeMeta(const LearnResult &Result,
                       const LearnerConfig &Config) {
  BinaryWriter W;
  W.writeF64(Config.Tau);
  W.writeU64(Config.Seed);
  W.writeVarint(Config.DistanceBound);
  W.writeVarint(Config.TopK);
  W.writeU8(static_cast<uint8_t>(Config.Scoring));
  W.writeU8(Config.ExtendConsistency);
  W.writeU8(Config.ExperimentalPatterns);
  W.writeVarint(Result.NumTrainingSamples);
  W.writeF64(Result.TrainAccuracy);
  W.writeVarint(Result.AddedByExtension);
  return W.take();
}

bool decodeMeta(std::string_view Bytes, LearnArtifacts &Out,
                ArtifactError *Err) {
  BinaryReader R(Bytes, std::string(SecMeta));
  Out.Config.Tau = R.readF64();
  Out.Config.Seed = R.readU64();
  Out.Config.DistanceBound = static_cast<unsigned>(R.readVarint());
  Out.Config.TopK = static_cast<size_t>(R.readVarint());
  uint8_t Scoring = R.readU8();
  if (R.ok() && Scoring > static_cast<uint8_t>(ScoreKind::NameAware))
    R.fail("unknown score kind " + std::to_string(Scoring));
  Out.Config.Scoring = static_cast<ScoreKind>(Scoring);
  Out.Config.ExtendConsistency = R.readU8() != 0;
  Out.Config.ExperimentalPatterns = R.readU8() != 0;
  Out.Result.NumTrainingSamples = static_cast<size_t>(R.readVarint());
  Out.Result.TrainAccuracy = R.readF64();
  Out.Result.AddedByExtension = static_cast<size_t>(R.readVarint());
  if (R.ok() && R.remaining() > 0)
    R.fail(std::to_string(R.remaining()) + " trailing bytes after payload");
  if (!R.ok() && Err)
    *Err = R.error();
  return R.ok();
}

/// Fetches a required section, reporting a header-level error when absent.
std::optional<std::string_view> requireSection(const ArtifactReader &A,
                                               std::string_view Name,
                                               ArtifactError *Err) {
  if (auto S = A.section(Name))
    return S;
  if (Err)
    *Err = {"header", 0, "missing required section '" + std::string(Name) +
                             "'"};
  return std::nullopt;
}

} // namespace

std::string uspec::saveLearnArtifacts(const LearnResult &Result,
                                      const LearnerConfig &Config,
                                      const StringInterner &Strings,
                                      const CorpusManifest &Manifest,
                                      const JournalLineage *Lineage,
                                      const CandidateLedger *Ledger) {
  TraceSpan Span("artifact.save");
  SymbolTableBuilder Syms(Strings);
  // Encode symbol-bearing sections first so the string table is complete.
  std::string Candidates = encodeCandidates(Result.Candidates, Syms);
  std::string Selected = encodeSpecSet(Result.Selected, Syms);
  std::string LedgerBytes = Ledger ? encodeLedger(*Ledger, Syms) : "";

  ArtifactWriter A;
  A.addSection(std::string(SecMeta), encodeMeta(Result, Config));
  A.addSection(std::string(SecStrings), Syms.encode());
  A.addSection(std::string(SecModel), encodeModel(Result.Model));
  A.addSection(std::string(SecCandidates), std::move(Candidates));
  A.addSection(std::string(SecSelected), std::move(Selected));
  A.addSection(std::string(SecManifest), encodeManifest(Manifest));
  if (Lineage)
    A.addSection(std::string(SecLineage), encodeLineage(*Lineage));
  if (Ledger)
    A.addSection(std::string(SecLedger), std::move(LedgerBytes));
  return A.finish();
}

std::optional<LearnArtifacts>
uspec::loadLearnArtifacts(std::string_view Bytes, StringInterner &Strings,
                          ArtifactError *Err) {
  TraceSpan Span("artifact.load");
  if (Span.active())
    Span.arg("bytes", std::to_string(Bytes.size()));
  std::optional<ArtifactReader> A = ArtifactReader::open(Bytes, Err);
  if (!A)
    return std::nullopt;

  LearnArtifacts Out;
  auto Meta = requireSection(*A, SecMeta, Err);
  if (!Meta || !decodeMeta(*Meta, Out, Err))
    return std::nullopt;

  auto StrsBytes = requireSection(*A, SecStrings, Err);
  if (!StrsBytes)
    return std::nullopt;
  std::optional<SymbolTable> Syms = SymbolTable::decode(*StrsBytes, Strings,
                                                        Err);
  if (!Syms)
    return std::nullopt;

  auto ModelBytes = requireSection(*A, SecModel, Err);
  if (!ModelBytes)
    return std::nullopt;
  std::optional<EdgeModel> Model = decodeModel(*ModelBytes, Err);
  if (!Model)
    return std::nullopt;
  Out.Result.Model = std::move(*Model);
  Out.Config.Model = Out.Result.Model.config();

  auto CandBytes = requireSection(*A, SecCandidates, Err);
  if (!CandBytes)
    return std::nullopt;
  auto Candidates = decodeCandidates(*CandBytes, *Syms, Err);
  if (!Candidates)
    return std::nullopt;
  Out.Result.Candidates = std::move(*Candidates);

  auto SpecBytes = requireSection(*A, SecSelected, Err);
  if (!SpecBytes)
    return std::nullopt;
  std::optional<SpecSet> Selected = decodeSpecSet(*SpecBytes, *Syms, Err);
  if (!Selected)
    return std::nullopt;
  Out.Result.Selected = std::move(*Selected);

  auto ManiBytes = requireSection(*A, SecManifest, Err);
  if (!ManiBytes)
    return std::nullopt;
  std::optional<CorpusManifest> Manifest = decodeManifest(*ManiBytes, Err);
  if (!Manifest)
    return std::nullopt;
  Out.Manifest = std::move(*Manifest);

  // Optional incremental-training sections (absent from plain file-list
  // artifacts; present iff the artifact was journal-trained).
  if (auto LineageBytes = A->section(SecLineage)) {
    std::optional<JournalLineage> Lineage = decodeLineage(*LineageBytes, Err);
    if (!Lineage)
      return std::nullopt;
    Out.Lineage = std::move(*Lineage);
  }
  if (auto LedgerBytes = A->section(SecLedger)) {
    std::optional<CandidateLedger> Ledger =
        decodeLedger(*LedgerBytes, *Syms, Err);
    if (!Ledger)
      return std::nullopt;
    Out.Ledger = std::move(*Ledger);
  }
  return Out;
}
