//===- incremental_test.cpp - Journal, delta training, hot-swap ----------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
// Covers the incremental-learning subsystem (src/incremental/ + the serve
// hot-swap, DESIGN.md §12): journal encode/decode and corruption detection,
// chain-checksum prefix integrity, the replay byte-identity contract, warm
// start determinism and demotion, and zero-downtime model swaps (no dropped
// requests, per-generation byte-identity, cache non-bleed). All suite names
// start with "Incremental" so the TSan CI job picks them up.
//
//===----------------------------------------------------------------------===//

#include "artifact/Checkpoint.h"
#include "core/USpec.h"
#include "corpus/Generator.h"
#include "corpus/Profiles.h"
#include "incremental/Journal.h"
#include "incremental/Trainer.h"
#include "service/Server.h"
#include "specs/SpecIO.h"
#include "support/FaultInject.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <unistd.h>

using namespace uspec;
using namespace uspec::incremental;

namespace {

/// Deterministic corpus of MiniLang sources.
std::vector<std::string> makeSources(size_t N, uint64_t Seed) {
  LanguageProfile Profile = javaProfile();
  GeneratorConfig Cfg;
  Rng Rand(Seed);
  std::vector<std::string> Out;
  for (size_t I = 0; I < N; ++I)
    Out.push_back(generateProgramSource(Profile, Cfg, Rand));
  return Out;
}

/// Journal over the first \p N of \p Sources, one generation per
/// \p PerGeneration entries.
CorpusJournal makeJournal(const std::vector<std::string> &Sources, size_t N,
                          size_t PerGeneration = 4) {
  CorpusJournal J;
  for (size_t I = 0; I < N; ++I)
    J.append(1 + I / PerGeneration, "p" + std::to_string(I), Sources[I]);
  return J;
}

/// Serialized artifact of a journal-driven run (what `uspec train
/// --journal` writes): the byte string every identity test compares.
std::string artifactBytes(const IncrementalOutcome &O,
                          const LearnerConfig &Cfg,
                          const StringInterner &Strings) {
  return saveLearnArtifacts(O.Result, Cfg, Strings, O.Manifest, &O.Lineage,
                            &O.Result.Ledger);
}

/// A scratch file path under the test temp dir, removed on destruction.
struct TempFile {
  std::string Path;
  explicit TempFile(const std::string &Name)
      : Path((std::filesystem::temp_directory_path() /
              ("uspec_inc_" + Name + "_" + std::to_string(::getpid())))
                 .string()) {
    std::remove(Path.c_str());
  }
  ~TempFile() { std::remove(Path.c_str()); }
};

/// A program whose analyze answer differs between an API-aware and an
/// API-unaware model (same receiver get/get aliases only with specs).
const char *TinyProgram =
    "class Main { def main() { var m = new Cache(); m.put(\"k\", 1); "
    "var a = m.getIfPresent(\"k\"); var b = m.getIfPresent(\"k\"); } }";

/// Learns a canonical spec set from \p Sources.
service::ServiceSpecs learnSpecs(const std::vector<std::string> &Sources) {
  StringInterner Strings;
  std::vector<IRProgram> Corpus;
  for (size_t I = 0; I < Sources.size(); ++I) {
    DiagnosticSink Diags;
    auto P =
        parseAndLower(Sources[I], "p" + std::to_string(I), Strings, Diags);
    EXPECT_TRUE(P.has_value()) << Diags.render();
    if (P)
      Corpus.push_back(std::move(*P));
  }
  USpecLearner Learner(Strings, LearnerConfig());
  return service::ServiceSpecs::fromSpecSet(Learner.learn(Corpus).Selected,
                                            Strings);
}

std::string analyzeRequest(const std::string &Program) {
  std::string R = "{\"verb\":\"analyze\",\"program\":";
  service::appendJsonString(R, Program);
  R += "}";
  return R;
}

class IncrementalFaultGuard : public ::testing::Test {
protected:
  void SetUp() override { disarmFaults(); }
  void TearDown() override { disarmFaults(); }
};

} // namespace

//===----------------------------------------------------------------------===//
// Journal: encode/decode, integrity, crash-safe save
//===----------------------------------------------------------------------===//

TEST(IncrementalJournal, EncodeDecodeRoundTrip) {
  std::vector<std::string> Sources = makeSources(5, /*Seed=*/3);
  CorpusJournal J = makeJournal(Sources, 5, /*PerGeneration=*/2);
  EXPECT_EQ(J.lastGeneration(), 3u);

  CorpusJournal Back;
  ArtifactError Err;
  ASSERT_TRUE(decodeJournal(encodeJournal(J), Back, &Err)) << Err.str();
  ASSERT_EQ(Back.Entries.size(), J.Entries.size());
  for (size_t I = 0; I < J.Entries.size(); ++I) {
    EXPECT_EQ(Back.Entries[I].Generation, J.Entries[I].Generation);
    EXPECT_EQ(Back.Entries[I].Name, J.Entries[I].Name);
    EXPECT_EQ(Back.Entries[I].Source, J.Entries[I].Source);
    EXPECT_EQ(Back.Entries[I].Checksum, J.Entries[I].Checksum);
  }
  EXPECT_EQ(Back.chainChecksum(), J.chainChecksum());
}

TEST(IncrementalJournal, DetectsCorruption) {
  std::vector<std::string> Sources = makeSources(3, /*Seed=*/5);
  std::string Bytes = encodeJournal(makeJournal(Sources, 3));
  // Flip one byte in the middle (inside an entry's source text): the
  // per-entry checksum must catch it.
  std::string Bad = Bytes;
  Bad[Bytes.size() / 2] ^= 0x40;
  CorpusJournal Out;
  ArtifactError Err;
  EXPECT_FALSE(decodeJournal(Bad, Out, &Err));
  EXPECT_FALSE(Err.str().empty());
  // Truncation is also rejected, never half-decoded.
  EXPECT_FALSE(decodeJournal(
      std::string_view(Bytes).substr(0, Bytes.size() - 3), Out));
}

TEST(IncrementalJournal, CountLieFailsAtTheCount) {
  // Magic, version 1, then a varint claiming 2^24 entries and nothing
  // else. Every entry takes at least 11 bytes, so the count fails before
  // the decoder reserves room for 2^24 entries.
  const std::string Lie("USPJ\x01\x00\x80\x80\x80\x08", 10);
  CorpusJournal Out;
  ArtifactError Err;
  EXPECT_FALSE(decodeJournal(Lie, Out, &Err));
  EXPECT_NE(Err.Message.find("journal entry count 16777216 needs at least"),
            std::string::npos)
      << Err.str();
  EXPECT_EQ(Err.Offset, 10u) << Err.str();
}

TEST(IncrementalJournal, MutationsFailCleanly) {
  std::vector<std::string> Sources = makeSources(4, /*Seed=*/11);
  const std::string Bytes = encodeJournal(makeJournal(Sources, 4, 2));
  CorpusJournal Out;
  ArtifactError Err;
  ASSERT_TRUE(decodeJournal(Bytes, Out, &Err)) << Err.str();

  auto ExpectRejected = [](const std::string &Bad, const std::string &What) {
    CorpusJournal O;
    ArtifactError E;
    EXPECT_FALSE(decodeJournal(Bad, O, &E)) << What;
    EXPECT_FALSE(E.Message.empty()) << What << ": no error message";
  };
  Rng Rand(0x10A4);
  for (int Case = 0; Case < 300; ++Case) {
    std::string Bad = Bytes;
    size_t At = Rand.below(Bad.size());
    Bad[At] = static_cast<char>(Bad[At] ^ (1u << Rand.below(8)));
    ExpectRejected(Bad, "bit flip at " + std::to_string(At));
  }
  for (size_t Len = 0; Len < Bytes.size(); ++Len)
    ExpectRejected(Bytes.substr(0, Len), "truncated to " + std::to_string(Len));
  for (size_t Extra : {1u, 7u, 64u})
    ExpectRejected(Bytes + std::string(Extra, '\x01'),
                   "extended by " + std::to_string(Extra));
}

TEST(IncrementalJournal, ChainChecksumIsPrefixStable) {
  std::vector<std::string> Sources = makeSources(6, /*Seed=*/9);
  CorpusJournal Short = makeJournal(Sources, 4);
  CorpusJournal Long = makeJournal(Sources, 6);
  // Appending never rewrites history: the long journal's prefix chain is
  // the short journal's full chain.
  EXPECT_EQ(Long.chainChecksum(4), Short.chainChecksum());
  EXPECT_NE(Long.chainChecksum(), Short.chainChecksum());
  // Rewriting any prefix entry changes every chain value from there on.
  CorpusJournal Tampered = Long;
  Tampered.Entries[1].Source += " ";
  Tampered.Entries[1].Checksum = JournalEntry::computeChecksum(
      Tampered.Entries[1].Generation, Tampered.Entries[1].Name,
      Tampered.Entries[1].Source);
  EXPECT_NE(Tampered.chainChecksum(4), Short.chainChecksum());
}

TEST_F(IncrementalFaultGuard, JournalSaveIsAllOrNothing) {
  TempFile F("journal");
  std::vector<std::string> Sources = makeSources(3, /*Seed=*/11);
  CorpusJournal J = makeJournal(Sources, 2);
  std::string Err;
  ASSERT_TRUE(saveJournal(F.Path, J, &Err)) << Err;

  // An injected fault at the append site fails the save and leaves the
  // previous journal bytes fully intact.
  CorpusJournal Grown = makeJournal(Sources, 3);
  armFault("journal.append", 1);
  EXPECT_FALSE(saveJournal(F.Path, Grown, &Err));
  disarmFaults();
  CorpusJournal Back;
  ASSERT_TRUE(loadJournal(F.Path, Back, /*MissingOk=*/false, &Err)) << Err;
  EXPECT_EQ(Back.Entries.size(), 2u);

  // With the fault gone the same save succeeds.
  ASSERT_TRUE(saveJournal(F.Path, Grown, &Err)) << Err;
  ASSERT_TRUE(loadJournal(F.Path, Back, /*MissingOk=*/false, &Err)) << Err;
  EXPECT_EQ(Back.Entries.size(), 3u);

  // Missing files: an error unless MissingOk (the first-ingest path).
  TempFile Missing("missing");
  EXPECT_FALSE(loadJournal(Missing.Path, Back, /*MissingOk=*/false));
  ASSERT_TRUE(loadJournal(Missing.Path, Back, /*MissingOk=*/true, &Err))
      << Err;
  EXPECT_TRUE(Back.Entries.empty());
}

//===----------------------------------------------------------------------===//
// Delta training: replay identity, warm determinism, demotion
//===----------------------------------------------------------------------===//

TEST(IncrementalTrain, ReplayIsByteIdenticalToFullAtAnyThreadCount) {
  std::vector<std::string> Sources = makeSources(8, /*Seed=*/21);
  CorpusJournal J = makeJournal(Sources, 8);
  LearnerConfig Cfg;
  Cfg.Seed = 77;

  // Full run from nothing.
  StringInterner S1;
  auto Full = trainFromJournal(J, Cfg, S1, "", /*ForceReplay=*/false);
  ASSERT_TRUE(Full.has_value());
  EXPECT_EQ(Full->Mode, TrainMode::Full);
  EXPECT_EQ(Full->ProgramsTrained, 8u);
  std::string FullBytes = artifactBytes(*Full, Cfg, S1);

  // Replay over the same journal with the prior artifact present: the
  // incremental ground truth — byte-identical output, at 1 and 8 threads.
  for (unsigned Threads : {1u, 8u}) {
    LearnerConfig TCfg = Cfg;
    TCfg.Threads = Threads;
    StringInterner S2;
    auto Replay =
        trainFromJournal(J, TCfg, S2, FullBytes, /*ForceReplay=*/true);
    ASSERT_TRUE(Replay.has_value());
    EXPECT_EQ(Replay->Mode, TrainMode::Replay);
    EXPECT_EQ(artifactBytes(*Replay, TCfg, S2), FullBytes)
        << "replay diverged at " << Threads << " threads";
  }
}

TEST(IncrementalTrain, WarmTrainsOnlyTheDeltaDeterministically) {
  std::vector<std::string> Sources = makeSources(9, /*Seed=*/33);
  CorpusJournal Prefix = makeJournal(Sources, 6, /*PerGeneration=*/3);
  CorpusJournal Whole = makeJournal(Sources, 9, /*PerGeneration=*/3);
  LearnerConfig Cfg;
  Cfg.Seed = 5;

  StringInterner S0;
  auto Base = trainFromJournal(Prefix, Cfg, S0, "", false);
  ASSERT_TRUE(Base.has_value());
  std::string BaseBytes = artifactBytes(*Base, Cfg, S0);

  std::string WarmBytes;
  for (unsigned Threads : {1u, 8u}) {
    LearnerConfig TCfg = Cfg;
    TCfg.Threads = Threads;
    StringInterner S1;
    auto Warm = trainFromJournal(Whole, TCfg, S1, BaseBytes, false);
    ASSERT_TRUE(Warm.has_value());
    EXPECT_EQ(Warm->Mode, TrainMode::Warm);
    EXPECT_EQ(Warm->ProgramsTrained, 3u); // delta only
    EXPECT_EQ(Warm->Lineage.Generation, Whole.lastGeneration());
    EXPECT_EQ(Warm->Lineage.TrainedEntries, Whole.Entries.size());
    EXPECT_EQ(Warm->Lineage.ChainChecksum, Whole.chainChecksum());
    // The quantified diff is always emitted for a warm run and is valid
    // JSON with the documented fields.
    service::JsonValue Diff;
    std::string Err;
    ASSERT_TRUE(service::parseJson(Warm->DiffJson, Diff, &Err)) << Err;
    for (const char *Key :
         {"added", "removed", "kept", "added_specs", "removed_specs",
          "score_drift"})
      EXPECT_NE(Diff.find(Key), nullptr) << Key;
    // The manifest keeps the base prefix and appends the delta.
    ASSERT_EQ(Warm->Manifest.Entries.size(), 9u);
    EXPECT_EQ(Warm->Manifest.Entries[0].Name, "p0");
    std::string Bytes = artifactBytes(*Warm, TCfg, S1);
    if (WarmBytes.empty())
      WarmBytes = Bytes;
    else
      EXPECT_EQ(Bytes, WarmBytes) << "warm start thread-count dependent";
  }

  // The warm artifact is itself a valid lineage anchor: same journal again
  // is up to date.
  StringInterner S2;
  auto Again = trainFromJournal(Whole, Cfg, S2, WarmBytes, false);
  ASSERT_TRUE(Again.has_value());
  EXPECT_EQ(Again->Mode, TrainMode::UpToDate);
  EXPECT_EQ(Again->ProgramsTrained, 0u);
}

namespace {

/// The bit patterns of \p Values, for bit-for-bit comparisons.
std::vector<uint64_t> bitsOf(std::span<const double> Values) {
  std::vector<uint64_t> Bits;
  for (double V : Values)
    Bits.push_back(std::bit_cast<uint64_t>(V));
  return Bits;
}

} // namespace

TEST(IncrementalTrain, WarmLedgerIsThePriorsThenTheDeltasEvidence) {
  // A warm start scores only the delta programs' matches, with the ϕ it
  // continued training, and never touches the carried ledger. So each
  // carried entry's ΓS is the prior artifact's, bit for bit, followed by
  // the delta's own confidences; a new entry holds the delta's alone; and
  // match and program counts add.
  std::vector<std::string> Sources = makeSources(9, /*Seed=*/33);
  CorpusJournal Prefix = makeJournal(Sources, 6, /*PerGeneration=*/3);
  CorpusJournal Whole = makeJournal(Sources, 9, /*PerGeneration=*/3);
  LearnerConfig Cfg;
  Cfg.Seed = 5;

  StringInterner S0;
  auto Base = trainFromJournal(Prefix, Cfg, S0, "", false);
  ASSERT_TRUE(Base.has_value());
  std::string BaseBytes = artifactBytes(*Base, Cfg, S0);
  const size_t BasePrograms = Prefix.Entries.size();

  for (unsigned Threads : {1u, 8u}) {
    LearnerConfig TCfg = Cfg;
    TCfg.Threads = Threads;
    StringInterner S1;
    auto Warm = trainFromJournal(Whole, TCfg, S1, BaseBytes, false);
    ASSERT_TRUE(Warm.has_value());
    ASSERT_EQ(Warm->Mode, TrainMode::Warm);

    // The prior artifact's ledger, decoded into the warm run's symbols.
    std::optional<LearnArtifacts> Prior = loadLearnArtifacts(BaseBytes, S1);
    ASSERT_TRUE(Prior.has_value() && Prior->Ledger.has_value());
    const std::vector<CandidateLedger::Entry> &Carried =
        Prior->Ledger->Entries;
    ASSERT_FALSE(Carried.empty());

    // The delta programs' own evidence: a collector fed only their graphs,
    // with their global program ids, taken with the warm ϕ.
    CandidateCollector Delta(TCfg.DistanceBound, TCfg.ExperimentalPatterns);
    for (size_t I = BasePrograms; I < Whole.Entries.size(); ++I) {
      DiagnosticSink Diags;
      auto P = parseAndLower(Whole.Entries[I].Source, Whole.Entries[I].Name,
                             S1, Diags);
      ASSERT_TRUE(P.has_value()) << Diags.render();
      EventGraph G = EventGraph::build(analyzeProgram(*P, S1, TCfg.Analysis));
      ASSERT_TRUE(Delta.addGraph(G, static_cast<uint32_t>(I)));
    }
    CandidateLedger Own = Delta.take(Warm->Result.Model);
    ASSERT_FALSE(Own.Entries.empty());
    std::unordered_map<Spec, const CandidateLedger::Entry *, SpecHash> OwnOf;
    for (const CandidateLedger::Entry &E : Own.Entries)
      OwnOf.emplace(E.S, &E);

    const std::vector<CandidateLedger::Entry> &Got =
        Warm->Result.Ledger.Entries;
    ASSERT_GE(Got.size(), Carried.size());
    size_t Extended = 0;
    std::unordered_set<Spec, SpecHash> CarriedSpecs;
    for (size_t I = 0; I < Carried.size(); ++I) {
      const CandidateLedger::Entry &E = Got[I], &C = Carried[I];
      ASSERT_EQ(E.S, C.S) << "carried slot " << I;
      CarriedSpecs.insert(C.S);
      const size_t Split = C.Confidences.size();
      ASSERT_GE(E.Confidences.size(), Split) << E.S.str(S1);
      std::span<const double> Head(E.Confidences.data(), Split);
      std::span<const double> Tail(E.Confidences.data() + Split,
                                   E.Confidences.size() - Split);
      EXPECT_EQ(bitsOf(Head), bitsOf(C.Confidences))
          << "carried ΓS rescored: " << E.S.str(S1);
      auto It = OwnOf.find(E.S);
      const CandidateLedger::Entry *O = It == OwnOf.end() ? nullptr
                                                          : It->second;
      EXPECT_EQ(bitsOf(Tail), O ? bitsOf(O->Confidences)
                                : std::vector<uint64_t>())
          << "delta ΓS: " << E.S.str(S1);
      EXPECT_EQ(E.Matches, C.Matches + (O ? O->Matches : 0)) << E.S.str(S1);
      EXPECT_EQ(E.Programs, C.Programs + (O ? O->Programs : 0))
          << E.S.str(S1);
      Extended += O != nullptr;
    }
    EXPECT_GT(Extended, 0u) << "the delta must extend a carried entry";

    // New entries: the delta's candidates that were not carried, in the
    // delta's first-seen order, with the delta's evidence alone.
    std::vector<const CandidateLedger::Entry *> WantNew;
    for (const CandidateLedger::Entry &E : Own.Entries)
      if (!CarriedSpecs.count(E.S))
        WantNew.push_back(&E);
    ASSERT_EQ(Got.size(), Carried.size() + WantNew.size());
    for (size_t I = 0; I < WantNew.size(); ++I) {
      const CandidateLedger::Entry &E = Got[Carried.size() + I];
      const CandidateLedger::Entry &O = *WantNew[I];
      ASSERT_EQ(E.S, O.S) << "new slot " << I;
      EXPECT_EQ(bitsOf(E.Confidences), bitsOf(O.Confidences)) << E.S.str(S1);
      EXPECT_EQ(E.Matches, O.Matches) << E.S.str(S1);
      EXPECT_EQ(E.Programs, O.Programs) << E.S.str(S1);
    }

    // This run's counters are the delta's alone.
    EXPECT_EQ(Warm->Result.Stats.Matches, Delta.numMatches());
    EXPECT_EQ(Warm->Result.Stats.ReceiverPairs, Delta.numReceiverPairs());
  }
}

TEST(IncrementalTrain, WarmDemotesToFullOnMismatch) {
  std::vector<std::string> Sources = makeSources(6, /*Seed=*/41);
  CorpusJournal Prefix = makeJournal(Sources, 4);
  CorpusJournal Whole = makeJournal(Sources, 6);
  LearnerConfig Cfg;
  Cfg.Seed = 5;
  StringInterner S0;
  auto Base = trainFromJournal(Prefix, Cfg, S0, "", false);
  ASSERT_TRUE(Base.has_value());
  std::string BaseBytes = artifactBytes(*Base, Cfg, S0);

  // Config drift: a different seed invalidates the prior model.
  {
    LearnerConfig Other = Cfg;
    Other.Seed = 6;
    StringInterner S;
    auto Out = trainFromJournal(Whole, Other, S, BaseBytes, false);
    ASSERT_TRUE(Out.has_value());
    EXPECT_EQ(Out->Mode, TrainMode::Full);
    EXPECT_FALSE(Out->Notes.empty());
  }
  // Rewritten history: tamper with a trained-prefix entry.
  {
    CorpusJournal Tampered = Whole;
    Tampered.Entries[0].Source += " ";
    Tampered.Entries[0].Checksum = JournalEntry::computeChecksum(
        Tampered.Entries[0].Generation, Tampered.Entries[0].Name,
        Tampered.Entries[0].Source);
    StringInterner S;
    auto Out = trainFromJournal(Tampered, Cfg, S, BaseBytes, false);
    ASSERT_TRUE(Out.has_value());
    EXPECT_EQ(Out->Mode, TrainMode::Full);
    EXPECT_FALSE(Out->Notes.empty());
  }
  // Garbage prior bytes: full, not an error.
  {
    StringInterner S;
    auto Out = trainFromJournal(Whole, Cfg, S, "not an artifact", false);
    ASSERT_TRUE(Out.has_value());
    EXPECT_EQ(Out->Mode, TrainMode::Full);
  }
  // Empty journal is the only hard failure.
  {
    StringInterner S;
    std::string Err;
    EXPECT_FALSE(
        trainFromJournal(CorpusJournal(), Cfg, S, "", false, &Err));
    EXPECT_FALSE(Err.empty());
  }
}

// `train --journal` with nothing new but a different τ is not up to date:
// it re-selects from the prior's scored candidates (select(τ) ≡ learn(τ))
// without analyzing a program again, and keeps the prior's accuracy.
TEST(IncrementalTrain, TauChangeReselectsFromThePriorCandidates) {
  std::vector<std::string> Sources = makeSources(60, /*Seed=*/5);
  CorpusJournal J = makeJournal(Sources, 60);
  LearnerConfig Cfg;
  Cfg.Tau = 0.6;
  StringInterner S0;
  auto Base = trainFromJournal(J, Cfg, S0, "", false);
  ASSERT_TRUE(Base.has_value());
  std::string BaseBytes = artifactBytes(*Base, Cfg, S0);

  LearnerConfig High = Cfg;
  High.Tau = 0.95;
  StringInterner S1;
  auto Out = trainFromJournal(J, High, S1, BaseBytes, false);
  ASSERT_TRUE(Out.has_value());
  EXPECT_NE(Out->Mode, TrainMode::UpToDate);
  EXPECT_EQ(Out->ProgramsTrained, 0u);
  EXPECT_FALSE(Out->Notes.empty());

  StringInterner S2;
  auto Prior = loadLearnArtifacts(BaseBytes, S2);
  ASSERT_TRUE(Prior.has_value());
  SpecSet Expected = USpecLearner::select(Prior->Result.Candidates, 0.95,
                                          High.ExtendConsistency);
  EXPECT_EQ(serializeSpecs(Out->Result.Selected, S1),
            serializeSpecs(Expected, S2));
  EXPECT_LT(Out->Result.Selected.size(), Base->Result.Selected.size())
      << "the corpus must have candidates between the two thresholds";
  EXPECT_EQ(Out->Result.TrainAccuracy, Base->Result.TrainAccuracy);
  EXPECT_EQ(Out->Result.NumTrainingSamples, Base->Result.NumTrainingSamples);

  // A full train at 0.95 selects the same set.
  StringInterner S3;
  auto Full = trainFromJournal(J, High, S3, "", false);
  ASSERT_TRUE(Full.has_value());
  EXPECT_EQ(serializeSpecs(Out->Result.Selected, S1),
            serializeSpecs(Full->Result.Selected, S3));

  // The re-selected artifact anchors the next run: 0.95 again is up to date.
  std::string HighBytes = artifactBytes(*Out, High, S1);
  StringInterner S4;
  auto Again = trainFromJournal(J, High, S4, HighBytes, false);
  ASSERT_TRUE(Again.has_value());
  EXPECT_EQ(Again->Mode, TrainMode::UpToDate);
}

TEST(IncrementalTrain, LineageAndLedgerSurviveTheArtifact) {
  std::vector<std::string> Sources = makeSources(4, /*Seed=*/51);
  CorpusJournal J = makeJournal(Sources, 4, /*PerGeneration=*/2);
  LearnerConfig Cfg;
  StringInterner S0;
  auto Out = trainFromJournal(J, Cfg, S0, "", false);
  ASSERT_TRUE(Out.has_value());
  std::string Bytes = artifactBytes(*Out, Cfg, S0);

  StringInterner S1;
  ArtifactError Err;
  auto Loaded = loadLearnArtifacts(Bytes, S1, &Err);
  ASSERT_TRUE(Loaded.has_value()) << Err.str();
  ASSERT_TRUE(Loaded->Lineage.has_value());
  EXPECT_EQ(*Loaded->Lineage, Out->Lineage);
  ASSERT_TRUE(Loaded->Ledger.has_value());
  EXPECT_EQ(Loaded->Ledger->Entries.size(),
            Out->Result.Ledger.Entries.size());
  EXPECT_EQ(Loaded->Manifest.Generation, J.lastGeneration());

  // A plain (non-journal) artifact carries neither section.
  StringInterner S2;
  std::string Plain =
      saveLearnArtifacts(Out->Result, Cfg, S0, Out->Manifest);
  auto PlainLoaded = loadLearnArtifacts(Plain, S2, &Err);
  ASSERT_TRUE(PlainLoaded.has_value()) << Err.str();
  EXPECT_FALSE(PlainLoaded->Lineage.has_value());
  EXPECT_FALSE(PlainLoaded->Ledger.has_value());
}

//===----------------------------------------------------------------------===//
// Serve: zero-downtime hot-swap
//===----------------------------------------------------------------------===//

TEST(IncrementalServe, HotSwapDropsNothingAndKeepsGenerationsByteIdentical) {
  service::ServiceSpecs Aware = learnSpecs(makeSources(24, /*Seed=*/61));
  service::ServiceSpecs Unaware; // empty spec set: API-unaware answers

  // Reference servers pinned to one generation each: their answers define
  // per-generation byte-identity.
  std::string Req = analyzeRequest(TinyProgram);
  std::string ExpectedA, ExpectedB;
  {
    service::ServerConfig Cfg;
    Cfg.Workers = 1;
    service::Server RefA(Cfg, service::ModelState::make(Aware, 1, "a"));
    service::Server RefB(Cfg, service::ModelState::make(Unaware, 2, "b"));
    ExpectedA = RefA.handle(Req);
    ExpectedB = RefB.handle(Req);
    RefA.drain();
    RefB.drain();
  }
  ASSERT_NE(ExpectedA, ExpectedB)
      << "models must answer differently for the bleed check to mean "
         "anything";

  service::ServerConfig Cfg;
  Cfg.Workers = 4;
  Cfg.QueueCapacity = 4096;
  service::Server S(Cfg, service::ModelState::make(Aware, 1, "a"));

  constexpr int ThreadCount = 4, PerThread = 40;
  std::atomic<int> Dropped{0}, Mismatched{0};
  std::vector<std::thread> Clients;
  for (int T = 0; T < ThreadCount; ++T)
    Clients.emplace_back([&] {
      for (int I = 0; I < PerThread; ++I) {
        std::string R = S.handle(Req);
        if (R.find("\"ok\":true") == std::string::npos)
          Dropped.fetch_add(1);
        else if (R != ExpectedA && R != ExpectedB)
          Mismatched.fetch_add(1);
      }
    });

  // Four swaps while the clients hammer: every request lands on one
  // generation or the other, never an error, never a hybrid.
  for (int Swap = 0; Swap < 4; ++Swap) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    S.swapModel(Swap % 2 == 0
                    ? service::ModelState::make(Unaware, 2, "b")
                    : service::ModelState::make(Aware, 1, "a"));
  }
  for (std::thread &T : Clients)
    T.join();

  EXPECT_EQ(Dropped.load(), 0);
  EXPECT_EQ(Mismatched.load(), 0);
  EXPECT_EQ(S.metrics().modelReloadCount(), 4u);
  S.drain();
}

TEST(IncrementalServe, CacheEntriesDoNotBleedAcrossGenerations) {
  service::ServiceSpecs Aware = learnSpecs(makeSources(24, /*Seed=*/61));
  service::ServiceSpecs Unaware;
  std::string Req = analyzeRequest(TinyProgram);

  service::ServerConfig Cfg;
  Cfg.Workers = 1;
  Cfg.CacheCapacity = 64;
  service::Server S(Cfg, service::ModelState::make(Aware, 1, "a"));

  std::string A1 = S.handle(Req);
  std::string A2 = S.handle(Req); // cache hit under generation 1
  EXPECT_EQ(A1, A2);
  uint64_t HitsBefore = S.metrics().cacheHitCount();
  EXPECT_GE(HitsBefore, 1u);

  // Swap: the same program must be re-analyzed under the new model, not
  // answered from generation 1's cache entry.
  S.swapModel(service::ModelState::make(Unaware, 2, "b"));
  std::string B1 = S.handle(Req);
  EXPECT_NE(B1, A1);

  // Swap back: generation 1's answer returns byte-identically (whether
  // from cache or a fresh analysis).
  S.swapModel(service::ModelState::make(Aware, 1, "a"));
  EXPECT_EQ(S.handle(Req), A1);
  S.drain();
}

TEST_F(IncrementalFaultGuard, ReloadFailureKeepsServingTheOldModel) {
  TempFile Model("model");
  service::ServiceSpecs Aware = learnSpecs(makeSources(24, /*Seed=*/61));
  {
    std::ofstream Out(Model.Path, std::ios::binary);
    Out << Aware.Text;
  }

  service::ServerConfig Cfg;
  Cfg.Workers = 1;
  Cfg.ModelPath = Model.Path;
  service::Server S(Cfg, service::ModelState::make(Aware, 1, "a"));
  uint64_t Checksum = S.model()->Checksum;

  // Injected load failure: reload reports the error, the serving model and
  // the reload counter are untouched.
  armFault("service.reload.load", 1);
  std::string Err;
  EXPECT_FALSE(S.reloadModel("", &Err));
  EXPECT_FALSE(Err.empty());
  disarmFaults();
  EXPECT_EQ(S.model()->Checksum, Checksum);
  EXPECT_EQ(S.metrics().modelReloadCount(), 0u);

  // The protocol surface: a bad path answers reload_failed, a good one
  // swaps and reports the new identity.
  std::string Bad =
      S.handle("{\"verb\":\"reload\",\"path\":\"/nonexistent.uspb\"}");
  EXPECT_NE(Bad.find("\"kind\":\"reload_failed\""), std::string::npos)
      << Bad;
  std::string Ok = S.handle("{\"verb\":\"reload\"}"); // ServerConfig path
  EXPECT_NE(Ok.find("\"ok\":true"), std::string::npos) << Ok;
  EXPECT_EQ(S.metrics().modelReloadCount(), 1u);
  S.drain();
}
