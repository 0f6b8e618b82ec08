//===- fault_test.cpp - Fault injection, budgets and crash safety --------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
// Covers the robustness layer (DESIGN.md §10): the deterministic fault-
// injection registry, cooperative step/deadline budgets, bounded-analysis
// ⊤ degradation, per-program quarantine in learn(), crash-safe atomic
// artifact writes (including a kill-at-every-site subprocess sweep over the
// real `uspec` binary with `train --resume` recovery), and the hardened
// service (watchdog deadlines, worker-death recovery, uncached bounded
// results). All suite names start with "Fault" so the CI fault-injection
// and sanitizer jobs pick them up by regex.
//
//===----------------------------------------------------------------------===//

#include "artifact/ArtifactIO.h"
#include "core/USpec.h"
#include "corpus/Generator.h"
#include "corpus/Profiles.h"
#include "pointsto/Analysis.h"
#include "pointsto/ConstraintSolver.h"
#include "service/Server.h"
#include "specs/SpecIO.h"
#include "support/Budget.h"
#include "support/FaultInject.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <sys/wait.h>
#include <unordered_map>
#include <vector>

using namespace uspec;

namespace {

/// Every fixtureless test neutralizes ambient USPEC_FAULT schedules and any
/// schedule a previous test armed — the registry is process-global.
struct FaultTest : ::testing::Test {
  void SetUp() override { disarmFaults(); }
  void TearDown() override { disarmFaults(); }
};

struct FaultBudget : FaultTest {};
struct FaultRegistry : FaultTest {};
struct FaultAnalysis : FaultTest {};
struct FaultLearner : FaultTest {};
struct FaultArtifact : FaultTest {};
struct FaultService : FaultTest {};
struct FaultProtocol : FaultTest {};
struct FaultCli : FaultTest {};

std::vector<std::string> makeSources(size_t N, uint64_t Seed) {
  LanguageProfile Profile = javaProfile();
  GeneratorConfig Cfg;
  Rng Rand(Seed);
  std::vector<std::string> Out;
  for (size_t I = 0; I < N; ++I)
    Out.push_back(generateProgramSource(Profile, Cfg, Rand));
  return Out;
}

std::vector<IRProgram> parseCorpus(const std::vector<std::string> &Sources,
                                   StringInterner &Strings) {
  std::vector<IRProgram> Corpus;
  for (size_t I = 0; I < Sources.size(); ++I) {
    DiagnosticSink Diags;
    auto P = parseAndLower(Sources[I], "p" + std::to_string(I), Strings,
                           Diags);
    EXPECT_TRUE(P.has_value()) << Diags.render();
    if (P)
      Corpus.push_back(std::move(*P));
  }
  return Corpus;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::string Out((std::istreambuf_iterator<char>(In)),
                  std::istreambuf_iterator<char>());
  return Out;
}

const char *TinyProgram =
    "class Main { def main() { var m = new Cache(); m.put(\"k\", 1); "
    "var a = m.getIfPresent(\"k\"); var b = m.getIfPresent(\"k\"); } }";

} // namespace

//===----------------------------------------------------------------------===//
// Budgets
//===----------------------------------------------------------------------===//

TEST_F(FaultBudget, StepLimitExhaustsAndSticks) {
  Budget B = Budget::steps(3);
  EXPECT_TRUE(B.consume());
  EXPECT_TRUE(B.consume());
  EXPECT_TRUE(B.consume());
  EXPECT_FALSE(B.exhausted());
  EXPECT_FALSE(B.consume()); // 4th step crosses the limit
  EXPECT_TRUE(B.exhausted());
  EXPECT_STREQ(B.reason(), "steps");
  // Monotonic: once exhausted, stays exhausted.
  EXPECT_FALSE(B.consume());
  EXPECT_FALSE(B.checkpoint());
}

TEST_F(FaultBudget, UnlimitedBudgetNeverExhausts) {
  Budget B;
  for (int I = 0; I < 10000; ++I)
    EXPECT_TRUE(B.consume());
  EXPECT_FALSE(B.exhausted());
  EXPECT_STREQ(B.reason(), "");
  EXPECT_EQ(B.used(), 10000u);
}

TEST_F(FaultBudget, ExpiredDeadlineFiresAtNextClockPoll) {
  Budget B;
  B.setDeadlinePoint(Budget::Clock::now() - std::chrono::milliseconds(1));
  // The clock is only polled every ClockPollInterval steps; checkpoint()
  // counts as a step, so a checkpoint-only loop still hits the poll.
  bool Stopped = false;
  for (uint64_t I = 0; I <= Budget::ClockPollInterval + 1; ++I) {
    if (!B.checkpoint()) {
      Stopped = true;
      break;
    }
  }
  EXPECT_TRUE(Stopped);
  EXPECT_TRUE(B.exhausted());
  EXPECT_STREQ(B.reason(), "deadline");
}

TEST_F(FaultBudget, BulkConsumeCountsAllSteps) {
  Budget B = Budget::steps(100);
  EXPECT_TRUE(B.consume(100));
  EXPECT_FALSE(B.consume(1));
  EXPECT_STREQ(B.reason(), "steps");
}

//===----------------------------------------------------------------------===//
// Fault registry
//===----------------------------------------------------------------------===//

TEST_F(FaultRegistry, CounterSiteThrowsOnExactlyTheNthHit) {
  armFault("t.counter", 3);
  EXPECT_FALSE(faultFires("t.counter"));
  EXPECT_FALSE(faultFires("t.counter"));
  EXPECT_THROW(faultFires("t.counter"), FaultInjected);
  // One-shot: the counter moved past Nth.
  EXPECT_FALSE(faultFires("t.counter"));
}

TEST_F(FaultRegistry, SoftActionReportsFiredWithoutThrowing) {
  armFault("t.soft", 1, FaultAction::Soft);
  EXPECT_TRUE(faultFires("t.soft"));
  EXPECT_FALSE(faultFires("t.soft"));
}

TEST_F(FaultRegistry, IndexedSiteFiresOnlyAtArmedIndex) {
  armFault("t.indexed", 2, FaultAction::Soft);
  EXPECT_FALSE(faultFiresAt("t.indexed", 0));
  EXPECT_FALSE(faultFiresAt("t.indexed", 1));
  EXPECT_TRUE(faultFiresAt("t.indexed", 2));
  // Unlike counter sites, indexed sites fire every time the index matches.
  EXPECT_TRUE(faultFiresAt("t.indexed", 2));
  EXPECT_FALSE(faultFiresAt("t.indexed", 3));
}

TEST_F(FaultRegistry, UnarmedSitesNeverFire) {
  armFault("t.other", 1, FaultAction::Soft);
  EXPECT_FALSE(faultFires("t.unrelated"));
  EXPECT_FALSE(faultFiresAt("t.unrelated", 1));
}

TEST_F(FaultRegistry, DisarmClearsSchedulesAndCounters) {
  armFault("t.gone", 1, FaultAction::Soft);
  disarmFaults();
  EXPECT_FALSE(faultFires("t.gone"));
}

TEST_F(FaultRegistry, SpecParsingArmsMultipleSites) {
  EXPECT_TRUE(armFaultsFromSpec("a.x:1:soft,b.y:2:soft"));
  EXPECT_TRUE(faultFires("a.x"));
  EXPECT_FALSE(faultFires("b.y"));
  EXPECT_TRUE(faultFires("b.y"));
}

TEST_F(FaultRegistry, MalformedSpecIsRejected) {
  EXPECT_FALSE(armFaultsFromSpec("nocolon"));
  EXPECT_FALSE(armFaultsFromSpec("site:notanumber"));
  EXPECT_FALSE(armFaultsFromSpec("site:1:frobnicate"));
  EXPECT_FALSE(armFaultsFromSpec(":1"));
}

//===----------------------------------------------------------------------===//
// Bounded analysis: sound ⊤ degradation
//===----------------------------------------------------------------------===//

TEST_F(FaultAnalysis, ExhaustedStepBudgetYieldsBoundedTop) {
  StringInterner Strings;
  DiagnosticSink Diags;
  auto P = parseAndLower(TinyProgram, "tiny", Strings, Diags);
  ASSERT_TRUE(P.has_value()) << Diags.render();

  AnalysisOptions Unbounded;
  AnalysisResult Full = analyzeProgram(*P, Strings, Unbounded);
  ASSERT_FALSE(Full.Bounded);

  Budget B = Budget::steps(1);
  AnalysisOptions Opts;
  Opts.StepBudget = &B;
  AnalysisResult Bounded = analyzeProgram(*P, Strings, Opts);
  EXPECT_TRUE(Bounded.Bounded);
  EXPECT_TRUE(B.exhausted());

  // ⊤ is a sound over-approximation: every pair the exact analysis reports
  // as may-alias is also reported by the bounded one.
  EventGraph G = EventGraph::build(Full);
  const auto &Sites = G.callSites();
  for (size_t I = 0; I < Sites.size(); ++I)
    for (size_t J = I + 1; J < Sites.size(); ++J) {
      if (Sites[I].Ret == InvalidEvent || Sites[J].Ret == InvalidEvent)
        continue;
      if (Full.retMayAlias(Sites[I].Ret, Sites[J].Ret)) {
        EXPECT_TRUE(Bounded.retMayAlias(Sites[I].Ret, Sites[J].Ret));
      }
    }
}

TEST_F(FaultAnalysis, SolverStepBudgetYieldsBoundedTop) {
  StringInterner Strings;
  DiagnosticSink Diags;
  auto P = parseAndLower(TinyProgram, "tiny", Strings, Diags);
  ASSERT_TRUE(P.has_value()) << Diags.render();

  ConstraintResult Full = solveConstraints(*P, Strings);
  ASSERT_FALSE(Full.Bounded);

  Budget B = Budget::steps(1);
  ConstraintResult Bounded = solveConstraints(*P, Strings, &B);
  EXPECT_TRUE(Bounded.Bounded);
  // ⊤: every may-query answers true, a superset of the exact result.
  EXPECT_TRUE(Bounded.retMayAlias(0, 1));
  EXPECT_TRUE(Bounded.recvMayAlias(0, 1));
}

TEST_F(FaultAnalysis, SolverInjectedSoftFaultDegradesToBounded) {
  StringInterner Strings;
  DiagnosticSink Diags;
  auto P = parseAndLower(TinyProgram, "tiny", Strings, Diags);
  ASSERT_TRUE(P.has_value()) << Diags.render();

  armFault("solver.step", 1, FaultAction::Soft);
  ConstraintResult R = solveConstraints(*P, Strings);
  EXPECT_TRUE(R.Bounded);
  EXPECT_TRUE(R.retMayAlias(0, 1));
}

TEST_F(FaultAnalysis, AnalysisInjectedSoftFaultDegradesToBounded) {
  StringInterner Strings;
  DiagnosticSink Diags;
  auto P = parseAndLower(TinyProgram, "tiny", Strings, Diags);
  ASSERT_TRUE(P.has_value()) << Diags.render();

  armFault("analysis.step", 1, FaultAction::Soft);
  AnalysisResult R = analyzeProgram(*P, Strings, AnalysisOptions());
  EXPECT_TRUE(R.Bounded);
}

TEST_F(FaultAnalysis, GenerousBudgetLeavesResultExact) {
  StringInterner Strings;
  DiagnosticSink Diags;
  auto P = parseAndLower(TinyProgram, "tiny", Strings, Diags);
  ASSERT_TRUE(P.has_value()) << Diags.render();

  Budget B = Budget::steps(1u << 20);
  AnalysisOptions Opts;
  Opts.StepBudget = &B;
  AnalysisResult R = analyzeProgram(*P, Strings, Opts);
  EXPECT_FALSE(R.Bounded);
  EXPECT_FALSE(B.exhausted());
  EXPECT_GT(B.used(), 0u);
}

//===----------------------------------------------------------------------===//
// Learner quarantine
//===----------------------------------------------------------------------===//

TEST_F(FaultLearner, TinyBudgetQuarantinesEveryProgramWithoutAborting) {
  StringInterner Strings;
  auto Sources = makeSources(4, 11);
  auto Corpus = parseCorpus(Sources, Strings);

  LearnerConfig Cfg;
  Cfg.ProgramStepBudget = 1;
  USpecLearner Learner(Strings, Cfg);
  LearnResult R = Learner.learn(Corpus);
  EXPECT_TRUE(R.Selected.empty());
  ASSERT_EQ(R.Stats.Quarantined.size(), Corpus.size());
  for (size_t I = 0; I < R.Stats.Quarantined.size(); ++I) {
    EXPECT_EQ(R.Stats.Quarantined[I].Program, I);
    EXPECT_EQ(R.Stats.Quarantined[I].Reason, "analysis:steps");
  }
}

TEST_F(FaultLearner, InjectedQuarantineIsDeterministicAcrossThreadCounts) {
  StringInterner Strings;
  auto Sources = makeSources(8, 23);
  auto Corpus = parseCorpus(Sources, Strings);

  armFault("learn.analyze", 3); // quarantine corpus index 3 on every run

  auto Run = [&](unsigned Threads) {
    LearnerConfig Cfg;
    Cfg.Threads = Threads;
    USpecLearner Learner(Strings, Cfg);
    return Learner.learn(Corpus);
  };
  LearnResult R1 = Run(1);
  LearnResult R8 = Run(8);

  EXPECT_EQ(serializeSpecs(R1.Selected, Strings),
            serializeSpecs(R8.Selected, Strings));
  ASSERT_EQ(R1.Candidates.size(), R8.Candidates.size());
  for (size_t I = 0; I < R1.Candidates.size(); ++I) {
    EXPECT_EQ(R1.Candidates[I].S.str(Strings), R8.Candidates[I].S.str(Strings));
    EXPECT_EQ(R1.Candidates[I].Score, R8.Candidates[I].Score);
    EXPECT_EQ(R1.Candidates[I].Matches, R8.Candidates[I].Matches);
  }
  ASSERT_EQ(R1.Stats.Quarantined.size(), 1u);
  ASSERT_EQ(R8.Stats.Quarantined.size(), 1u);
  EXPECT_EQ(R1.Stats.Quarantined[0].Program, 3u);
  EXPECT_EQ(R1.Stats.Quarantined[0].Reason, "fault:learn.analyze");
  EXPECT_EQ(R8.Stats.Quarantined[0].Reason, "fault:learn.analyze");
}

TEST_F(FaultLearner, SampleFaultLeavesNoRowsBehind) {
  // `learn.sample` fires after program 3's samples were appended to its
  // chunk's training set. Quarantine must cut them back out, so the run
  // equals one whose program 3 failed before it was analyzed. With 20
  // programs, program 3 sits mid-chunk at 1 thread and at 8 ([2, 5)).
  StringInterner Strings;
  auto Corpus = parseCorpus(makeSources(20, 23), Strings);
  auto Run = [&](const char *Site, unsigned Threads) {
    disarmFaults();
    if (Site)
      armFault(Site, 3);
    LearnerConfig Cfg;
    Cfg.Threads = Threads;
    return USpecLearner(Strings, Cfg).learn(Corpus);
  };
  size_t CleanSamples = Run(nullptr, 1).NumTrainingSamples;
  for (unsigned Threads : {1u, 8u}) {
    LearnResult A = Run("learn.analyze", Threads);
    LearnResult S = Run("learn.sample", Threads);
    EXPECT_LT(A.NumTrainingSamples, CleanSamples);
    EXPECT_EQ(S.NumTrainingSamples, A.NumTrainingSamples) << Threads;
    EXPECT_EQ(S.TrainAccuracy, A.TrainAccuracy) << Threads;
    EXPECT_EQ(serializeSpecs(S.Selected, Strings),
              serializeSpecs(A.Selected, Strings))
        << Threads;
    ASSERT_EQ(S.Candidates.size(), A.Candidates.size()) << Threads;
    for (size_t I = 0; I < S.Candidates.size(); ++I) {
      EXPECT_EQ(S.Candidates[I].S.str(Strings), A.Candidates[I].S.str(Strings));
      EXPECT_EQ(S.Candidates[I].Score, A.Candidates[I].Score);
      EXPECT_EQ(S.Candidates[I].Matches, A.Candidates[I].Matches);
      EXPECT_EQ(S.Candidates[I].Programs, A.Candidates[I].Programs);
    }
    ASSERT_EQ(S.Stats.Quarantined.size(), 1u) << Threads;
    EXPECT_EQ(S.Stats.Quarantined[0].Program, 3u);
    EXPECT_EQ(S.Stats.Quarantined[0].Reason, "fault:learn.sample");
  }
}

TEST_F(FaultLearner, QuarantiningLastProgramEqualsHandPrunedCorpus) {
  // Quarantine is in-place (per-program sample seeds are index-keyed), so
  // knocking out the LAST program must give exactly the specs of a corpus
  // that never contained it.
  auto Sources = makeSources(6, 37);

  StringInterner SA;
  auto Full = parseCorpus(Sources, SA);
  armFault("learn.analyze", Full.size() - 1);
  LearnResult RFull = USpecLearner(SA, LearnerConfig()).learn(Full);
  disarmFaults();

  StringInterner SB;
  auto Pruned = parseCorpus(
      std::vector<std::string>(Sources.begin(), Sources.end() - 1), SB);
  LearnResult RPruned = USpecLearner(SB, LearnerConfig()).learn(Pruned);

  EXPECT_EQ(serializeSpecs(RFull.Selected, SA),
            serializeSpecs(RPruned.Selected, SB));
  EXPECT_EQ(RFull.Candidates.size(), RPruned.Candidates.size());
}

namespace {

/// \p Prog's own Alg. 1 evidence under \p Model: a collector fed only its
/// graph.
CandidateLedger ownEvidence(const IRProgram &Prog, StringInterner &Strings,
                            const EdgeModel &Model, uint32_t ProgramId) {
  EventGraph G =
      EventGraph::build(analyzeProgram(Prog, Strings, AnalysisOptions()));
  CandidateCollector C(LearnerConfig().DistanceBound);
  EXPECT_TRUE(C.addGraph(G, ProgramId));
  return C.take(Model);
}

void expectSameEntry(const CandidateLedger::Entry &A,
                     const CandidateLedger::Entry &B,
                     const StringInterner &Strings) {
  EXPECT_EQ(A.S.str(Strings), B.S.str(Strings));
  EXPECT_EQ(A.Matches, B.Matches) << A.S.str(Strings);
  EXPECT_EQ(A.Programs, B.Programs) << A.S.str(Strings);
  EXPECT_EQ(A.Confidences, B.Confidences) << A.S.str(Strings);
}

} // namespace

TEST_F(FaultLearner, ExtractBudgetDropsAllOfOneProgramsEvidence) {
  // One receiver with 40 put/get pairs: its analysis fits in 800 steps,
  // Alg. 1 over its receiver pairs does not, and every generated program
  // fits both. Its matching runs out after its sampling, so the program
  // keeps its samples and adds no evidence, identically at 1 and 8 threads.
  std::vector<std::string> Sources = makeSources(111, 41);
  std::string Heavy = "class Main { def main() {\n  var m = new HashMap();\n"
                      "  var v = new File(\"cfg\");\n";
  for (int I = 0; I < 40; ++I)
    Heavy += "  m.put(\"k\", v); var f" + std::to_string(I) +
             " = m.get(\"k\");\n";
  Heavy += "} }\n";
  Sources.push_back(Heavy);
  StringInterner Strings;
  auto Corpus = parseCorpus(Sources, Strings);
  ASSERT_EQ(Corpus.size(), Sources.size());
  const size_t Last = Corpus.size() - 1;

  auto Run = [&](uint64_t StepBudget, unsigned Threads) {
    LearnerConfig Cfg;
    Cfg.ProgramStepBudget = StepBudget;
    Cfg.Threads = Threads;
    return USpecLearner(Strings, Cfg).learn(Corpus);
  };
  LearnResult Full = Run(0, 1);
  LearnResult R1 = Run(800, 1);
  ASSERT_TRUE(Full.Stats.Quarantined.empty());
  ASSERT_EQ(R1.Stats.Quarantined.size(), 1u);
  EXPECT_EQ(R1.Stats.Quarantined[0].Program, Last);
  EXPECT_EQ(R1.Stats.Quarantined[0].Reason, "extract:steps");
  EXPECT_EQ(R1.NumTrainingSamples, Full.NumTrainingSamples);
  EXPECT_LT(R1.Stats.Matches, Full.Stats.Matches);

  // Full's ledger minus the program's own evidence. The program is last,
  // so its ΓS is the tail of Full's, and a candidate only it matched was
  // appended last and drops out.
  CandidateLedger Own = ownEvidence(Corpus[Last], Strings, R1.Model,
                                    static_cast<uint32_t>(Last));
  ASSERT_FALSE(Own.Entries.empty());
  std::unordered_map<Spec, const CandidateLedger::Entry *, SpecHash> OwnOf;
  for (const CandidateLedger::Entry &E : Own.Entries)
    OwnOf.emplace(E.S, &E);
  size_t Next = 0;
  for (const CandidateLedger::Entry &E : Full.Ledger.Entries) {
    CandidateLedger::Entry Want = E;
    auto It = OwnOf.find(E.S);
    if (It != OwnOf.end()) {
      const CandidateLedger::Entry &O = *It->second;
      ASSERT_GE(E.Matches, O.Matches);
      ASSERT_GE(E.Confidences.size(), O.Confidences.size());
      EXPECT_TRUE(std::equal(O.Confidences.begin(), O.Confidences.end(),
                             E.Confidences.end() - O.Confidences.size()))
          << E.S.str(Strings);
      Want.Matches -= O.Matches;
      Want.Programs -= O.Programs;
      Want.Confidences.resize(E.Confidences.size() - O.Confidences.size());
      if (Want.Matches == 0)
        continue;
    }
    ASSERT_LT(Next, R1.Ledger.Entries.size()) << E.S.str(Strings);
    expectSameEntry(R1.Ledger.Entries[Next++], Want, Strings);
  }
  EXPECT_EQ(Next, R1.Ledger.Entries.size());

  LearnResult R8 = Run(800, 8);
  ASSERT_EQ(R8.Stats.Quarantined.size(), 1u);
  EXPECT_EQ(R8.Stats.Quarantined[0].Program, Last);
  EXPECT_EQ(R8.Stats.Quarantined[0].Reason, "extract:steps");
  EXPECT_EQ(R8.NumTrainingSamples, R1.NumTrainingSamples);
  EXPECT_EQ(R8.Stats.ReceiverPairs, R1.Stats.ReceiverPairs);
  EXPECT_EQ(R8.Stats.Matches, R1.Stats.Matches);
  ASSERT_EQ(R8.Ledger.Entries.size(), R1.Ledger.Entries.size());
  for (size_t I = 0; I < R1.Ledger.Entries.size(); ++I)
    expectSameEntry(R8.Ledger.Entries[I], R1.Ledger.Entries[I], Strings);
  ASSERT_EQ(R8.Candidates.size(), R1.Candidates.size());
  for (size_t I = 0; I < R1.Candidates.size(); ++I) {
    EXPECT_EQ(R8.Candidates[I].S.str(Strings), R1.Candidates[I].S.str(Strings));
    EXPECT_EQ(R8.Candidates[I].Score, R1.Candidates[I].Score);
  }
  EXPECT_EQ(serializeSpecs(R8.Selected, Strings),
            serializeSpecs(R1.Selected, Strings));
}

//===----------------------------------------------------------------------===//
// Crash-safe artifact writes
//===----------------------------------------------------------------------===//

TEST_F(FaultArtifact, AtomicWriteRoundTripsAndLeavesNoTemp) {
  std::string Path = testing::TempDir() + "fault_atomic_rt.bin";
  std::string Err;
  ASSERT_TRUE(writeFileAtomic(Path, "hello artifact", &Err)) << Err;
  EXPECT_EQ(slurp(Path), "hello artifact");
  EXPECT_FALSE(std::filesystem::exists(atomicTempPath(Path)));
  // Overwrite is atomic too.
  ASSERT_TRUE(writeFileAtomic(Path, "second version", &Err)) << Err;
  EXPECT_EQ(slurp(Path), "second version");
}

TEST_F(FaultArtifact, ThrowBeforeRenameLeavesOldContentAndNoTemp) {
  for (const char *Site :
       {"artifact.write", "artifact.write.data", "artifact.write.fsync"}) {
    disarmFaults();
    std::string Path = testing::TempDir() + "fault_atomic_old.bin";
    std::string Err;
    ASSERT_TRUE(writeFileAtomic(Path, "old", &Err)) << Err;

    armFault(Site, 1);
    Err.clear();
    EXPECT_FALSE(writeFileAtomic(Path, "new", &Err)) << "site " << Site;
    EXPECT_NE(Err.find(Site), std::string::npos) << Err;
    EXPECT_EQ(slurp(Path), "old") << "site " << Site;
    EXPECT_FALSE(std::filesystem::exists(atomicTempPath(Path)))
        << "site " << Site;
  }
}

TEST_F(FaultArtifact, ThrowAfterRenameLeavesNewContent) {
  std::string Path = testing::TempDir() + "fault_atomic_new.bin";
  std::string Err;
  ASSERT_TRUE(writeFileAtomic(Path, "old", &Err)) << Err;
  armFault("artifact.write.rename", 1);
  // The fault fires after the rename: the call reports failure but the new
  // file is already in place — never a torn mix of the two.
  EXPECT_FALSE(writeFileAtomic(Path, "new", &Err));
  EXPECT_EQ(slurp(Path), "new");
  EXPECT_FALSE(std::filesystem::exists(atomicTempPath(Path)));
}

TEST_F(FaultArtifact, DiscardStaleTempRemovesAndWarns) {
  std::string Path = testing::TempDir() + "fault_stale.bin";
  std::string Tmp = atomicTempPath(Path);
  {
    std::ofstream Out(Tmp, std::ios::binary);
    Out << "torn";
  }
  std::string Warning;
  EXPECT_TRUE(discardStaleTemp(Path, &Warning));
  EXPECT_NE(Warning.find(Tmp), std::string::npos) << Warning;
  EXPECT_FALSE(std::filesystem::exists(Tmp));
  EXPECT_FALSE(discardStaleTemp(Path, &Warning));
}

//===----------------------------------------------------------------------===//
// Service hardening
//===----------------------------------------------------------------------===//

TEST_F(FaultService, DeadWorkerIsReplacedAndRequestAnsweredInternal) {
  service::ServerConfig Cfg;
  Cfg.Workers = 2;
  service::Server S(Cfg, service::ServiceSpecs());

  armFault("service.worker", 1);
  std::string R1 = S.handle("{\"id\":1,\"verb\":\"specs\"}");
  EXPECT_NE(R1.find("\"kind\":\"internal\""), std::string::npos) << R1;
  EXPECT_NE(R1.find("\"id\":1"), std::string::npos) << R1;
  EXPECT_EQ(S.metrics().workerDeathCount(), 1u);

  // The pool replaced the dead worker: later requests still get served.
  for (int I = 0; I < 4; ++I) {
    std::string R = S.handle("{\"id\":2,\"verb\":\"specs\"}");
    EXPECT_NE(R.find("\"ok\":true"), std::string::npos) << R;
  }
  S.drain(); // must not hang on a short-handed pool
}

TEST_F(FaultService, WatchdogAnswersQueuedRequestPastDeadline) {
  service::ServerConfig Cfg;
  Cfg.Workers = 1;
  Cfg.EnableTestVerbs = true;
  service::Server S(Cfg, service::ServiceSpecs());

  // Park the only worker, then submit a request with a short deadline: the
  // watchdog must answer it while it is still stuck in the queue.
  auto Parked = S.submit("{\"verb\":\"test_block\"}");
  auto Doomed = S.submit("{\"id\":7,\"verb\":\"specs\",\"deadline_ms\":50}");
  ASSERT_EQ(Doomed.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  std::string R = Doomed.get();
  EXPECT_NE(R.find("\"kind\":\"deadline_exceeded\""), std::string::npos) << R;
  EXPECT_NE(R.find("\"id\":7"), std::string::npos) << R;
  EXPECT_EQ(S.metrics().deadlineExceededCount(), 1u);

  S.releaseTestGate();
  EXPECT_NE(Parked.get().find("\"ok\":true"), std::string::npos);
  S.drain();
}

TEST_F(FaultService, ServerDefaultTimeoutAppliesWithoutPerRequestDeadline) {
  service::ServerConfig Cfg;
  Cfg.Workers = 1;
  Cfg.EnableTestVerbs = true;
  Cfg.RequestTimeoutMs = 50;
  service::Server S(Cfg, service::ServiceSpecs());

  auto Parked = S.submit("{\"verb\":\"test_block\"}");
  auto Doomed = S.submit("{\"id\":8,\"verb\":\"specs\"}");
  ASSERT_EQ(Doomed.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  EXPECT_NE(Doomed.get().find("\"kind\":\"deadline_exceeded\""),
            std::string::npos);

  S.releaseTestGate();
  Parked.get();
  S.drain();
}

TEST_F(FaultService, BoundedResultIsServedButNeverCached) {
  service::ServerConfig Cfg;
  Cfg.Workers = 1;
  Cfg.MaxStepsPerRequest = 1;
  service::Server S(Cfg, service::ServiceSpecs());

  std::string Req = "{\"verb\":\"analyze\",\"program\":";
  service::appendJsonString(Req, TinyProgram);
  Req += "}";

  std::string R1 = S.handle(Req);
  EXPECT_NE(R1.find("\"ok\":true"), std::string::npos) << R1;
  EXPECT_NE(R1.find("\"bounded\":true"), std::string::npos) << R1;

  std::string R2 = S.handle(Req);
  EXPECT_EQ(R1, R2); // deterministic even when degraded
  EXPECT_EQ(S.metrics().cacheMissCount(), 2u); // ⊤ results never enter cache
  EXPECT_EQ(S.metrics().cacheHitCount(), 0u);
  S.drain();
}

//===----------------------------------------------------------------------===//
// Protocol: deadline plumbing + retry backoff
//===----------------------------------------------------------------------===//

TEST_F(FaultProtocol, ScanDeadlineMsFindsCanonicalMember) {
  EXPECT_EQ(service::scanDeadlineMs("{\"verb\":\"x\",\"deadline_ms\":250}"),
            std::optional<uint64_t>(250));
  EXPECT_EQ(service::scanDeadlineMs("{\"deadline_ms\": 7}"),
            std::optional<uint64_t>(7));
  EXPECT_EQ(service::scanDeadlineMs("{\"verb\":\"x\"}"), std::nullopt);
}

TEST_F(FaultProtocol, ScanDeadlineMsCannotFireInsideStringContent) {
  // Inside JSON string content a literal `"` must be escaped, so the exact
  // byte sequence `"deadline_ms":` cannot occur there.
  std::string Line = "{\"verb\":\"analyze\",\"program\":";
  service::appendJsonString(Line, "say \"deadline_ms\":99 out loud");
  Line += "}";
  EXPECT_EQ(service::scanDeadlineMs(Line), std::nullopt);
}

TEST_F(FaultProtocol, ScanRequestIdReturnsRawToken) {
  EXPECT_EQ(service::scanRequestId("{\"id\":42,\"verb\":\"x\"}"), "42");
  EXPECT_EQ(service::scanRequestId("{\"id\": -3}"), "-3");
  EXPECT_EQ(service::scanRequestId("{\"id\":\"abc\",\"verb\":\"x\"}"),
            "\"abc\"");
  EXPECT_EQ(service::scanRequestId("{\"verb\":\"x\"}"), "");
  EXPECT_EQ(service::scanRequestId("{\"id\":bogus}"), "");
}

TEST_F(FaultProtocol, ParseRequestValidatesDeadlineMs) {
  service::Request R;
  std::string Err;
  ASSERT_TRUE(service::parseRequest(
      "{\"verb\":\"specs\",\"deadline_ms\":125}", R, &Err))
      << Err;
  EXPECT_EQ(R.DeadlineMs, 125u);
  EXPECT_FALSE(service::parseRequest(
      "{\"verb\":\"specs\",\"deadline_ms\":-5}", R, &Err));
  EXPECT_FALSE(service::parseRequest(
      "{\"verb\":\"specs\",\"deadline_ms\":1.5}", R, &Err));
  EXPECT_FALSE(service::parseRequest(
      "{\"verb\":\"specs\",\"deadline_ms\":\"soon\"}", R, &Err));
}

TEST_F(FaultProtocol, RetryDelayIsDeterministicAndBounded) {
  for (unsigned Attempt = 0; Attempt < 10; ++Attempt) {
    uint64_t D1 = service::retryDelayMs(Attempt, 42);
    uint64_t D2 = service::retryDelayMs(Attempt, 42);
    EXPECT_EQ(D1, D2); // same (seed, attempt) -> same delay
    uint64_t Base = 10u << (Attempt < 6 ? Attempt : 6);
    EXPECT_GE(D1, Base);
    EXPECT_LT(D1, 2 * Base);
  }
  // Different seeds decorrelate clients retrying in lockstep.
  bool AnyDiffer = false;
  for (unsigned Attempt = 0; Attempt < 10 && !AnyDiffer; ++Attempt)
    AnyDiffer = service::retryDelayMs(Attempt, 1) !=
                service::retryDelayMs(Attempt, 2);
  EXPECT_TRUE(AnyDiffer);
}

TEST_F(FaultProtocol, RetryDelayClampsAtMax) {
  // Past the exponent cap the base is 640 ms and base+jitter can reach
  // 1279 ms unclamped; every delay must respect the documented ceiling.
  bool SawClamp = false;
  for (unsigned Attempt = 6; Attempt < 40; ++Attempt) {
    for (uint64_t Seed = 0; Seed < 50; ++Seed) {
      uint64_t D = service::retryDelayMs(Attempt, Seed);
      EXPECT_LE(D, service::MaxRetryDelayMs);
      EXPECT_GE(D, 640u); // the clamp never pulls a delay below its base
      SawClamp |= D == service::MaxRetryDelayMs;
    }
  }
  // The ceiling is actually reachable (jitter >= 360 ms occurs), so the
  // clamp is live, not dead code.
  EXPECT_TRUE(SawClamp);
}

//===----------------------------------------------------------------------===//
// Kill-at-every-site subprocess sweep over the real binary
//===----------------------------------------------------------------------===//

namespace {

struct RunResult {
  int ExitCode = -1;
  std::string Output;
};

/// Runs \p Command (already including the uspec path and any env prefix)
/// through the shell, merging stderr into the captured output.
RunResult runShell(const std::string &Command) {
  RunResult R;
  FILE *Pipe = popen((Command + " 2>&1").c_str(), "r");
  if (!Pipe) {
    ADD_FAILURE() << "popen failed for: " << Command;
    return R;
  }
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    R.Output.append(Buf, N);
  int Status = pclose(Pipe);
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

} // namespace

TEST_F(FaultCli, KillAtEveryArtifactWriteSiteThenResumeMatchesCleanRun) {
  namespace fs = std::filesystem;
  std::string Dir = testing::TempDir() + "fault_kill_sweep/";
  fs::remove_all(Dir);
  fs::create_directories(Dir);

  // A tiny 3-program corpus written by hand (no generator dependency in the
  // subprocess path).
  std::string FileArgs;
  for (int I = 0; I < 3; ++I) {
    std::string Path = Dir + "p" + std::to_string(I) + ".mini";
    std::ofstream Out(Path);
    Out << "class Main { def main() { var m = new Map" << I << "(); "
        << "m.put(\"k\", " << I << "); var a = m.get(\"k\"); "
        << "var b = m.get(\"k\"); } }\n";
    FileArgs += " " + Path;
  }

  // The uninterrupted run: the recovery contract is that `train --resume`
  // after a kill converges to exactly these bytes.
  std::string Base = Dir + "base.uspb";
  RunResult Clean =
      runShell(std::string(USPEC_CLI_PATH) + " train" + FileArgs + " -o " +
               Base);
  ASSERT_EQ(Clean.ExitCode, 0) << Clean.Output;
  std::string BaseBytes = slurp(Base);
  ASSERT_FALSE(BaseBytes.empty());

  for (const char *Site :
       {"artifact.write", "artifact.write.data", "artifact.write.fsync",
        "artifact.write.rename"}) {
    std::string Out = Dir + "out.uspb";
    fs::remove(Out);
    fs::remove(Out + ".tmp");

    RunResult Killed = runShell("USPEC_FAULT=" + std::string(Site) +
                                ":1:kill " + USPEC_CLI_PATH + " train" +
                                FileArgs + " -o " + Out);
    EXPECT_EQ(Killed.ExitCode, 137) << Site << ": " << Killed.Output;

    // Whatever the kill left behind is either absent or a complete,
    // loadable artifact — never a torn file.
    if (fs::exists(Out)) {
      RunResult Info =
          runShell(std::string(USPEC_CLI_PATH) + " info " + Out);
      EXPECT_EQ(Info.ExitCode, 0) << Site << ": " << Info.Output;
      EXPECT_EQ(slurp(Out), BaseBytes) << Site;
    }

    RunResult Resumed = runShell(std::string(USPEC_CLI_PATH) + " train" +
                                 FileArgs + " -o " + Out + " --resume");
    EXPECT_EQ(Resumed.ExitCode, 0) << Site << ": " << Resumed.Output;
    EXPECT_EQ(slurp(Out), BaseBytes) << Site << ": " << Resumed.Output;
    EXPECT_FALSE(fs::exists(Out + ".tmp")) << Site;
  }
}

TEST_F(FaultCli, TrainQuarantinesMalformedFileAndStrictAborts) {
  namespace fs = std::filesystem;
  std::string Dir = testing::TempDir() + "fault_cli_strict/";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  std::string Good = Dir + "good.mini", Bad = Dir + "bad.mini";
  {
    std::ofstream Out(Good);
    Out << TinyProgram << "\n";
  }
  {
    std::ofstream Out(Bad);
    Out << "this is not minilang {\n";
  }

  RunResult Lenient = runShell(std::string(USPEC_CLI_PATH) + " train " +
                               Good + " " + Bad + " -o " + Dir +
                               "out.uspb --stats");
  EXPECT_EQ(Lenient.ExitCode, 0) << Lenient.Output;
  EXPECT_NE(Lenient.Output.find("warning: quarantined"), std::string::npos)
      << Lenient.Output;
  EXPECT_NE(Lenient.Output.find("\"reason\": \"parse\""), std::string::npos)
      << Lenient.Output;

  RunResult Strict = runShell(std::string(USPEC_CLI_PATH) + " train " + Good +
                              " " + Bad + " -o " + Dir + "out2.uspb --strict");
  EXPECT_EQ(Strict.ExitCode, 1) << Strict.Output;
  EXPECT_FALSE(fs::exists(Dir + "out2.uspb"));
}
