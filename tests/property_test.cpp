//===- property_test.cpp - Parameterized property sweeps ----------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
// Property-style invariants checked across random seeds with parameterized
// gtest suites: event-graph structural invariants, analysis determinism,
// selection monotonicity, generator robustness and model sanity.
//
//===----------------------------------------------------------------------===//

#include "corpus/Generator.h"
#include "corpus/GroundTruth.h"
#include "corpus/Profiles.h"
#include "eventgraph/EventGraph.h"
#include "ir/Lowering.h"
#include "model/EdgeModel.h"

#include <gtest/gtest.h>

using namespace uspec;

//===----------------------------------------------------------------------===//
// Event graph invariants over generated programs
//===----------------------------------------------------------------------===//

class EventGraphInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EventGraphInvariants, HoldOnGeneratedPrograms) {
  uint64_t Seed = GetParam();
  LanguageProfile P = javaProfile();
  GeneratorConfig Cfg;
  Rng Rand(Seed);
  StringInterner S;

  for (int I = 0; I < 15; ++I) {
    std::string Source = generateProgramSource(P, Cfg, Rand);
    DiagnosticSink Diags;
    auto Program = parseAndLower(Source, "prop", S, Diags);
    ASSERT_TRUE(Program.has_value()) << Source;
    AnalysisResult R = analyzeProgram(*Program, S, AnalysisOptions());
    EventGraph G = EventGraph::build(R);

    for (EventId E = 0; E < G.numEvents(); ++E) {
      // Parent/child duality.
      for (EventId C : G.children(E)) {
        const auto &Ps = G.parents(C);
        EXPECT_TRUE(std::binary_search(Ps.begin(), Ps.end(), E))
            << "child edge without matching parent edge";
        // Antisymmetry: no edge both ways.
        EXPECT_FALSE(G.hasEdge(C, E)) << "cyclic pair edge";
      }
      // Sorted adjacency.
      EXPECT_TRUE(std::is_sorted(G.children(E).begin(), G.children(E).end()));
      EXPECT_TRUE(std::is_sorted(G.parents(E).begin(), G.parents(E).end()));
      // Self-loops never exist.
      EXPECT_FALSE(G.hasEdge(E, E));

      // allocG elements are parentless ret events, and alloc sets are
      // subsets of parents(e) ∪ {e}.
      for (EventId A : G.allocOf(E)) {
        EXPECT_TRUE(G.event(A).isRet());
        EXPECT_TRUE(G.parents(A).empty());
        EXPECT_TRUE(A == E ||
                    std::binary_search(G.parents(E).begin(),
                                       G.parents(E).end(), A));
      }
      // mayAlias is reflexive for events with non-empty points-to sets.
      if (!G.allocOf(E).empty())
        EXPECT_TRUE(G.mayAlias(E, E));
    }

    // Call-site grouping: every ApiCall event belongs to exactly one site
    // and the site's events point back to it.
    for (size_t Idx = 0; Idx < G.callSites().size(); ++Idx) {
      const CallSite &CS = G.callSites()[Idx];
      if (CS.Recv != InvalidEvent)
        EXPECT_EQ(G.callSiteOf(CS.Recv), static_cast<int>(Idx));
      if (CS.Ret != InvalidEvent)
        EXPECT_EQ(G.callSiteOf(CS.Ret), static_cast<int>(Idx));
      EXPECT_EQ(CS.Args.size(), CS.Method.Arity);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventGraphInvariants,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

//===----------------------------------------------------------------------===//
// Analysis determinism and history bounds
//===----------------------------------------------------------------------===//

class AnalysisProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AnalysisProperties, DeterministicAndBounded) {
  uint64_t Seed = GetParam();
  LanguageProfile P = javaProfile();
  GeneratorConfig Cfg;
  Rng R1(Seed), R2(Seed);
  StringInterner S1, S2;

  for (int I = 0; I < 10; ++I) {
    std::string SourceA = generateProgramSource(P, Cfg, R1);
    std::string SourceB = generateProgramSource(P, Cfg, R2);
    ASSERT_EQ(SourceA, SourceB) << "generator must be deterministic";

    DiagnosticSink DA, DB;
    auto PA = parseAndLower(SourceA, "a", S1, DA);
    auto PB = parseAndLower(SourceB, "b", S2, DB);
    ASSERT_TRUE(PA && PB);

    AnalysisOptions Options;
    Options.HistoryCap = 8;
    AnalysisResult RA = analyzeProgram(*PA, S1, Options);
    AnalysisResult RB = analyzeProgram(*PB, S2, Options);

    // Identical shape across runs.
    EXPECT_EQ(RA.Events.size(), RB.Events.size());
    EXPECT_EQ(RA.Objects.size(), RB.Objects.size());
    ASSERT_EQ(RA.Histories.size(), RB.Histories.size());
    for (size_t Obj = 0; Obj < RA.Histories.size(); ++Obj) {
      EXPECT_EQ(RA.Histories[Obj], RB.Histories[Obj]) << "object " << Obj;
      // The history cap must hold.
      EXPECT_LE(RA.Histories[Obj].size(), 8u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalysisProperties,
                         ::testing::Values(11, 22, 33, 44));

//===----------------------------------------------------------------------===//
// Selection properties
//===----------------------------------------------------------------------===//

class SelectionProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SelectionProperties, TauMonotoneAndClosureIdempotent) {
  uint64_t Seed = GetParam();
  StringInterner S;
  LanguageProfile Profile = javaProfile();
  GeneratorConfig GenCfg;
  GenCfg.NumPrograms = 120;
  GenCfg.Seed = Seed;
  GeneratedCorpus Corpus = generateCorpus(Profile, GenCfg, S);
  LearnerConfig Cfg;
  Cfg.Seed = Seed;
  USpecLearner Learner(S, Cfg);
  LearnResult Result = Learner.learn(Corpus.Programs);

  // Selection without extension is monotone in τ.
  size_t Prev = static_cast<size_t>(-1);
  for (double Tau : {0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    SpecSet Sel = USpecLearner::select(Result.Candidates, Tau, false);
    EXPECT_LE(Sel.size(), Prev);
    Prev = Sel.size();
    // Everything selected at a higher τ is selected at a lower one.
    SpecSet Lower = USpecLearner::select(Result.Candidates, Tau * 0.5, false);
    for (const Spec &Sp : Sel.all())
      EXPECT_TRUE(Lower.contains(Sp));
  }

  // The consistency closure is idempotent and establishes eq. (3).
  SpecSet Sel = USpecLearner::select(Result.Candidates, 0.6, true);
  EXPECT_EQ(Sel.extendConsistency(), 0u);
  for (const Spec &Sp : Sel.all())
    if (Sp.TheKind == Spec::Kind::RetArg)
      EXPECT_TRUE(Sel.hasRetSame(Sp.Target));

  // Candidate list is sorted by descending score.
  for (size_t I = 1; I < Result.Candidates.size(); ++I)
    EXPECT_GE(Result.Candidates[I - 1].Score, Result.Candidates[I].Score);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectionProperties,
                         ::testing::Values(7, 77, 777));

//===----------------------------------------------------------------------===//
// Model properties
//===----------------------------------------------------------------------===//

class ModelProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ModelProperties, PredictionsAreProbabilitiesAndBeatChance) {
  uint64_t Seed = GetParam();
  StringInterner S;
  LanguageProfile Profile = javaProfile();
  GeneratorConfig GenCfg;
  GenCfg.NumPrograms = 80;
  GenCfg.Seed = Seed;
  GeneratedCorpus Corpus = generateCorpus(Profile, GenCfg, S);

  std::vector<EventGraph> Graphs;
  for (const IRProgram &P : Corpus.Programs)
    Graphs.push_back(
        EventGraph::build(analyzeProgram(P, S, AnalysisOptions())));
  Rng Rand(Seed);
  SampleSet Samples;
  for (const EventGraph &G : Graphs)
    collectTrainingSamples(G, Rand, Samples);
  ASSERT_GT(Samples.size(), 100u);

  // Hold out every 5th sample.
  SampleSet Train, Test;
  for (size_t I = 0; I < Samples.size(); ++I)
    (I % 5 == 0 ? Test : Train)
        .add(Samples.posKey(I), Samples.label(I), Samples.hashes(I));

  EdgeModelConfig MCfg;
  MCfg.Seed = Seed;
  EdgeModel Model(MCfg);
  Model.train(Train);

  for (size_t I = 0; I < Test.size(); ++I) {
    double Prob = Model.predict(Test.posKey(I), Test.hashes(I));
    EXPECT_GE(Prob, 0.0);
    EXPECT_LE(Prob, 1.0);
  }
  EXPECT_GT(Model.accuracy(Test), 0.75)
      << "held-out accuracy must beat the 0.5 baseline comfortably";
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModelProperties, ::testing::Values(3, 13, 23));

//===----------------------------------------------------------------------===//
// Generator robustness across profiles and idiom mixes
//===----------------------------------------------------------------------===//

struct GenParam {
  uint64_t Seed;
  bool Python;
  double Direct, Roundtrip, Getter, Mutating, Complex;
};

/// Names each instance after its profile, idiom mix and seed (e.g.
/// `java_direct_seed1`). Without it gtest prints the param's raw bytes,
/// padding included, and the test ids change from build to build.
void PrintTo(const GenParam &P, std::ostream *OS) {
  const char *Mix = "mixed";
  if (P.Direct == 1)
    Mix = "direct";
  else if (P.Roundtrip == 1)
    Mix = "roundtrip";
  else if (P.Getter == 1)
    Mix = "getter";
  else if (P.Mutating == 1)
    Mix = "mutating";
  else if (P.Complex == 1)
    Mix = "complex";
  *OS << (P.Python ? "python" : "java") << '_' << Mix << "_seed" << P.Seed;
}

class GeneratorRobustness : public ::testing::TestWithParam<GenParam> {};

TEST_P(GeneratorRobustness, EveryProgramParsesLowersAnalyzes) {
  GenParam Param = GetParam();
  LanguageProfile P = Param.Python ? pythonProfile() : javaProfile();
  GeneratorConfig Cfg;
  Cfg.WDirect = Param.Direct;
  Cfg.WRoundtrip = Param.Roundtrip;
  Cfg.WGetter = Param.Getter;
  Cfg.WMutating = Param.Mutating;
  Cfg.WComplex = Param.Complex;
  Rng Rand(Param.Seed);
  StringInterner S;
  for (int I = 0; I < 40; ++I) {
    std::string Source = generateProgramSource(P, Cfg, Rand);
    DiagnosticSink Diags;
    auto Program = parseAndLower(Source, "gen", S, Diags);
    ASSERT_TRUE(Program.has_value())
        << "profile=" << P.Name << "\n"
        << Source << "\n"
        << Diags.render();
    // The analysis must not crash or hang on any generated program.
    AnalysisResult R = analyzeProgram(*Program, S, AnalysisOptions());
    EXPECT_GE(R.Events.size(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mixes, GeneratorRobustness,
    ::testing::Values(GenParam{1, false, 1, 0, 0, 0, 0},
                      GenParam{2, false, 0, 1, 0, 0, 0},
                      GenParam{3, false, 0, 0, 1, 0, 0},
                      GenParam{4, false, 0, 0, 0, 1, 0},
                      GenParam{5, false, 0, 0, 0, 0, 1},
                      GenParam{6, false, .2, .2, .2, .2, .2},
                      GenParam{7, true, 1, 0, 0, 0, 0},
                      GenParam{8, true, 0, 1, 0, 0, 0},
                      GenParam{9, true, 0, 0, 1, 0, 0},
                      GenParam{10, true, 0, 0, 0, 1, 0},
                      GenParam{11, true, 0, 0, 0, 0, 1},
                      GenParam{12, true, .2, .2, .2, .2, .2}));

//===----------------------------------------------------------------------===//
// Ghost-field bounds
//===----------------------------------------------------------------------===//

TEST(GhostBounds, TupleCapPreventsBlowup) {
  // A store whose key may be any of many objects: the cartesian product of
  // ghost names must stay capped.
  std::string Source = "class Main { def main() { var m = new Map();\n";
  Source += "var k = api.pick();\n";
  // Join many possible keys into one variable.
  for (int I = 0; I < 12; ++I)
    Source += "if (c" + std::to_string(I) + " != null) { k = new K" +
              std::to_string(I) + "(); }\n";
  Source += "m.put(k, api.mk());\nvar x = m.get(k);\n} }";

  StringInterner S;
  DiagnosticSink Diags;
  auto P = parseAndLower(Source, "blowup", S, Diags);
  ASSERT_TRUE(P.has_value()) << Diags.render();

  SpecSet Specs;
  MethodId Get = {S.intern("Map"), S.intern("get"), 1};
  MethodId Put = {S.intern("Map"), S.intern("put"), 2};
  Specs.insert(Spec::retArg(Get, Put, 2));
  Specs.insert(Spec::retSame(Get));
  AnalysisOptions Options;
  Options.ApiAware = true;
  Options.Specs = &Specs;
  Options.MaxGhostTuples = 8;
  AnalysisResult R = analyzeProgram(*P, S, Options);
  // Fields per receiver bounded: ghost fields ≤ cap + regular bookkeeping.
  EXPECT_LE(R.Fields.size(), 64u);
}
