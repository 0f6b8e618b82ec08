//===- core_test.cpp - Tests for matching, candidates, and the learner --------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/USpec.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace uspec;

namespace {

/// Shared fixture: parse/lower/analyze/build graph with one interner.
struct CoreFixture {
  StringInterner Strings;
  std::vector<IRProgram> Programs;
  std::vector<EventGraph> Graphs;

  EventGraph &addGraph(const std::string &Source) {
    DiagnosticSink Diags;
    auto P = parseAndLower(Source, "p" + std::to_string(Programs.size()),
                           Strings, Diags);
    EXPECT_TRUE(P.has_value()) << Diags.render();
    Programs.push_back(std::move(*P));
    Graphs.push_back(EventGraph::build(
        analyzeProgram(Programs.back(), Strings, AnalysisOptions())));
    return Graphs.back();
  }

  const CallSite *site(const EventGraph &G, const std::string &Name,
                       int Occurrence = 0) {
    int Found = 0;
    for (const CallSite &CS : G.callSites())
      if (Strings.str(CS.Method.Name) == Name) {
        if (Found == Occurrence)
          return &CS;
        ++Found;
      }
    return nullptr;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Pattern matching (§5.1)
//===----------------------------------------------------------------------===//

TEST(Matching, RetArgMatchesFig2) {
  CoreFixture F;
  EventGraph &G = F.addGraph(R"(
    class Main {
      def main() {
        var map = new Map();
        map.put("key", someApi.getFile());
        var name = map.get("key").getName();
      }
    }
  )");
  const CallSite *Get = F.site(G, "get");
  const CallSite *Put = F.site(G, "put");
  ASSERT_TRUE(Get && Put);
  EXPECT_TRUE(matchesRetArg(G, *Get, *Put, 2));
  // x = 1 would require put's arg2 to equal get's arg1; it does not.
  EXPECT_FALSE(matchesRetArg(G, *Get, *Put, 1));
  // Induced edge is exactly ℓ: getFile.ret -> getName.0.
  auto Edges = inducedRetArg(G, *Get, *Put, 2);
  ASSERT_EQ(Edges.size(), 1u);
  const CallSite *GetFile = F.site(G, "getFile");
  const CallSite *GetName = F.site(G, "getName");
  EXPECT_EQ(Edges[0].first, GetFile->Ret);
  EXPECT_EQ(Edges[0].second, GetName->Recv);
}

TEST(Matching, RetArgRejectsDifferentKeys) {
  CoreFixture F;
  EventGraph &G = F.addGraph(R"(
    class Main {
      def main() {
        var map = new Map();
        map.put("a", someApi.getFile());
        var x = map.get("b");
      }
    }
  )");
  const CallSite *Get = F.site(G, "get");
  const CallSite *Put = F.site(G, "put");
  ASSERT_TRUE(Get && Put);
  EXPECT_FALSE(matchesRetArg(G, *Get, *Put, 2)) << "C4' must fail: keys differ";
}

TEST(Matching, RetArgRejectsDifferentReceivers) {
  CoreFixture F;
  EventGraph &G = F.addGraph(R"(
    class Main {
      def main() {
        var m1 = new Map();
        var m2 = new Map();
        m1.put("k", someApi.getFile());
        var x = m2.get("k");
      }
    }
  )");
  const CallSite *Get = F.site(G, "get");
  const CallSite *Put = F.site(G, "put");
  ASSERT_TRUE(Get && Put);
  EXPECT_FALSE(matchesRetArg(G, *Get, *Put, 2)) << "C2 must fail";
}

TEST(Matching, RetArgRejectsWrongOrder) {
  CoreFixture F;
  EventGraph &G = F.addGraph(R"(
    class Main {
      def main() {
        var map = new Map();
        var x = map.get("k");
        map.put("k", someApi.getFile());
      }
    }
  )");
  const CallSite *Get = F.site(G, "get");
  const CallSite *Put = F.site(G, "put");
  ASSERT_TRUE(Get && Put);
  EXPECT_FALSE(matchesRetArg(G, *Get, *Put, 2)) << "C3: put must precede get";
}

TEST(Matching, RetArgRejectsArityMismatch) {
  CoreFixture F;
  EventGraph &G = F.addGraph(R"(
    class Main {
      def main() {
        var map = new Map();
        map.store("k", someApi.getFile(), 1);
        var x = map.get("k");
      }
    }
  )");
  const CallSite *Get = F.site(G, "get");
  const CallSite *Store = F.site(G, "store");
  ASSERT_TRUE(Get && Store);
  EXPECT_FALSE(matchesRetArg(G, *Get, *Store, 2)) << "C1' must fail";
}

TEST(Matching, RetSameMatchesEqualArguments) {
  CoreFixture F;
  EventGraph &G = F.addGraph(R"(
    class Main {
      def main() {
        var rs = new ResultSet();
        var a = rs.getString("col");
        var b = rs.getString("col");
        var c = rs.getString("other");
      }
    }
  )");
  const CallSite *S0 = F.site(G, "getString", 0);
  const CallSite *S1 = F.site(G, "getString", 1);
  const CallSite *S2 = F.site(G, "getString", 2);
  ASSERT_TRUE(S0 && S1 && S2);
  EXPECT_TRUE(matchesRetSame(G, *S1, *S0));
  EXPECT_FALSE(matchesRetSame(G, *S0, *S1)) << "C3: order matters";
  EXPECT_FALSE(matchesRetSame(G, *S2, *S0)) << "C4: arguments differ";
}

TEST(Matching, RetSameZeroArgMethodsMatchVacuously) {
  // Iterator.next()-style candidates do arise (C4 is vacuous); the model's
  // scoring, not the matcher, must filter them (§5.2).
  CoreFixture F;
  EventGraph &G = F.addGraph(R"(
    class Main {
      def main() {
        var it = new Iterator();
        var a = it.next();
        var b = it.next();
      }
    }
  )");
  const CallSite *N0 = F.site(G, "next", 0);
  const CallSite *N1 = F.site(G, "next", 1);
  ASSERT_TRUE(N0 && N1);
  EXPECT_TRUE(matchesRetSame(G, *N1, *N0));
}

TEST(Matching, RetSameRequiresSameMethod) {
  CoreFixture F;
  EventGraph &G = F.addGraph(R"(
    class Main {
      def main() {
        var rs = new ResultSet();
        var a = rs.getString("c");
        var b = rs.getBlob("c");
      }
    }
  )");
  const CallSite *S = F.site(G, "getString");
  const CallSite *B = F.site(G, "getBlob");
  ASSERT_TRUE(S && B);
  EXPECT_FALSE(matchesRetSame(G, *B, *S)) << "C1 must fail";
}

//===----------------------------------------------------------------------===//
// Candidate collection (Alg. 1)
//===----------------------------------------------------------------------===//

TEST(Candidates, CollectsAndAggregates) {
  CoreFixture F;
  const char *Src = R"(
    class Main {
      def main() {
        var map = new Map();
        map.put("k", someApi.getFile());
        var f = map.get("k");
        f.getName();
      }
    }
  )";
  F.addGraph(Src);
  F.addGraph(Src);

  CandidateCollector Collector(10);
  for (size_t I = 0; I < F.Graphs.size(); ++I)
    Collector.addGraph(F.Graphs[I], static_cast<uint32_t>(I));

  Spec Expected = Spec::retArg(
      {F.Strings.intern("Map"), F.Strings.intern("get"), 1},
      {F.Strings.intern("Map"), F.Strings.intern("put"), 2}, 2);
  EdgeModel Model; // untrained: every confidence is 0.5
  const CandidateLedger Table = Collector.take(Model);
  const auto &Entries = Table.Entries;
  auto It = std::find_if(
      Entries.begin(), Entries.end(),
      [&](const CandidateLedger::Entry &E) { return E.S == Expected; });
  ASSERT_NE(It, Entries.end()) << "RetArg(get, put, 2) must arise";
  EXPECT_EQ(It->Matches, 2u);
  EXPECT_EQ(It->Programs, 2u);
  EXPECT_EQ(It->Confidences.size(), 2u) << "single-edge matches scored";
  EXPECT_DOUBLE_EQ(It->Confidences[0], 0.5);
}

namespace {

bool sameTable(const CandidateLedger &A, const CandidateLedger &B) {
  if (A.Entries.size() != B.Entries.size())
    return false;
  for (size_t I = 0; I < A.Entries.size(); ++I) {
    const CandidateLedger::Entry &X = A.Entries[I], &Y = B.Entries[I];
    if (!(X.S == Y.S) || X.Confidences != Y.Confidences ||
        X.Matches != Y.Matches || X.Programs != Y.Programs)
      return false;
  }
  return true;
}

/// The table \p C.take(\p Model) would return, leaving \p C as it is.
CandidateLedger peek(const CandidateCollector &C, const EdgeModel &Model) {
  return CandidateCollector(C).take(Model);
}

} // namespace

TEST(Candidates, ExhaustedBudgetLeavesTheTableAsItWas) {
  // addGraph is all or nothing: wherever in Alg. 1 the budget runs out
  // (a receiver pair, a pattern probe, the RetRecv loop), the table, the
  // recorded rows and the counters stay as they were, and adding the graph
  // in full afterwards gives a serial run's table.
  CoreFixture F;
  F.addGraph(R"(
    class Main {
      def main() {
        var map = new Map();
        map.put("k", someApi.getFile());
        var f = map.get("k");
        f.getName();
      }
    }
  )");
  F.addGraph(R"(
    class Main {
      def main() {
        var map = new Map();
        map.put("a", db.getFile("x"));
        map.put("b", db.getFile("y"));
        var f = map.get("a");
        var g = map.get("b");
        var list = new ArrayList();
        list.add(f);
        var h = list.get(0);
        h.getName();
      }
    }
  )");

  // A trained ϕ: its confidences differ between rows, so a row left behind
  // or scored into the wrong entry changes the taken table.
  SampleSet Samples;
  for (size_t I = 0; I < F.Graphs.size(); ++I) {
    Rng Rand(I);
    collectTrainingSamples(F.Graphs[I], Rand, Samples);
  }
  EdgeModel Model;
  Model.train(Samples);

  CandidateCollector Serial(10, /*ExperimentalPatterns=*/true);
  ASSERT_TRUE(Serial.addGraph(F.Graphs[0], 0));
  Budget Unlimited;
  ASSERT_TRUE(Serial.addGraph(F.Graphs[1], 1, &Unlimited));
  const uint64_t Steps = Unlimited.used();
  ASSERT_GT(Steps, 1u);
  const CandidateLedger Want = peek(Serial, Model);

  for (uint64_t Limit = 1; Limit <= Steps; ++Limit) {
    CandidateCollector C(10, /*ExperimentalPatterns=*/true);
    ASSERT_TRUE(C.addGraph(F.Graphs[0], 0));
    CandidateLedger Before = peek(C, Model);
    size_t Pairs = C.numReceiverPairs(), Matches = C.numMatches();
    size_t Rows = C.numRows();

    Budget B = Budget::steps(Limit);
    bool Done = C.addGraph(F.Graphs[1], 1, &B);
    EXPECT_EQ(Done, Limit == Steps) << "budget " << Limit;
    if (!Done) {
      // A row left behind would be scored into another match's entry.
      ASSERT_EQ(C.numRows(), Rows) << "budget " << Limit;
      EXPECT_TRUE(sameTable(peek(C, Model), Before)) << "budget " << Limit;
      EXPECT_EQ(C.numReceiverPairs(), Pairs) << "budget " << Limit;
      EXPECT_EQ(C.numMatches(), Matches) << "budget " << Limit;
      ASSERT_TRUE(C.addGraph(F.Graphs[1], 1));
    }
    ASSERT_EQ(C.numRows(), Serial.numRows()) << "budget " << Limit;
    EXPECT_TRUE(sameTable(C.take(Model), Want)) << "budget " << Limit;
    EXPECT_EQ(C.numReceiverPairs(), Serial.numReceiverPairs());
    EXPECT_EQ(C.numMatches(), Serial.numMatches());
  }
}

TEST(Candidates, ScoreKinds) {
  CandidateLedger::Entry Stats;
  Stats.Confidences = {0.9, 0.2, 0.8};
  Stats.Matches = 50;
  Stats.Programs = 10;
  EXPECT_DOUBLE_EQ(scoreCandidate(Stats, ScoreKind::MaxConfidence, 10), 0.9);
  EXPECT_DOUBLE_EQ(scoreCandidate(Stats, ScoreKind::TopKMean, 2),
                   (0.9 + 0.8) / 2);
  EXPECT_NEAR(scoreCandidate(Stats, ScoreKind::MatchCount, 10), 50.0 / 75.0,
              1e-12);
  EXPECT_NEAR(scoreCandidate(Stats, ScoreKind::ProgramCount, 10), 0.5, 1e-12);
  EXPECT_GT(scoreCandidate(Stats, ScoreKind::P95, 10), 0.5);
}

//===----------------------------------------------------------------------===//
// End-to-end pipeline (Fig. 1)
//===----------------------------------------------------------------------===//

namespace {

/// Builds a small corpus with a learnable RetArg spec (Map) and a spurious
/// RetSame candidate (Random.next) that the model should score lower.
void buildMiniCorpus(StringInterner &Strings, std::vector<IRProgram> &Corpus) {
  auto Add = [&](const std::string &Source) {
    DiagnosticSink Diags;
    auto P = parseAndLower(Source, "p" + std::to_string(Corpus.size()),
                           Strings, Diags);
    ASSERT_TRUE(P.has_value()) << Diags.render();
    Corpus.push_back(std::move(*P));
  };

  // Direct flows: teach the model that getFile-returns become getName
  // receivers, and that the same file is getName'd repeatedly.
  for (int I = 0; I < 15; ++I) {
    Add(R"(
      class Main {
        def main() {
          var f = db.getFile("cfg");
          var n = f.getName();
          log.info(n);
        }
      }
    )");
    Add(R"(
      class Main {
        def main() {
          var f = db.getFile("data");
          f.getName();
          f.getName();
        }
      }
    )");
    // Noise: values from next() are consumed once, never re-used; launch
    // receivers are unrelated to files.
    Add(R"(
      class Main {
        def main() {
          var r = new Random();
          var a = r.next();
          sink.consume(a);
          var b = r.next();
          sink.consume(b);
          rocket.launch();
        }
      }
    )");
  }

  // Store/load programs: the candidate source.
  for (int I = 0; I < 8; ++I) {
    Add(R"(
      class Main {
        def main() {
          var map = new Map();
          map.put("k", db.getFile("cfg"));
          var f = map.get("k");
          var n = f.getName();
        }
      }
    )");
  }
}

const ScoredCandidate *findCandidate(const LearnResult &Result,
                                     const Spec &S) {
  for (const ScoredCandidate &C : Result.Candidates)
    if (C.S == S)
      return &C;
  return nullptr;
}

} // namespace

TEST(Learner, EndToEndLearnsMapRetArg) {
  StringInterner S;
  std::vector<IRProgram> Corpus;
  buildMiniCorpus(S, Corpus);
  ASSERT_FALSE(Corpus.empty());

  LearnerConfig Config;
  Config.Tau = 0.6;
  USpecLearner Learner(S, Config);
  LearnResult Result = Learner.learn(Corpus);

  EXPECT_GT(Result.NumTrainingSamples, 100u);
  EXPECT_GT(Result.TrainAccuracy, 0.8);

  Spec MapRetArg = Spec::retArg({S.intern("Map"), S.intern("get"), 1},
                                {S.intern("Map"), S.intern("put"), 2}, 2);
  const ScoredCandidate *C = findCandidate(Result, MapRetArg);
  ASSERT_NE(C, nullptr) << "RetArg(Map.get, Map.put, 2) must be a candidate";
  EXPECT_EQ(C->Matches, 8u);

  Spec RandomRetSame =
      Spec::retSame({S.intern("Random"), S.intern("next"), 0});
  const ScoredCandidate *R = findCandidate(Result, RandomRetSame);
  ASSERT_NE(R, nullptr) << "RetSame(Random.next) must arise as a candidate";

  EXPECT_GT(C->Score, R->Score)
      << "the model must rank the true spec above the spurious one";
}

TEST(Learner, SelectionRespectsTauAndExtends) {
  std::vector<ScoredCandidate> Candidates;
  StringInterner S;
  MethodId Get = {S.intern("Map"), S.intern("get"), 1};
  MethodId Put = {S.intern("Map"), S.intern("put"), 2};
  MethodId Next = {S.intern("Random"), S.intern("next"), 0};
  Candidates.push_back({Spec::retArg(Get, Put, 2), 0.9, 10, 5, 10});
  Candidates.push_back({Spec::retSame(Next), 0.3, 10, 5, 10});

  size_t Added = 0;
  SpecSet Selected = USpecLearner::select(Candidates, 0.6, true, &Added);
  EXPECT_EQ(Selected.size(), 2u); // RetArg + extended RetSame(get)
  EXPECT_EQ(Added, 1u);
  EXPECT_TRUE(Selected.hasRetSame(Get));
  EXPECT_FALSE(Selected.hasRetSame(Next));

  SpecSet NoExtend = USpecLearner::select(Candidates, 0.6, false);
  EXPECT_EQ(NoExtend.size(), 1u);

  SpecSet AllSelected = USpecLearner::select(Candidates, 0.0, false);
  EXPECT_EQ(AllSelected.size(), 2u);
}

TEST(Learner, CountApiClasses) {
  StringInterner S;
  std::vector<ScoredCandidate> Candidates;
  Candidates.push_back(
      {Spec::retSame({S.intern("A"), S.intern("m"), 0}), 1, 1, 1, 1});
  Candidates.push_back(
      {Spec::retSame({S.intern("A"), S.intern("n"), 0}), 1, 1, 1, 1});
  Candidates.push_back(
      {Spec::retSame({S.intern("B"), S.intern("m"), 0}), 1, 1, 1, 1});
  EXPECT_EQ(USpecLearner::countApiClasses(Candidates), 2u);
}
