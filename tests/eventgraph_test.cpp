//===- eventgraph_test.cpp - Tests for the event graph (§3.3) ----------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Candidates.h"
#include "corpus/Generator.h"
#include "corpus/Profiles.h"
#include "eventgraph/EventGraph.h"
#include "ir/Lowering.h"
#include "model/EdgeModel.h"

#include <gtest/gtest.h>

#include <memory>

using namespace uspec;

namespace {

struct GraphFixture {
  StringInterner Strings;
  IRProgram Program;
  AnalysisResult Result;
  SpecSet Specs;

  EventGraph buildGraph(std::string_view Source,
                        bool Aware = false, bool Coverage = false) {
    DiagnosticSink Diags;
    auto P = parseAndLower(Source, "test", Strings, Diags);
    EXPECT_TRUE(P.has_value()) << Diags.render();
    Program = std::move(*P);
    AnalysisOptions Options;
    if (Aware) {
      MethodId Get = {Strings.intern("Map"), Strings.intern("get"), 1};
      MethodId Put = {Strings.intern("Map"), Strings.intern("put"), 2};
      Specs.insert(Spec::retArg(Get, Put, 2));
      Specs.insert(Spec::retSame(Get));
      Options.ApiAware = true;
      Options.Specs = &Specs;
      Options.CoverageExtension = Coverage;
    }
    Result = analyzeProgram(Program, Strings, Options);
    return EventGraph::build(Result);
  }

  /// Finds the Nth call site whose method name is \p Name.
  const CallSite *site(const EventGraph &G, const std::string &Name,
                       int Occurrence = 0) {
    int Found = 0;
    for (const CallSite &CS : G.callSites()) {
      if (Strings.str(CS.Method.Name) == Name) {
        if (Found == Occurrence)
          return &CS;
        ++Found;
      }
    }
    ADD_FAILURE() << "call site not found: " << Name;
    return nullptr;
  }
};

using EventGraphTest = ::testing::Test;

constexpr const char *Fig2 = R"(
  class Main {
    def main() {
      var map = new Map();
      map.put("key", someApi.getFile());
      var name = map.get("key").getName();
    }
  }
)";

} // namespace

TEST(EventGraphTest, Fig3EdgesUnaware) {
  GraphFixture F;
  EventGraph G = F.buildGraph(Fig2);

  const CallSite *Put = F.site(G, "put");
  const CallSite *Get = F.site(G, "get");
  const CallSite *GetFile = F.site(G, "getFile");
  const CallSite *GetName = F.site(G, "getName");
  ASSERT_TRUE(Put && Get && GetFile && GetName);

  // Receiver chain on map: put.0 -> get.0.
  EXPECT_TRUE(G.hasEdge(Put->Recv, Get->Recv));
  EXPECT_FALSE(G.hasEdge(Get->Recv, Put->Recv));
  // o1: getFile.ret -> put.2.
  ASSERT_EQ(Put->Args.size(), 2u);
  EXPECT_TRUE(G.hasEdge(GetFile->Ret, Put->Args[1]));
  // o2: get.ret -> getName.0.
  EXPECT_TRUE(G.hasEdge(Get->Ret, GetName->Recv));
  // The dashed edge ℓ (getFile.ret -> getName.0) must NOT exist unaware.
  EXPECT_FALSE(G.hasEdge(GetFile->Ret, GetName->Recv));
}

TEST(EventGraphTest, Fig3AllocAndAliasUnaware) {
  GraphFixture F;
  EventGraph G = F.buildGraph(Fig2);
  const CallSite *Get = F.site(G, "get");
  const CallSite *GetName = F.site(G, "getName");
  const CallSite *GetFile = F.site(G, "getFile");

  // allocG(e1) = {⟨get, ret⟩} for e1 = ⟨getName, 0⟩ (paper's example).
  const auto &Alloc = G.allocOf(GetName->Recv);
  ASSERT_EQ(Alloc.size(), 1u);
  EXPECT_EQ(Alloc[0], Get->Ret);
  EXPECT_TRUE(G.mayAlias(GetName->Recv, Get->Ret));
  EXPECT_FALSE(G.mayAlias(GetName->Recv, GetFile->Ret));
}

TEST(EventGraphTest, ValuesAndEqualG) {
  GraphFixture F;
  EventGraph G = F.buildGraph(Fig2);
  const CallSite *Put = F.site(G, "put");
  const CallSite *Get = F.site(G, "get");

  // valG(⟨put,1⟩) = {"key"} = valG(⟨get,1⟩): equal keys.
  ASSERT_EQ(Put->Args.size(), 2u);
  ASSERT_EQ(Get->Args.size(), 1u);
  EXPECT_EQ(G.valOf(Put->Args[0]).size(), 1u);
  EXPECT_TRUE(G.equalVals(Put->Args[0], Get->Args[0]));
  // valG(⟨put,2⟩) = ∅ (an API return has no value).
  EXPECT_TRUE(G.valOf(Put->Args[1]).empty());
  EXPECT_FALSE(G.equalVals(Put->Args[1], Get->Args[0]));
}

TEST(EventGraphTest, DashedEdgeAppearsInAwareMode) {
  GraphFixture F;
  EventGraph G = F.buildGraph(Fig2, /*Aware=*/true);
  const CallSite *GetFile = F.site(G, "getFile");
  const CallSite *GetName = F.site(G, "getName");
  // The edge ℓ of Fig. 3: getFile.ret -> getName.0 after the history merge.
  EXPECT_TRUE(G.hasEdge(GetFile->Ret, GetName->Recv));
  EXPECT_TRUE(G.mayAlias(GetFile->Ret, GetName->Recv));
}

TEST(EventGraphTest, EdgesAreTransitiveWithinHistories) {
  GraphFixture F;
  EventGraph G = F.buildGraph(R"(
    class Main {
      def main() {
        var x = api.make();
        x.a();
        x.b();
        x.c();
      }
    }
  )");
  const CallSite *A = F.site(G, "a");
  const CallSite *C = F.site(G, "c");
  // a.0 -> c.0 even though b is between them (transitive closure within the
  // history).
  EXPECT_TRUE(G.hasEdge(A->Recv, C->Recv));
}

TEST(EventGraphTest, ConflictingOrdersYieldNoEdge) {
  // The edge rule requires e1 before e2 in ALL histories containing both.
  // Source-level branches produce distinct call sites, so we construct the
  // conflict synthetically: two histories of one object with opposite orders.
  AnalysisResult R;
  Event A;
  A.Kind = EventKind::ApiCall;
  A.Site = 1;
  A.Pos = PosReceiver;
  Event B = A;
  B.Site = 2;
  Event C = A;
  C.Site = 3;
  EventId EA = R.Events.getOrCreate(A);
  EventId EB = R.Events.getOrCreate(B);
  EventId EC = R.Events.getOrCreate(C);
  R.Histories.resize(1);
  R.Histories[0] = {{EA, EB, EC}, {EB, EA}};
  EventGraph G = EventGraph::build(R);
  // a/b conflict: no edge either way.
  EXPECT_FALSE(G.hasEdge(EA, EB));
  EXPECT_FALSE(G.hasEdge(EB, EA));
  // b/c and a/c are consistent (only the first history has them).
  EXPECT_TRUE(G.hasEdge(EB, EC));
  EXPECT_TRUE(G.hasEdge(EA, EC));
}

TEST(EventGraphTest, BranchCallSitesAreDistinct) {
  // Same source-level method called in both branches yields two distinct
  // call sites (and thus no order conflict).
  GraphFixture F;
  EventGraph G = F.buildGraph(R"(
    class Main {
      def main(c) {
        var x = api.make();
        if (c == null) { x.a(); x.b(); } else { x.b(); x.a(); }
      }
    }
  )");
  int ACount = 0;
  for (const CallSite &CS : G.callSites())
    if (F.Strings.str(CS.Method.Name) == "a")
      ++ACount;
  EXPECT_EQ(ACount, 2);
}

TEST(EventGraphTest, ReceiverPairsRespectOrderAndDistance) {
  GraphFixture F;
  EventGraph G = F.buildGraph(R"(
    class Main {
      def main() {
        var map = new Map();
        map.put("k", 1);
        map.get("k");
      }
    }
  )");
  auto Pairs = G.receiverPairs(10);
  // Expect the ordered pair (get, put): later first.
  bool Found = false;
  for (auto [Later, Earlier] : Pairs) {
    const CallSite &L = G.callSites()[Later];
    const CallSite &E = G.callSites()[Earlier];
    if (F.Strings.str(L.Method.Name) == "get" &&
        F.Strings.str(E.Method.Name) == "put")
      Found = true;
    // Never the reverse.
    EXPECT_FALSE(F.Strings.str(L.Method.Name) == "put" &&
                 F.Strings.str(E.Method.Name) == "get");
  }
  EXPECT_TRUE(Found);
}

TEST(EventGraphTest, ReceiverPairsDistanceBound) {
  // 12 intervening calls on the receiver push put/get beyond distance 10.
  std::string Src = R"(
    class Main {
      def main() {
        var map = new Map();
        map.put("k", 1);
  )";
  for (int I = 0; I < 12; ++I)
    Src += "      map.touch" + std::to_string(I) + "();\n";
  Src += R"(
        map.get("k");
      }
    }
  )";
  GraphFixture F;
  EventGraph G = F.buildGraph(Src);
  auto Pairs = G.receiverPairs(10);
  for (auto [Later, Earlier] : Pairs) {
    EXPECT_FALSE(F.Strings.str(G.callSites()[Later].Method.Name) == "get" &&
                 F.Strings.str(G.callSites()[Earlier].Method.Name) == "put")
        << "pair beyond the distance bound must be excluded";
  }
  // But with a loose bound it appears.
  auto LoosePairs = G.receiverPairs(100);
  bool Found = false;
  for (auto [Later, Earlier] : LoosePairs)
    if (F.Strings.str(G.callSites()[Later].Method.Name) == "get" &&
        F.Strings.str(G.callSites()[Earlier].Method.Name) == "put")
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(EventGraphTest, CallSiteGroupingIsComplete) {
  GraphFixture F;
  EventGraph G = F.buildGraph(Fig2);
  const CallSite *Put = F.site(G, "put");
  ASSERT_NE(Put, nullptr);
  EXPECT_NE(Put->Recv, InvalidEvent);
  EXPECT_NE(Put->Ret, InvalidEvent);
  ASSERT_EQ(Put->Args.size(), 2u);
  EXPECT_NE(Put->Args[0], InvalidEvent);
  EXPECT_NE(Put->Args[1], InvalidEvent);
  EXPECT_EQ(G.callSiteOf(Put->Recv), G.callSiteOf(Put->Ret));
}

TEST(EventGraphTest, ParticipantsTrackObjects) {
  GraphFixture F;
  EventGraph G = F.buildGraph(Fig2);
  const CallSite *Put = F.site(G, "put");
  // put.0's participant is the Map object.
  const auto &Objs = G.participants(Put->Recv);
  ASSERT_EQ(Objs.size(), 1u);
  EXPECT_EQ(F.Result.Objects.get(Objs[0]).Kind, ObjectKind::New);
}

TEST(EventGraphTest, GraphOutlivesItsAnalysis) {
  // The graph owns what its readers use: sampling, receiver pairs and
  // candidate extraction read the same facts from a graph whose analysis
  // was destroyed as from one whose analysis is still alive.
  StringInterner Strings;
  LanguageProfile Profile = javaProfile();
  GeneratorConfig Gen;
  Rng Sources(41);
  std::vector<IRProgram> Programs;
  for (int I = 0; I < 6; ++I) {
    DiagnosticSink Diags;
    auto P = parseAndLower(generateProgramSource(Profile, Gen, Sources),
                           "p" + std::to_string(I), Strings, Diags);
    ASSERT_TRUE(P.has_value()) << Diags.render();
    Programs.push_back(std::move(*P));
  }
  std::vector<AnalysisResult> Alive;
  std::vector<EventGraph> Orphaned;
  for (const IRProgram &P : Programs) {
    Alive.push_back(analyzeProgram(P, Strings, AnalysisOptions()));
    auto Dead = std::make_unique<AnalysisResult>(
        analyzeProgram(P, Strings, AnalysisOptions()));
    Orphaned.push_back(EventGraph::build(*Dead));
  }
  std::vector<EventGraph> Kept;
  for (const AnalysisResult &R : Alive)
    Kept.push_back(EventGraph::build(R));

  SampleSet KeptSamples, OrphanSamples;
  for (size_t I = 0; I < Programs.size(); ++I) {
    Rng A(I), B(I);
    collectTrainingSamples(Kept[I], A, KeptSamples);
    collectTrainingSamples(Orphaned[I], B, OrphanSamples);
    EXPECT_EQ(Kept[I].receiverPairs(10), Orphaned[I].receiverPairs(10))
        << "program " << I;
  }
  ASSERT_GT(KeptSamples.size(), 0u);
  ASSERT_EQ(KeptSamples.size(), OrphanSamples.size());
  for (size_t S = 0; S < KeptSamples.size(); ++S) {
    EXPECT_EQ(KeptSamples.posKey(S), OrphanSamples.posKey(S)) << S;
    EXPECT_EQ(KeptSamples.label(S), OrphanSamples.label(S)) << S;
    auto HA = KeptSamples.hashes(S), HB = OrphanSamples.hashes(S);
    EXPECT_TRUE(std::equal(HA.begin(), HA.end(), HB.begin(), HB.end())) << S;
  }

  EdgeModel Model;
  Model.train(KeptSamples);
  CandidateCollector FromKept, FromOrphans;
  for (size_t I = 0; I < Programs.size(); ++I) {
    FromKept.addGraph(Kept[I], static_cast<uint32_t>(I));
    FromOrphans.addGraph(Orphaned[I], static_cast<uint32_t>(I));
  }
  const CandidateLedger KeptLedger = FromKept.take(Model);
  const CandidateLedger OrphanLedger = FromOrphans.take(Model);
  const auto &KeptTable = KeptLedger.Entries;
  const auto &OrphanTable = OrphanLedger.Entries;
  ASSERT_FALSE(KeptTable.empty());
  ASSERT_EQ(KeptTable.size(), OrphanTable.size());
  for (size_t I = 0; I < KeptTable.size(); ++I) {
    const CandidateLedger::Entry &A = KeptTable[I], &B = OrphanTable[I];
    ASSERT_EQ(A.S, B.S) << "slot " << I;
    EXPECT_EQ(A.Confidences, B.Confidences) << A.S.str(Strings);
    EXPECT_EQ(A.Matches, B.Matches) << A.S.str(Strings);
  }
}
