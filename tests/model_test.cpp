//===- model_test.cpp - Tests for the probabilistic model (§4) ----------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "corpus/Generator.h"
#include "corpus/Profiles.h"
#include "ir/Lowering.h"
#include "model/EdgeModel.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>

using namespace uspec;

namespace {

/// Fixture that parses, analyzes (API-unaware) and builds the event graph.
struct ModelFixture {
  StringInterner Strings;
  IRProgram Program;
  AnalysisResult Result;

  EventGraph graph(std::string_view Source) {
    DiagnosticSink Diags;
    auto P = parseAndLower(Source, "test", Strings, Diags);
    EXPECT_TRUE(P.has_value()) << Diags.render();
    Program = std::move(*P);
    Result = analyzeProgram(Program, Strings, AnalysisOptions());
    return EventGraph::build(Result);
  }
};

/// ftr(e1, e2) as one value: the model selector plus its hashes.
struct Extracted {
  uint16_t PosKey = 0;
  std::vector<uint32_t> Hashes;
};

Extracted extract(const EventGraph &G, EventId E1, EventId E2, bool Prune) {
  Extracted X;
  X.PosKey = extractFeatures(G, eventLabels(G), E1, E2, Prune, X.Hashes);
  return X;
}

/// ϕ's confidence in the potential edge (E1, E2) of \p G, as Alg. 1 scores
/// a single induced edge: its features extracted without pruning, then
/// predicted.
double confidence(const EdgeModel &Model, const EventGraph &G, EventId E1,
                  EventId E2) {
  Extracted X = extract(G, E1, E2, /*Prune=*/false);
  return Model.predict(X.PosKey, X.Hashes);
}

} // namespace

//===----------------------------------------------------------------------===//
// Position buckets
//===----------------------------------------------------------------------===//

TEST(Features, BucketPos) {
  EXPECT_EQ(bucketPos(PosRet), PosBucket::Ret);
  EXPECT_EQ(bucketPos(PosReceiver), PosBucket::Receiver);
  EXPECT_EQ(bucketPos(1), PosBucket::Arg1);
  EXPECT_EQ(bucketPos(2), PosBucket::Arg2);
  EXPECT_EQ(bucketPos(3), PosBucket::Arg3);
  EXPECT_EQ(bucketPos(4), PosBucket::ArgMany);
  EXPECT_EQ(bucketPos(9), PosBucket::ArgMany);
}

TEST(Features, PosKeyIsInjective) {
  std::set<uint16_t> Keys;
  for (unsigned A = 0; A < NumPosBuckets; ++A)
    for (unsigned B = 0; B < NumPosBuckets; ++B)
      Keys.insert(posKey(static_cast<PosBucket>(A), static_cast<PosBucket>(B)));
  EXPECT_EQ(Keys.size(), NumPosBuckets * NumPosBuckets);
}

//===----------------------------------------------------------------------===//
// Feature extraction
//===----------------------------------------------------------------------===//

TEST(Features, DeterministicExtraction) {
  ModelFixture F;
  EventGraph G = F.graph(R"(
    class Main { def main() { db.getFile("x").getName(); } }
  )");
  ASSERT_GE(G.numEvents(), 2u);
  Extracted A = extract(G, 0, 1, false);
  Extracted B = extract(G, 0, 1, false);
  EXPECT_EQ(A.PosKey, B.PosKey);
  EXPECT_EQ(A.Hashes, B.Hashes);
}

TEST(Features, PruningRemovesTheLink) {
  ModelFixture F;
  EventGraph G = F.graph(R"(
    class Main { def main() { db.getFile("x").getName(); } }
  )");
  // Locate the (getFile.ret, getName.0) edge.
  EventId From = InvalidEvent, To = InvalidEvent;
  for (EventId E = 0; E < G.numEvents(); ++E) {
    const Event &Ev = G.event(E);
    if (Ev.Kind != EventKind::ApiCall)
      continue;
    if (F.Strings.str(Ev.Method.Name) == "getFile" && Ev.Pos == PosRet)
      From = E;
    if (F.Strings.str(Ev.Method.Name) == "getName" && Ev.Pos == PosReceiver)
      To = E;
  }
  ASSERT_NE(From, InvalidEvent);
  ASSERT_NE(To, InvalidEvent);
  ASSERT_TRUE(G.hasEdge(From, To));

  Extracted Full = extract(G, From, To, /*Prune=*/false);
  Extracted Pruned = extract(G, From, To, /*Prune=*/true);
  EXPECT_LT(Pruned.Hashes.size(), Full.Hashes.size())
      << "pruning must drop the direct-link path features";
}

TEST(Features, DifferentMethodsYieldDifferentFeatures) {
  ModelFixture F;
  EventGraph G = F.graph(R"(
    class Main {
      def main() {
        db.getFile("x").getName();
        db.getConn("y").getName();
      }
    }
  )");
  std::vector<EventId> Rets;
  for (EventId E = 0; E < G.numEvents(); ++E) {
    const Event &Ev = G.event(E);
    if (Ev.Kind == EventKind::ApiCall && Ev.Pos == PosRet &&
        (F.Strings.str(Ev.Method.Name) == "getFile" ||
         F.Strings.str(Ev.Method.Name) == "getConn"))
      Rets.push_back(E);
  }
  ASSERT_EQ(Rets.size(), 2u);
  Extracted A = extract(G, Rets[0], Rets[0], false);
  Extracted B = extract(G, Rets[1], Rets[1], false);
  EXPECT_NE(A.Hashes, B.Hashes);
}

//===----------------------------------------------------------------------===//
// Logistic regression
//===----------------------------------------------------------------------===//

TEST(LogisticRegression, SigmoidBasics) {
  EXPECT_DOUBLE_EQ(LogisticRegression::sigmoid(0), 0.5);
  EXPECT_GT(LogisticRegression::sigmoid(4), 0.95);
  EXPECT_LT(LogisticRegression::sigmoid(-4), 0.05);
}

TEST(LogisticRegression, LearnsSeparableData) {
  LogisticRegression LR(10);
  // Feature 1 => positive, feature 2 => negative.
  std::vector<uint32_t> Pos = {1};
  std::vector<uint32_t> Neg = {2};
  for (int I = 0; I < 200; ++I) {
    LR.update(Pos, 1.0, 0.3, 0);
    LR.update(Neg, 0.0, 0.3, 0);
  }
  EXPECT_GT(LR.predict(Pos), 0.9);
  EXPECT_LT(LR.predict(Neg), 0.1);
}

TEST(LogisticRegression, SharedFeatureSplitsTheDifference) {
  LogisticRegression LR(10);
  std::vector<uint32_t> Shared = {7};
  for (int I = 0; I < 200; ++I) {
    LR.update(Shared, 1.0, 0.2, 0);
    LR.update(Shared, 0.0, 0.2, 0);
  }
  EXPECT_NEAR(LR.predict(Shared), 0.5, 0.1);
}

//===----------------------------------------------------------------------===//
// Training data collection
//===----------------------------------------------------------------------===//

TEST(TrainingData, BalancedLabels) {
  ModelFixture F;
  EventGraph G = F.graph(R"(
    class Main {
      def main() {
        var map = new Map();
        map.put("a", 1);
        map.put("b", 2);
        map.size();
        var x = db.getFile("f");
        x.getName();
        x.close();
      }
    }
  )");
  Rng Rand(42);
  SampleSet Samples;
  collectTrainingSamples(G, Rand, Samples);
  size_t Pos = 0, Neg = 0;
  for (size_t I = 0; I < Samples.size(); ++I)
    (Samples.label(I) > 0.5 ? Pos : Neg)++;
  EXPECT_GT(Pos, 0u);
  EXPECT_GT(Neg, 0u);
  // Negatives are subsampled to roughly match positives.
  EXPECT_LE(Neg, Pos);
  EXPECT_GE(Neg, Pos / 2);
}

TEST(TrainingData, PositivesMatchEdgeCount) {
  ModelFixture F;
  EventGraph G = F.graph(R"(
    class Main { def main() { db.getFile("x").getName(); } }
  )");
  size_t Edges = 0;
  for (EventId E = 0; E < G.numEvents(); ++E)
    Edges += G.children(E).size();
  Rng Rand(1);
  SampleSet Samples;
  collectTrainingSamples(G, Rand, Samples);
  size_t Pos = 0;
  for (size_t I = 0; I < Samples.size(); ++I)
    Pos += Samples.label(I) > 0.5;
  EXPECT_EQ(Pos, Edges);
}

//===----------------------------------------------------------------------===//
// End-to-end model behaviour: the §4.3 insight
//===----------------------------------------------------------------------===//

TEST(EdgeModel, AssignsHighProbabilityToFamiliarMissingEdges) {
  // Train on many direct db.getFile(..).getName() flows, then query the
  // *absent* edge getFile.ret -> getName.0 in a program where the flow runs
  // through an (unknown) Map. The model should consider it likely — that is
  // the key insight enabling specification learning.
  StringInterner Strings;
  std::vector<EventGraph> Graphs;

  auto AddProgram = [&](const std::string &Source) -> EventGraph & {
    DiagnosticSink Diags;
    auto P = parseAndLower(Source, "p" + std::to_string(Graphs.size()),
                           Strings, Diags);
    EXPECT_TRUE(P.has_value()) << Diags.render();
    Graphs.push_back(
        EventGraph::build(analyzeProgram(*P, Strings, AnalysisOptions())));
    return Graphs.back();
  };

  // Training corpus: direct flows plus unrelated noise calls.
  for (int I = 0; I < 20; ++I) {
    AddProgram(R"(
      class Main {
        def main() {
          var f = db.getFile("cfg");
          var n = f.getName();
          rocket.launch();
          log.info(n);
        }
      }
    )");
  }

  Rng Rand(7);
  SampleSet Samples;
  for (const EventGraph &G : Graphs)
    collectTrainingSamples(G, Rand, Samples);
  EdgeModel Model;
  Model.train(Samples);
  EXPECT_GT(Model.accuracy(Samples), 0.85);

  // Query program: the flow is hidden behind map.put/map.get.
  EventGraph &Query = AddProgram(R"(
    class Main {
      def main() {
        var map = new Map();
        map.put("k", db.getFile("cfg"));
        var f = map.get("k");
        var n = f.getName();
      }
    }
  )");

  EventId GetFileRet = InvalidEvent, GetNameRecv = InvalidEvent,
          LaunchRecv = InvalidEvent;
  for (EventId E = 0; E < Query.numEvents(); ++E) {
    const Event &Ev = Query.event(E);
    if (Ev.Kind != EventKind::ApiCall)
      continue;
    if (Strings.str(Ev.Method.Name) == "getFile" && Ev.Pos == PosRet)
      GetFileRet = E;
    if (Strings.str(Ev.Method.Name) == "getName" && Ev.Pos == PosReceiver)
      GetNameRecv = E;
  }
  ASSERT_NE(GetFileRet, InvalidEvent);
  ASSERT_NE(GetNameRecv, InvalidEvent);
  ASSERT_FALSE(Query.hasEdge(GetFileRet, GetNameRecv))
      << "the edge must be absent in the API-unaware graph";

  double PFamiliar = confidence(Model, Query, GetFileRet, GetNameRecv);
  EXPECT_GT(PFamiliar, 0.6) << "familiar interaction should look like an edge";

  // Contrast: getFile.ret -> launch.0 was seen as a NON-edge in training.
  EventGraph &Contrast = AddProgram(R"(
    class Main {
      def main() {
        var map = new Map();
        map.put("k", db.getFile("cfg"));
        var f = map.get("k");
        f.launch();
      }
    }
  )");
  EventId CGetFileRet = InvalidEvent;
  for (EventId E = 0; E < Contrast.numEvents(); ++E) {
    const Event &Ev = Contrast.event(E);
    if (Ev.Kind != EventKind::ApiCall)
      continue;
    if (Strings.str(Ev.Method.Name) == "getFile" && Ev.Pos == PosRet)
      CGetFileRet = E;
    if (Strings.str(Ev.Method.Name) == "launch" && Ev.Pos == PosReceiver)
      LaunchRecv = E;
  }
  ASSERT_NE(CGetFileRet, InvalidEvent);
  ASSERT_NE(LaunchRecv, InvalidEvent);
  double PUnfamiliar = confidence(Model, Contrast, CGetFileRet, LaunchRecv);
  EXPECT_LT(PUnfamiliar, PFamiliar)
      << "an interaction pattern never observed must score lower";
}

TEST(EdgeModel, UnseenPosKeyFallsBackToHalf) {
  EdgeModel Model;
  Extracted F;
  F.PosKey = 35;
  F.Hashes = {1, 2, 3};
  EXPECT_DOUBLE_EQ(Model.predict(F.PosKey, F.Hashes), 0.5);
}

//===----------------------------------------------------------------------===//
// The flat training set
//===----------------------------------------------------------------------===//

namespace {

/// Event graphs of a small generated Java corpus.
struct CorpusGraphs {
  StringInterner Strings;
  std::vector<EventGraph> Graphs;

  CorpusGraphs(size_t Programs, uint64_t Seed) {
    GeneratorConfig Cfg;
    Cfg.NumPrograms = Programs;
    Cfg.Seed = Seed;
    GeneratedCorpus Corpus = generateCorpus(javaProfile(), Cfg, Strings);
    for (const IRProgram &P : Corpus.Programs)
      Graphs.push_back(
          EventGraph::build(analyzeProgram(P, Strings, AnalysisOptions())));
  }

  SampleSet samples(uint64_t Seed) const {
    SampleSet Out;
    for (size_t I = 0; I < Graphs.size(); ++I) {
      Rng Rand(hashValues(Seed, I));
      collectTrainingSamples(Graphs[I], Rand, Out);
    }
    return Out;
  }
};

/// One sample as EdgeModel::train held it before the training set was
/// flattened: a struct owning its own hash vector.
struct OracleSample {
  uint16_t PosKey = 0;
  std::vector<uint32_t> Hashes;
  float Label = 0;
};

std::vector<OracleSample> oracleSamples(const SampleSet &Set) {
  std::vector<OracleSample> Out;
  for (size_t I = 0; I < Set.size(); ++I) {
    std::span<const uint32_t> H = Set.hashes(I);
    Out.push_back({Set.posKey(I), {H.begin(), H.end()}, Set.label(I)});
  }
  return Out;
}

/// The per-sample SGD loop train() ran over std::vector<TrainingSample>:
/// every epoch shuffles the sample structs themselves and looks each model
/// up in the bank. The flat train() must reproduce its weights bit for bit.
EdgeModel oracleTrain(const EdgeModel &Start,
                      std::vector<OracleSample> Samples) {
  EdgeModelConfig Config = Start.config();
  std::map<uint16_t, LogisticRegression> Models = Start.models();
  Rng Rand(Config.Seed);
  double LR = Config.LearningRate;
  for (unsigned Epoch = 0; Epoch < Config.Epochs; ++Epoch) {
    Rand.shuffle(Samples);
    for (const OracleSample &S : Samples) {
      auto It = Models.find(S.PosKey);
      if (It == Models.end())
        It = Models.emplace(S.PosKey, LogisticRegression(Config.DimBits))
                 .first;
      It->second.update(S.Hashes, S.Label, LR, Config.L2);
    }
    LR *= 0.7;
  }
  return EdgeModel::restore(Config, std::move(Models));
}

/// Bit equality of two banks: same keys, same bias and weight bits.
void expectBitEqual(const EdgeModel &A, const EdgeModel &B) {
  ASSERT_EQ(A.numModels(), B.numModels());
  auto It = B.models().begin();
  for (const auto &[Key, M] : A.models()) {
    ASSERT_EQ(Key, It->first);
    float BiasA = M.bias(), BiasB = It->second.bias();
    EXPECT_EQ(std::memcmp(&BiasA, &BiasB, sizeof(float)), 0)
        << "bias of model " << Key;
    ASSERT_EQ(M.weights().size(), It->second.weights().size());
    EXPECT_EQ(std::memcmp(M.weights().data(), It->second.weights().data(),
                          M.weights().size() * sizeof(float)),
              0)
        << "weights of model " << Key;
    ++It;
  }
}

} // namespace

TEST(SampleSet, RowsAppendAndConcatenateInOrder) {
  SampleSet A;
  A.add(3, 1.0f, std::vector<uint32_t>{1, 2, 3});
  A.add(4, 0.0f, std::vector<uint32_t>{});
  SampleSet B;
  B.pool().push_back(9);
  B.closeRow(5, 1.0f);

  std::vector<SampleSet> Parts;
  Parts.push_back(A);
  Parts.push_back(SampleSet());
  Parts.push_back(B);
  SampleSet All = SampleSet::concat(std::move(Parts));
  ASSERT_EQ(All.size(), 3u);
  EXPECT_EQ(All.numHashes(), 4u);
  EXPECT_EQ(All.posKey(0), 3);
  EXPECT_EQ(All.posKey(2), 5);
  EXPECT_EQ(All.label(1), 0.0f);
  EXPECT_EQ(std::vector<uint32_t>(All.hashes(0).begin(), All.hashes(0).end()),
            (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_TRUE(All.hashes(1).empty());
  EXPECT_EQ(All.hashes(2)[0], 9u);
}

TEST(SampleSet, CollectedRowsEqualExtractFeatures) {
  // collectTrainingSamples writes each row in place into the shared pool;
  // every row must equal a standalone extraction of the same pair. The pairs
  // are replayed here: positives are the edges in order, negatives the
  // same-context non-edges the same Rng draws pick.
  CorpusGraphs C(30, 11);
  size_t Checked = 0;
  for (size_t I = 0; I < C.Graphs.size(); ++I) {
    const EventGraph &G = C.Graphs[I];
    SampleSet Set;
    Set.add(7, 1.0f, std::vector<uint32_t>{42}); // rows append after this
    Rng Rand(I), Replay(I);
    collectTrainingSamples(G, Rand, Set);

    size_t N = G.numEvents();
    if (N < 2) {
      EXPECT_EQ(Set.size(), 1u);
      continue;
    }
    std::vector<std::pair<EventId, EventId>> Pairs;
    for (EventId E1 = 0; E1 < N; ++E1)
      for (EventId E2 : G.children(E1))
        Pairs.push_back({E1, E2});
    size_t Positives = Pairs.size(), MaxAttempts = Positives * 20 + 64;
    for (size_t Attempts = 0;
         Pairs.size() < 2 * Positives && Attempts < MaxAttempts; ++Attempts) {
      EventId E1 = static_cast<EventId>(Replay.below(N));
      EventId E2 = static_cast<EventId>(Replay.below(N));
      if (E1 == E2 || G.event(E1).Ctx != G.event(E2).Ctx ||
          G.hasEdge(E1, E2) || G.hasEdge(E2, E1))
        continue;
      Pairs.push_back({E1, E2});
    }
    ASSERT_EQ(Set.size(), Pairs.size() + 1) << "graph " << I;
    for (size_t R = 0; R < Pairs.size(); ++R) {
      bool Positive = R < Positives;
      Extracted X = extract(G, Pairs[R].first, Pairs[R].second, Positive);
      std::span<const uint32_t> Row = Set.hashes(R + 1);
      EXPECT_EQ(Set.posKey(R + 1), X.PosKey) << "graph " << I << " row " << R;
      EXPECT_EQ(Set.label(R + 1), Positive ? 1.0f : 0.0f);
      EXPECT_EQ(std::vector<uint32_t>(Row.begin(), Row.end()), X.Hashes)
          << "graph " << I << " row " << R;
      ++Checked;
    }
  }
  EXPECT_GT(Checked, 100u);
}

TEST(SampleSetTraining, ColdStartMatchesPerSampleOracle) {
  CorpusGraphs C(40, 5);
  SampleSet Set = C.samples(17);
  ASSERT_GT(Set.size(), 200u);
  EdgeModelConfig Cfg;
  Cfg.DimBits = 12; // small tables: many colliding updates
  EdgeModel Cold(Cfg);
  EdgeModel Expected = oracleTrain(Cold, oracleSamples(Set));
  Cold.train(Set);
  expectBitEqual(Cold, Expected);
  EXPECT_EQ(Cold.accuracy(Set), Expected.accuracy(Set));
}

TEST(SampleSetTraining, WarmStartMatchesPerSampleOracle) {
  CorpusGraphs C(40, 6);
  SampleSet Base = C.samples(1), Delta = C.samples(2);
  EdgeModelConfig Cfg;
  Cfg.DimBits = 12;
  Cfg.Seed = 99;
  EdgeModel Warm(Cfg);
  Warm.train(Base);
  ASSERT_GT(Warm.numModels(), 0u);
  EdgeModel Expected = oracleTrain(Warm, oracleSamples(Delta));
  Warm.train(Delta);
  expectBitEqual(Warm, Expected);
}

TEST(SampleSetTraining, EmptySetLeavesTheBankUnchanged) {
  CorpusGraphs C(10, 7);
  EdgeModelConfig Cfg;
  Cfg.DimBits = 10;
  EdgeModel Cold(Cfg);
  Cold.train(SampleSet());
  EXPECT_EQ(Cold.numModels(), 0u);
  EXPECT_EQ(Cold.accuracy(SampleSet()), 0.0);

  EdgeModel Warm(Cfg);
  Warm.train(C.samples(3));
  EdgeModel Expected = oracleTrain(Warm, {});
  Warm.train(SampleSet());
  expectBitEqual(Warm, Expected);
}

TEST(SampleSetTraining, UnseenPosKeysGetFreshModels) {
  // A warm bank over the real position pairs, continued on samples whose
  // selectors it has never seen (including ones no PosBucket pair yields,
  // as a wire peer could send): both loops must create the same models.
  CorpusGraphs C(20, 8);
  EdgeModelConfig Cfg;
  Cfg.DimBits = 10;
  EdgeModel Warm(Cfg);
  Warm.train(C.samples(4));
  size_t Before = Warm.numModels();

  SampleSet Novel = C.samples(5);
  Rng Rand(3);
  for (uint16_t Key : {uint16_t(40), uint16_t(1000), uint16_t(65535)})
    for (int I = 0; I < 20; ++I) {
      std::vector<uint32_t> Hashes;
      for (int J = 0; J < 6; ++J)
        Hashes.push_back(static_cast<uint32_t>(Rand.next()));
      Novel.add(Key, static_cast<float>(I % 2), Hashes);
    }
  EdgeModel Expected = oracleTrain(Warm, oracleSamples(Novel));
  Warm.train(Novel);
  EXPECT_EQ(Warm.numModels(), Before + 3);
  expectBitEqual(Warm, Expected);
  EXPECT_EQ(Warm.accuracy(Novel), Expected.accuracy(Novel));
}
