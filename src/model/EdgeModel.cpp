//===- EdgeModel.cpp - The probabilistic event graph model ϕ (§4) ------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "model/EdgeModel.h"

#include "support/Trace.h"

#include <numeric>
#include <stdexcept>

using namespace uspec;

void EdgeModel::train(const SampleSet &Samples) {
  size_t N = Samples.size();
  if (N == 0 || Config.Epochs == 0)
    return;
  if (N > UINT32_MAX)
    throw std::length_error("training set exceeds 2^32 samples");

  // Resolve each position pair's model once. A new model starts with zero
  // weights, so creating it before the first epoch trains exactly like
  // creating it at its first update; std::map never moves its elements.
  std::vector<LogisticRegression *> ModelOf;
  for (uint16_t Key : Samples.posKeys()) {
    if (Key >= ModelOf.size())
      ModelOf.resize(Key + size_t(1), nullptr);
    if (!ModelOf[Key])
      ModelOf[Key] = &Models.try_emplace(Key, Config.DimBits).first->second;
  }

  // Shuffling a permutation with the Rng draws a shuffle of the samples
  // themselves would take yields the same visiting order, so the weights
  // are bit-identical to training on a shuffled copy of the set.
  //
  // Visiting samples in random order misses the cache three times per
  // sample: on its metadata, on its hash row, and on its weight slots, each
  // address depending on the one before. A software pipeline hides the
  // misses by prefetching metadata MetaAhead samples ahead, the row RowAhead
  // ahead and the weights WeightAhead ahead. Prefetches are hints only.
  constexpr size_t MetaAhead = 8, RowAhead = 4, WeightAhead = 2;
  std::vector<uint32_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0u);
  Rng Rand(Config.Seed);
  double LR = Config.LearningRate;
  for (unsigned Epoch = 0; Epoch < Config.Epochs; ++Epoch) {
    TraceSpan EpochSpan("model.sgd_epoch");
    Rand.shuffle(Order);
    for (size_t J = 0; J < N; ++J) {
      if (J + MetaAhead < N)
        Samples.prefetchMeta(Order[J + MetaAhead]);
      if (J + RowAhead < N)
        Samples.prefetchHashes(Order[J + RowAhead]);
      if (J + WeightAhead < N) {
        uint32_t Next = Order[J + WeightAhead];
        ModelOf[Samples.posKey(Next)]->prefetch(Samples.hashes(Next));
      }
      uint32_t I = Order[J];
      ModelOf[Samples.posKey(I)]->update(Samples.hashes(I), Samples.label(I),
                                         LR, Config.L2);
    }
    LR *= 0.7; // simple decay schedule
  }
}

double EdgeModel::predict(uint16_t PosKey,
                          std::span<const uint32_t> Hashes) const {
  auto It = Models.find(PosKey);
  if (It == Models.end())
    return 0.5;
  return It->second.predict(Hashes);
}

double EdgeModel::accuracy(const SampleSet &Samples) const {
  if (Samples.empty())
    return 0;
  // The bank indexed by position pair; keys without a model predict 0.5.
  std::vector<const LogisticRegression *> ModelOf(
      Models.empty() ? 0 : Models.rbegin()->first + size_t(1), nullptr);
  for (const auto &[Key, M] : Models)
    ModelOf[Key] = &M;
  size_t Correct = 0;
  for (size_t I = 0; I < Samples.size(); ++I) {
    uint16_t Key = Samples.posKey(I);
    double P = Key < ModelOf.size() && ModelOf[Key]
                   ? ModelOf[Key]->predict(Samples.hashes(I))
                   : 0.5;
    Correct += (P >= 0.5) == (Samples.label(I) >= 0.5);
  }
  return static_cast<double>(Correct) / static_cast<double>(Samples.size());
}

void uspec::collectTrainingSamples(const EventGraph &G, Rng &Rand,
                                   SampleSet &Out) {
  size_t N = G.numEvents();
  if (N < 2)
    return;
  EventLabels Labels = eventLabels(G);
  size_t NumPositives = 0;
  for (EventId E = 0; E < N; ++E)
    NumPositives += G.children(E).size();
  // At most one negative per positive; room for 8 hashes a sample (they
  // average about 7).
  Out.reserve(2 * NumPositives, 16 * NumPositives);
  std::vector<uint32_t> &Pool = Out.pool();

  // Positives: all edges, with contexts pruned so the pair link itself does
  // not leak into the features (§4.2).
  for (EventId E1 = 0; E1 < N; ++E1)
    for (EventId E2 : G.children(E1))
      Out.closeRow(extractFeatures(G, Labels, E1, E2, /*PruneLink=*/true, Pool),
                   1);

  // Negatives: event pairs in the same calling context (same Ctx value, i.e.
  // the same inlining chain) that are not connected in either direction.
  size_t Want = NumPositives;
  size_t Attempts = 0, MaxAttempts = Want * 20 + 64;
  size_t Produced = 0;
  while (Produced < Want && Attempts < MaxAttempts) {
    ++Attempts;
    EventId E1 = static_cast<EventId>(Rand.below(N));
    EventId E2 = static_cast<EventId>(Rand.below(N));
    if (E1 == E2)
      continue;
    if (G.event(E1).Ctx != G.event(E2).Ctx)
      continue;
    if (G.hasEdge(E1, E2) || G.hasEdge(E2, E1))
      continue;
    Out.closeRow(extractFeatures(G, Labels, E1, E2, /*PruneLink=*/false, Pool),
                 0);
    ++Produced;
  }
}
