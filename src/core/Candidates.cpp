//===- Candidates.cpp - Candidate extraction & scoring (Alg. 1, §5.2) --------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Candidates.h"

#include <cassert>

using namespace uspec;

double uspec::scoreCandidate(const std::vector<double> &Confidences,
                             size_t Matches, size_t Programs, ScoreKind Kind,
                             size_t TopK) {
  switch (Kind) {
  case ScoreKind::TopKMean:
  case ScoreKind::NameAware: // the prior is blended in by the learner
    return topKMean(Confidences, TopK);
  case ScoreKind::MaxConfidence:
    return maxValue(Confidences);
  case ScoreKind::P95:
    return percentile(Confidences, 0.95);
  case ScoreKind::MatchCount:
    // Squashed into [0, 1) so that τ sweeps apply uniformly.
    return static_cast<double>(Matches) /
           (static_cast<double>(Matches) + 25.0);
  case ScoreKind::ProgramCount:
    return static_cast<double>(Programs) /
           (static_cast<double>(Programs) + 10.0);
  }
  return 0;
}

double uspec::scoreCandidate(const CandidateStats &Stats, ScoreKind Kind,
                             size_t TopK) {
  return scoreCandidate(Stats.Confidences, Stats.Matches, Stats.Programs,
                        Kind, TopK);
}

void CandidateCollector::recordMatch(const Spec &S, const EventGraph &G,
                                     EventLabels &Labels,
                                     const std::vector<InducedEdge> &Edges,
                                     uint32_t ProgramId) {
  CandidateStats *Stats;
  auto It = Candidates.find(S);
  if (It == Candidates.end()) {
    Stats = &Candidates[S];
    Order.push_back(S);
  } else {
    Stats = &It->second;
  }
  ++Stats->Matches;
  ++TotalMatches;
  if (Stats->ProgramIds.insert(ProgramId).second)
    Stats->Programs = Stats->ProgramIds.size();

  // Alg. 1 line 6–8: only matches inducing exactly one edge are scored.
  if (Edges.size() != 1)
    return;
  if (Labels.empty())
    Labels = eventLabels(G);
  Stats->Confidences.push_back(
      Model.edgeProbability(G, Labels, Edges[0].first, Edges[0].second));
}

void CandidateCollector::merge(CandidateCollector &&Other) {
  assert(&Model == &Other.Model && DistanceBound == Other.DistanceBound &&
         Experimental == Other.Experimental &&
         "merging collectors with different extraction settings");
  for (Spec &S : Other.Order) {
    auto OtherIt = Other.Candidates.find(S);
    assert(OtherIt != Other.Candidates.end());
    CandidateStats &Incoming = OtherIt->second;
    auto It = Candidates.find(S);
    if (It == Candidates.end()) {
      // First sighting across all shards so far: the candidate keeps the
      // consuming shard's stats wholesale and appends to the global order,
      // exactly where a serial run would have first created it.
      Candidates.emplace(S, std::move(Incoming));
      Order.push_back(std::move(S));
      continue;
    }
    CandidateStats &Mine = It->second;
    // Other covers later graphs, so its confidences go after ours — the
    // concatenation reproduces the serial graph-order ΓS.
    Mine.Confidences.insert(Mine.Confidences.end(),
                            Incoming.Confidences.begin(),
                            Incoming.Confidences.end());
    Mine.Matches += Incoming.Matches;
    Mine.ProgramIds.insert(Incoming.ProgramIds.begin(),
                           Incoming.ProgramIds.end());
    Mine.Programs = Mine.ProgramIds.size();
  }
  ReceiverPairsSeen += Other.ReceiverPairsSeen;
  TotalMatches += Other.TotalMatches;
  Other.Candidates.clear();
  Other.Order.clear();
}

void CandidateLedger::extendWith(const CandidateCollector &Delta) {
  std::unordered_map<Spec, size_t, SpecHash> Index;
  Index.reserve(Entries.size());
  for (size_t I = 0; I < Entries.size(); ++I)
    Index.emplace(Entries[I].S, I);
  for (const Spec &S : Delta.candidates()) {
    const CandidateStats &Stats = Delta.stats().at(S);
    auto It = Index.find(S);
    if (It == Index.end()) {
      Entries.push_back(
          Entry{S, Stats.Confidences, Stats.Matches, Stats.Programs});
      continue;
    }
    Entry &E = Entries[It->second];
    // Delta covers strictly later graphs: its ΓS goes after ours, and its
    // program-id set is disjoint from everything folded in so far.
    E.Confidences.insert(E.Confidences.end(), Stats.Confidences.begin(),
                         Stats.Confidences.end());
    E.Matches += Stats.Matches;
    E.Programs += Stats.Programs;
  }
}

bool CandidateCollector::addGraph(const EventGraph &G, uint32_t ProgramId,
                                  Budget *B) {
  EventLabels Labels;
  for (auto [LaterIdx, EarlierIdx] : G.receiverPairs(DistanceBound)) {
    if (B && !B->consume())
      return false;
    ++ReceiverPairsSeen;
    const CallSite &M1 = G.callSites()[LaterIdx];
    const CallSite &M2 = G.callSites()[EarlierIdx];

    // Skip pairs with unusable method names (should not happen in practice).
    if (M1.Method.Name.isEmpty() || M2.Method.Name.isEmpty())
      continue;

    if (matchesRetSame(G, M1, M2, B)) {
      Spec S = Spec::retSame(M1.Method);
      recordMatch(S, G, Labels, inducedRetSame(G, M1, M2), ProgramId);
    }
    for (unsigned X = 1; X <= M2.nargs(); ++X) {
      if (!matchesRetArg(G, M1, M2, X, B))
        continue;
      Spec S = Spec::retArg(M1.Method, M2.Method, static_cast<uint8_t>(X));
      recordMatch(S, G, Labels, inducedRetArg(G, M1, M2, X), ProgramId);
    }
    if (B && B->exhausted())
      return false;
  }

  // Experimental RetRecv pattern (§5.3): every call site with receiver and
  // return matches trivially; the scoring has to carry all the weight.
  if (Experimental) {
    for (const CallSite &M : G.callSites()) {
      if (B && !B->consume())
        return false;
      if (M.Recv == InvalidEvent || M.Ret == InvalidEvent ||
          M.Method.Name.isEmpty())
        continue;
      recordMatch(Spec::retRecv(M.Method), G, Labels, inducedRetRecv(G, M),
                  ProgramId);
    }
  }
  return !(B && B->exhausted());
}
