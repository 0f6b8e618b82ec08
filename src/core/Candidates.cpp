//===- Candidates.cpp - Candidate extraction & scoring (Alg. 1, §5.2) --------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "core/Candidates.h"

#include <cassert>
#include <utility>

using namespace uspec;

double uspec::scoreCandidate(const CandidateLedger::Entry &E, ScoreKind Kind,
                             size_t TopK) {
  switch (Kind) {
  case ScoreKind::TopKMean:
  case ScoreKind::NameAware: // the prior is blended in by the learner
    return topKMean(E.Confidences, TopK);
  case ScoreKind::MaxConfidence:
    return maxValue(E.Confidences);
  case ScoreKind::P95:
    return percentile(E.Confidences, 0.95);
  case ScoreKind::MatchCount:
    // Squashed into [0, 1) so that τ sweeps apply uniformly.
    return static_cast<double>(E.Matches) /
           (static_cast<double>(E.Matches) + 25.0);
  case ScoreKind::ProgramCount:
    return static_cast<double>(E.Programs) /
           (static_cast<double>(E.Programs) + 10.0);
  }
  return 0;
}

void CandidateLedger::append(CandidateLedger Later) {
  std::unordered_map<Spec, size_t, SpecHash> Index;
  Index.reserve(Entries.size());
  for (size_t I = 0; I < Entries.size(); ++I)
    Index.emplace(Entries[I].S, I);
  for (Entry &E : Later.Entries) {
    auto It = Index.find(E.S);
    if (It == Index.end()) {
      Entries.push_back(std::move(E));
      continue;
    }
    // Later covers later programs: its ΓS goes after ours, and its
    // programs are disjoint from ours, so the counts add.
    Entry &Mine = Entries[It->second];
    Mine.Confidences.insert(Mine.Confidences.end(), E.Confidences.begin(),
                            E.Confidences.end());
    Mine.Matches += E.Matches;
    Mine.Programs += E.Programs;
  }
}

CandidateLedger CandidateCollector::take(const EdgeModel &Model) {
  assert(RowEntry.size() == Rows.size() && "a feature row without its entry");
  for (size_t R = 0; R < Rows.size(); ++R)
    Table.Entries[RowEntry[R]].Confidences.push_back(
        Model.predict(Rows.posKey(R), Rows.hashes(R)));
  Rows = SampleSet();
  RowEntry = std::vector<size_t>();
  Slots.clear();
  return std::exchange(Table, CandidateLedger());
}

bool CandidateCollector::addGraph(const EventGraph &G, uint32_t ProgramId,
                                  Budget *B) {
  Pending.clear();
  size_t Pairs = 0;
  const size_t RowMark = Rows.size();
  EventLabels Labels; // G's label table, built on the first scored match
  auto Record = [&](Spec S, const std::vector<InducedEdge> &Edges) {
    // Alg. 1 line 6–8: only matches inducing exactly one edge are scored;
    // the edge's features wait in Rows for ϕ.
    bool Scored = Edges.size() == 1;
    if (Scored) {
      if (Labels.empty())
        Labels = eventLabels(G);
      Rows.closeRow(extractFeatures(G, Labels, Edges[0].first,
                                    Edges[0].second, /*PruneLink=*/false,
                                    Rows.pool()),
                    /*Label=*/0);
    }
    Pending.push_back({std::move(S), Scored});
  };
  // The budget ran out: drop the graph's rows with its pending matches.
  auto Abandon = [&] {
    Rows.truncate(RowMark);
    return false;
  };

  for (auto [LaterIdx, EarlierIdx] : G.receiverPairs(DistanceBound)) {
    if (B && !B->consume())
      return Abandon();
    ++Pairs;
    const CallSite &M1 = G.callSites()[LaterIdx];
    const CallSite &M2 = G.callSites()[EarlierIdx];

    // Skip pairs with unusable method names (should not happen in practice).
    if (M1.Method.Name.isEmpty() || M2.Method.Name.isEmpty())
      continue;

    if (matchesRetSame(G, M1, M2, B))
      Record(Spec::retSame(M1.Method), inducedRetSame(G, M1, M2));
    for (unsigned X = 1; X <= M2.nargs(); ++X)
      if (matchesRetArg(G, M1, M2, X, B))
        Record(Spec::retArg(M1.Method, M2.Method, static_cast<uint8_t>(X)),
               inducedRetArg(G, M1, M2, X));
    if (B && B->exhausted())
      return Abandon();
  }

  // Experimental RetRecv pattern (§5.3): every call site with receiver and
  // return matches trivially; the scoring has to carry all the weight.
  if (Experimental) {
    for (const CallSite &M : G.callSites()) {
      if (B && !B->consume())
        return Abandon();
      if (M.Recv == InvalidEvent || M.Ret == InvalidEvent ||
          M.Method.Name.isEmpty())
        continue;
      Record(Spec::retRecv(M.Method), inducedRetRecv(G, M));
    }
  }
  if (B && B->exhausted())
    return Abandon();

  // The graph completed: commit its matches in match order, so ΓS stays in
  // graph order and new candidates append in first-seen order.
  for (PendingMatch &M : Pending) {
    auto [It, New] =
        Slots.try_emplace(M.S, Slot{Table.Entries.size(), ProgramId});
    if (New)
      Table.Entries.push_back({std::move(M.S), {}, 0, 0});
    CandidateLedger::Entry &E = Table.Entries[It->second.Index];
    if (New || It->second.LastProgram != ProgramId) {
      ++E.Programs;
      It->second.LastProgram = ProgramId;
    }
    ++E.Matches;
    if (M.Scored)
      RowEntry.push_back(It->second.Index);
  }
  ReceiverPairsSeen += Pairs;
  TotalMatches += Pending.size();
  return true;
}
