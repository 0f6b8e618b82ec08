//===- EventGraph.cpp - The event graph GP (§3.3) ----------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "eventgraph/EventGraph.h"

#include <algorithm>

using namespace uspec;

namespace {

/// Sorted-unique insertion into a small vector.
template <typename T> void insertSorted(std::vector<T> &Vec, T Value) {
  auto It = std::lower_bound(Vec.begin(), Vec.end(), Value);
  if (It == Vec.end() || *It != Value)
    Vec.insert(It, Value);
}

/// Fills a CSR offset table + pool from a sorted, deduplicated (row, value)
/// pair list.
template <typename T, typename Rows, typename Pairs>
void fillCsr(Rows &Out, size_t NumRows, const Pairs &Sorted) {
  Out.Off.assign(NumRows + 1, 0);
  Out.Pool.resize(Sorted.size());
  for (const auto &P : Sorted)
    ++Out.Off[P.first + 1];
  for (size_t I = 1; I <= NumRows; ++I)
    Out.Off[I] += Out.Off[I - 1];
  for (size_t I = 0; I < Sorted.size(); ++I)
    Out.Pool[I] = Sorted[I].second;
}

} // namespace

std::vector<CallSite> uspec::groupCallSites(const AnalysisResult &R) {
  // Ordered by (Site, Ctx) — the same deterministic order the old std::map
  // produced; candidate extraction (first-seen order) depends on it.
  size_t N = R.Events.size();
  std::vector<uint64_t> SiteKeys;
  for (EventId E = 0; E < N; ++E) {
    const Event &Ev = R.Events.get(E);
    if (Ev.Kind == EventKind::ApiCall)
      SiteKeys.push_back((static_cast<uint64_t>(Ev.Site) << 32) | Ev.Ctx);
  }
  std::sort(SiteKeys.begin(), SiteKeys.end());
  SiteKeys.erase(std::unique(SiteKeys.begin(), SiteKeys.end()),
                 SiteKeys.end());
  auto SiteIndexOf = [&](uint32_t Site, uint32_t Ctx) {
    uint64_t K = (static_cast<uint64_t>(Site) << 32) | Ctx;
    return static_cast<uint32_t>(
        std::lower_bound(SiteKeys.begin(), SiteKeys.end(), K) -
        SiteKeys.begin());
  };

  std::vector<CallSite> Sites(SiteKeys.size());
  for (EventId E = 0; E < N; ++E) {
    const Event &Ev = R.Events.get(E);
    if (Ev.Kind != EventKind::ApiCall)
      continue;
    CallSite &CS = Sites[SiteIndexOf(Ev.Site, Ev.Ctx)];
    CS.Site = Ev.Site;
    CS.Ctx = Ev.Ctx;
    CS.Method = Ev.Method;
    CS.Guard = Ev.Guard;
    if (Ev.Pos == PosReceiver) {
      CS.Recv = E;
    } else if (Ev.Pos == PosRet) {
      CS.Ret = E;
    } else {
      if (CS.Args.size() < Ev.Pos)
        CS.Args.resize(Ev.Pos, InvalidEvent);
      CS.Args[Ev.Pos - 1] = E;
    }
  }
  for (CallSite &CS : Sites)
    CS.Args.resize(CS.Method.Arity, InvalidEvent);
  return Sites;
}

EventGraph EventGraph::build(const AnalysisResult &R) {
  EventGraph G;
  size_t N = R.Events.size();
  G.Events.reserve(N);
  for (EventId E = 0; E < N; ++E)
    G.Events.push_back(R.Events.get(E));
  G.ObjectKinds.reserve(R.Objects.size());
  for (ObjectId Obj = 0; Obj < R.Objects.size(); ++Obj)
    G.ObjectKinds.push_back(R.Objects.get(Obj).Kind);

  // The histories, copied into exactly sized CSR rows.
  size_t NumHistories = 0, HistoryEvents = 0;
  for (const HistorySet &Set : R.Histories) {
    NumHistories += Set.size();
    for (const History &H : Set)
      HistoryEvents += H.size();
  }
  G.Histories.Off.reserve(NumHistories + 1);
  G.Histories.Pool.reserve(HistoryEvents);
  G.Histories.Off.push_back(0);

  // Order votes: Forward[(a,b)] set iff some history has a before b.
  // An edge (a,b) exists iff Forward(a,b) and not Forward(b,a).
  FlatMap64<uint8_t> Order; // bit0: fwd, bit1: bwd
  auto Key = [](EventId A, EventId B) {
    return (static_cast<uint64_t>(A) << 32) | B;
  };

  // Participant occurrences are gathered as (event, object) pairs and
  // deduplicated by one sort below — same sets the old per-event
  // insertSorted produced, without per-event vector churn.
  std::vector<std::pair<uint32_t, ObjectId>> PartPairs;
  for (ObjectId Obj = 0; Obj < R.Histories.size(); ++Obj) {
    for (const History &H : R.Histories[Obj]) {
      G.Histories.Pool.insert(G.Histories.Pool.end(), H.begin(), H.end());
      G.Histories.Off.push_back(
          static_cast<uint32_t>(G.Histories.Pool.size()));
      for (size_t I = 0; I < H.size(); ++I) {
        PartPairs.emplace_back(H[I], Obj);
        for (size_t J = I + 1; J < H.size(); ++J) {
          if (H[I] == H[J])
            continue;
          Order.getOrCreate(Key(H[I], H[J])) |= 1;
          Order.getOrCreate(Key(H[J], H[I])) |= 2;
        }
      }
    }
  }
  std::sort(PartPairs.begin(), PartPairs.end());
  PartPairs.erase(std::unique(PartPairs.begin(), PartPairs.end()),
                  PartPairs.end());
  fillCsr<ObjectId>(G.Participants, N, PartPairs);

  // Edge list, sorted for deterministic CSR rows (the flat map's iteration
  // order is probe-table order, which must never leak into the graph).
  std::vector<std::pair<uint32_t, uint32_t>> Edges;
  Order.forEach([&](uint64_t K, uint8_t Bits) {
    if (Bits != 1)
      return; // either no forward occurrence or a contradicting order
    Edges.emplace_back(static_cast<uint32_t>(K >> 32),
                       static_cast<uint32_t>(K & 0xFFFFFFFF));
  });
  std::sort(Edges.begin(), Edges.end());
  fillCsr<EventId>(G.Children, N, Edges);
  // Parents: same edges keyed by target. Re-sorting by (to, from) keeps
  // every parent row ascending.
  for (auto &E : Edges)
    std::swap(E.first, E.second);
  std::sort(Edges.begin(), Edges.end());
  fillCsr<EventId>(G.Parents, N, Edges);

  // Allocation events: parentless ret events. allocG(e) = allocation events
  // among parents(e) ∪ {e}.
  std::vector<bool> IsAlloc(N, false);
  for (EventId E = 0; E < N; ++E)
    IsAlloc[E] = R.Events.get(E).isRet() && G.Parents.row(E).empty();

  // Value of each allocation event = value of the object allocated there
  // (first object wins, as with the old map's emplace).
  FlatMap64<uint64_t> AllocValue;
  for (ObjectId Obj = 0; Obj < R.Objects.size(); ++Obj) {
    const AbstractObject &AO = R.Objects.get(Obj);
    if (AO.AllocEvent == InvalidEvent)
      continue;
    auto It = R.ObjectValues.find(Obj);
    if (It == R.ObjectValues.end())
      continue;
    bool Inserted = false;
    uint64_t &Slot = AllocValue.getOrCreate(AO.AllocEvent, &Inserted);
    if (Inserted)
      Slot = It->second;
  }

  // Alloc sets and value sets build row-by-row in event order, so the CSR
  // pools can be appended directly.
  G.AllocSets.Off.assign(N + 1, 0);
  G.Vals.Off.assign(N + 1, 0);
  std::vector<uint64_t> ValScratch;
  for (EventId E = 0; E < N; ++E) {
    size_t Begin = G.AllocSets.Pool.size();
    if (IsAlloc[E])
      G.AllocSets.Pool.push_back(E);
    for (EventId P : G.Parents.row(E))
      if (IsAlloc[P]) {
        // Keep the row sorted: parents are ascending, but E itself may sort
        // anywhere among them.
        auto It = std::lower_bound(G.AllocSets.Pool.begin() + Begin,
                                   G.AllocSets.Pool.end(), P);
        if (It == G.AllocSets.Pool.end() || *It != P)
          G.AllocSets.Pool.insert(It, P);
      }
    G.AllocSets.Off[E + 1] = static_cast<uint32_t>(G.AllocSets.Pool.size());

    ValScratch.clear();
    for (size_t I = Begin; I < G.AllocSets.Pool.size(); ++I) {
      EventId A = G.AllocSets.Pool[I];
      // API-return allocation events carry no value (valG(⟨m,ret⟩) = ∅).
      if (R.Events.get(A).Kind == EventKind::ApiCall)
        continue;
      if (const uint64_t *V = AllocValue.find(A))
        insertSorted(ValScratch, *V);
    }
    G.Vals.Pool.insert(G.Vals.Pool.end(), ValScratch.begin(),
                       ValScratch.end());
    G.Vals.Off[E + 1] = static_cast<uint32_t>(G.Vals.Pool.size());
  }

  G.Sites = groupCallSites(R);
  G.EventToSite.assign(N, -1);
  for (uint32_t Index = 0; Index < G.Sites.size(); ++Index) {
    const CallSite &CS = G.Sites[Index];
    if (CS.Recv != InvalidEvent)
      G.EventToSite[CS.Recv] = static_cast<int32_t>(Index);
    if (CS.Ret != InvalidEvent)
      G.EventToSite[CS.Ret] = static_cast<int32_t>(Index);
    for (EventId Arg : CS.Args)
      if (Arg != InvalidEvent)
        G.EventToSite[Arg] = static_cast<int32_t>(Index);
  }
  return G;
}

bool EventGraph::hasEdge(EventId From, EventId To) const {
  Span<EventId> Succ = Children.row(From);
  return std::binary_search(Succ.begin(), Succ.end(), To);
}

bool EventGraph::equalVals(EventId A, EventId B) const {
  Span<uint64_t> VA = Vals.row(A);
  Span<uint64_t> VB = Vals.row(B);
  auto IA = VA.begin();
  auto IB = VB.begin();
  while (IA != VA.end() && IB != VB.end()) {
    if (*IA == *IB)
      return true;
    if (*IA < *IB)
      ++IA;
    else
      ++IB;
  }
  return false;
}

bool EventGraph::mayAlias(EventId A, EventId B) const {
  Span<EventId> SA = AllocSets.row(A);
  Span<EventId> SB = AllocSets.row(B);
  auto IA = SA.begin();
  auto IB = SB.begin();
  while (IA != SA.end() && IB != SB.end()) {
    if (*IA == *IB)
      return true;
    if (*IA < *IB)
      ++IA;
    else
      ++IB;
  }
  return false;
}

std::vector<std::pair<uint32_t, uint32_t>>
EventGraph::receiverPairs(unsigned DistanceBound) const {
  std::vector<std::pair<uint32_t, uint32_t>> Pairs;
  // A true set, sized up front: each site pairs with at most DistanceBound
  // predecessors, so Sites·Bound bounds the distinct (later, earlier) keys
  // and one reserve avoids rehashing during growth.
  FlatSet64 Seen;
  Seen.reserve(std::min<size_t>(Sites.size() * DistanceBound,
                                Sites.size() * Sites.size()));
  // Positions of receiver events within one history; hoisted so the buffer
  // is allocated once per graph, not once per history.
  std::vector<std::pair<size_t, uint32_t>> RecvAt; // (index, site idx)
  for (size_t Row = 0; Row + 1 < Histories.Off.size(); ++Row) {
    Span<EventId> H = Histories.row(Row);
    RecvAt.clear();
    for (size_t I = 0; I < H.size(); ++I) {
      const Event &Ev = Events[H[I]];
      if (Ev.Kind != EventKind::ApiCall || Ev.Pos != PosReceiver)
        continue;
      int SiteIdx = callSiteOf(H[I]);
      if (SiteIdx >= 0)
        RecvAt.emplace_back(I, static_cast<uint32_t>(SiteIdx));
    }
    for (size_t A = 0; A < RecvAt.size(); ++A) {
      for (size_t B = A + 1; B < RecvAt.size(); ++B) {
        if (RecvAt[B].first - RecvAt[A].first > DistanceBound)
          break;
        if (RecvAt[A].second == RecvAt[B].second)
          continue;
        // (Later, Earlier) = (m1, m2).
        uint64_t Key = (static_cast<uint64_t>(RecvAt[B].second) << 32) |
                       RecvAt[A].second;
        if (!Seen.insert(Key))
          continue;
        Pairs.emplace_back(RecvAt[B].second, RecvAt[A].second);
      }
    }
  }
  return Pairs;
}
