//===- EventGraph.h - The event graph GP (§3.3) ----------------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event graph of a program: nodes are events, and a directed edge
/// (e1, e2) exists iff e1 and e2 occur in the same history of some abstract
/// object and, in every history where both are present, e1 occurs before e2.
/// The graph exposes the paper's derived notions:
///
///   parentsG / childG — direct predecessors/successors,
///   allocG(e)         — allocation events (parentless ret events) among
///                       parents(e) ∪ {e}; the points-to set of e,
///   valG(e)           — literal/object values reaching e,
///   equalG            — value-overlap predicate on call-site arguments.
///
/// It also groups events back into call sites, which candidate extraction
/// (Alg. 1) iterates over.
///
/// The graph owns every fact its readers need: a copy of the event records,
/// one kind byte per abstract object, and the histories. It holds no
/// reference to the analysis it was built from, so the learner frees each
/// program's AnalysisResult as soon as its graph is built (DESIGN.md §8).
///
/// Storage is struct-of-arrays: every per-event list (parents, children,
/// alloc sets, values, participants) and the histories live in one
/// contiguous pool each with a compressed-sparse-row offset table, handed
/// out as Span views. Feature extraction walks these lists for every
/// candidate pair, so the win from contiguity lands on the hottest read path
/// of learn().
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_EVENTGRAPH_EVENTGRAPH_H
#define USPEC_EVENTGRAPH_EVENTGRAPH_H

#include "pointsto/Analysis.h"
#include "support/FlatMap.h"

#include <cstdint>
#include <vector>

namespace uspec {

/// All events of one API call site (one Site/Ctx pair).
struct CallSite {
  uint32_t Site = 0;
  uint32_t Ctx = 0;
  MethodId Method;
  uint32_t Guard = 0;
  EventId Recv = InvalidEvent;
  EventId Ret = InvalidEvent;
  /// Argument events by position (index 0 = first argument); entries may be
  /// InvalidEvent if the event was never created.
  std::vector<EventId> Args;

  uint8_t nargs() const { return Method.Arity; }
};

/// Groups the ApiCall events of \p R into call sites, ordered by (Site,
/// Ctx); each site's Args has one entry per parameter of its method.
std::vector<CallSite> groupCallSites(const AnalysisResult &R);

/// Immutable event graph built from an analysis result.
class EventGraph {
public:
  /// Builds the graph for \p R. The graph copies what it reads, so \p R
  /// may be destroyed right after.
  static EventGraph build(const AnalysisResult &R);

  size_t numEvents() const { return Events.size(); }
  const Event &event(EventId Id) const { return Events[Id]; }

  /// Kind of abstract object \p Obj.
  ObjectKind objectKind(ObjectId Obj) const { return ObjectKinds[Obj]; }

  Span<EventId> parents(EventId Id) const { return Parents.row(Id); }
  Span<EventId> children(EventId Id) const { return Children.row(Id); }

  /// True iff the edge (From, To) exists.
  bool hasEdge(EventId From, EventId To) const;

  /// allocG(e): the points-to set of the event, as allocation events.
  Span<EventId> allocOf(EventId Id) const { return AllocSets.row(Id); }

  /// valG(e): sorted value tags reaching the event.
  Span<uint64_t> valOf(EventId Id) const { return Vals.row(Id); }

  /// equalG: do the two events share a value? (§5.1)
  bool equalVals(EventId A, EventId B) const;

  /// May-alias per §3.3: allocG(A) ∩ allocG(B) ≠ ∅.
  bool mayAlias(EventId A, EventId B) const;

  /// Abstract objects whose histories contain the event.
  Span<ObjectId> participants(EventId Id) const {
    return Participants.row(Id);
  }

  /// All API call sites with at least one event.
  const std::vector<CallSite> &callSites() const { return Sites; }

  /// Index into callSites() for the site owning \p Id, or -1.
  int callSiteOf(EventId Id) const {
    return Id < EventToSite.size() ? EventToSite[Id] : -1;
  }

  /// Call-site index pairs (Later, Earlier) whose receiver events co-occur
  /// in some object history within \p DistanceBound positions, with the
  /// earlier receiver event first (the set AG of Alg. 1, bounded as §7.1).
  std::vector<std::pair<uint32_t, uint32_t>>
  receiverPairs(unsigned DistanceBound) const;

private:
  /// Compressed-sparse-row list-of-lists: row I is Pool[Off[I], Off[I+1]).
  template <typename T> struct CsrRows {
    std::vector<T> Pool;
    std::vector<uint32_t> Off; ///< NumRows + 1 offsets.

    Span<T> row(size_t I) const {
      return Span<T>(Pool.data() + Off[I], Off[I + 1] - Off[I]);
    }
  };

  std::vector<Event> Events;
  std::vector<ObjectKind> ObjectKinds;
  /// One row per history, object-major in the analysis's order.
  CsrRows<EventId> Histories;
  CsrRows<EventId> Parents;
  CsrRows<EventId> Children;
  CsrRows<EventId> AllocSets;
  CsrRows<uint64_t> Vals;
  CsrRows<ObjectId> Participants;
  std::vector<CallSite> Sites;
  /// Dense event → call-site index map (-1 = none).
  std::vector<int32_t> EventToSite;
};

} // namespace uspec

#endif // USPEC_EVENTGRAPH_EVENTGRAPH_H
