//===- Features.cpp - Event pair features (§4.1) ------------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "model/Features.h"

#include <cassert>

using namespace uspec;

PosBucket uspec::bucketPos(EventPos Pos) {
  if (Pos == PosRet)
    return PosBucket::Ret;
  if (Pos == PosReceiver)
    return PosBucket::Receiver;
  if (Pos == 1)
    return PosBucket::Arg1;
  if (Pos == 2)
    return PosBucket::Arg2;
  if (Pos == 3)
    return PosBucket::Arg3;
  return PosBucket::ArgMany;
}

namespace {

/// Stable label of one event (see EventLabels).
uint64_t eventLabel(const Event &Ev) {
  uint64_t KindTag = static_cast<uint64_t>(Ev.Kind);
  uint64_t LitTag = static_cast<uint64_t>(Ev.Lit);
  return hashValues(KindTag, Ev.Method.Class.id(), Ev.Method.Name.id(),
                    Ev.Method.Arity, static_cast<uint64_t>(bucketPos(Ev.Pos)),
                    LitTag);
}

/// Summarizes the kinds of objects participating in an event (the "type" of
/// a call argument for γ).
uint32_t participantClassMask(const EventGraph &G, EventId E) {
  uint32_t Mask = 0;
  for (ObjectId Obj : G.participants(E)) {
    switch (G.objectKind(Obj)) {
    case ObjectKind::LiteralStr:
      Mask |= 1;
      break;
    case ObjectKind::LiteralInt:
      Mask |= 2;
      break;
    case ObjectKind::LiteralNull:
      Mask |= 4;
      break;
    case ObjectKind::New:
    case ObjectKind::This:
      Mask |= 8;
      break;
    case ObjectKind::ApiRet:
    case ObjectKind::External:
    case ObjectKind::Param:
    case ObjectKind::Ghost:
      Mask |= 16;
      break;
    }
  }
  return Mask;
}

class Extractor {
public:
  Extractor(const EventGraph &G, const EventLabels &Labels, EventId E1,
            EventId E2, bool PruneLink, std::vector<uint32_t> &Out)
      : G(G), Labels(Labels), E1(E1), E2(E2), Prune(PruneLink), Out(Out) {}

  uint16_t run() {
    // Label-pair interaction: the quadratic (ctx1 × ctx2) feature a Vowpal
    // Wabbit setup would generate with namespace interactions. A linear
    // model needs it to rank which label *pairs* co-occur as edges.
    add(hashValues(0xBB, Labels[E1], Labels[E2]));

    emitContext(E1, /*Role=*/1, /*Excluded=*/E2);
    emitContext(E2, /*Role=*/2, /*Excluded=*/E1);
    emitGamma();

    return posKey(bucketPos(G.event(E1).Pos), bucketPos(G.event(E2).Pos));
  }

private:
  void add(uint64_t Token) { Out.push_back(static_cast<uint32_t>(Token)); }

  /// Emits the length-≤2 path context of \p E, role-tagged. \p Excluded is
  /// the other event of the pair: when pruning, paths through it are
  /// dropped, and on the e2 side two-hop bridges from e1 are broken.
  void emitContext(EventId E, int Role, EventId Excluded) {
    uint64_t Self = Labels[E];
    add(hashValues(0xC0, Role, Self));
    for (EventId P : G.parents(E)) {
      if (Prune && P == Excluded)
        continue;
      // Break e1 -> z -> e2 bridges: when extracting the context of e2,
      // skip parents z that are children of e1.
      if (Prune && Role == 2 && G.hasEdge(Excluded, P))
        continue;
      add(hashValues(0xC1, Role, Labels[P], Self));
    }
    for (EventId C : G.children(E)) {
      if (Prune && C == Excluded)
        continue;
      add(hashValues(0xC2, Role, Self, Labels[C]));
    }
  }

  /// γ(e1, e2): argument literal classes at both call sites and the relation
  /// of the sites to guarding conditions.
  void emitGamma() {
    const Event &Ev1 = G.event(E1);
    const Event &Ev2 = G.event(E2);

    emitSiteArgs(E1, 1);
    emitSiteArgs(E2, 2);

    bool G1 = Ev1.Guard != 0, G2 = Ev2.Guard != 0;
    if (!G1 && !G2)
      add(hashValues(0xAA, 0));
    else if (G1 && G2 && Ev1.Guard == Ev2.Guard)
      add(hashValues(0xAA, 1)); // same guarding condition
    else if (G1 && G2)
      add(hashValues(0xAA, 2)); // differently guarded
    else
      add(hashValues(0xAA, 3, G1 ? 1 : 2)); // one side guarded
  }

  void emitSiteArgs(EventId E, int Role) {
    int SiteIdx = G.callSiteOf(E);
    if (SiteIdx < 0)
      return;
    const CallSite &CS = G.callSites()[static_cast<size_t>(SiteIdx)];
    for (size_t A = 0; A < CS.Args.size(); ++A) {
      if (CS.Args[A] == InvalidEvent)
        continue;
      add(hashValues(0xA5, Role, A, participantClassMask(G, CS.Args[A])));
    }
  }

  const EventGraph &G;
  const EventLabels &Labels;
  EventId E1, E2;
  bool Prune;
  std::vector<uint32_t> &Out;
};

} // namespace

EventLabels uspec::eventLabels(const EventGraph &G) {
  EventLabels Labels(G.numEvents());
  for (EventId E = 0; E < Labels.size(); ++E)
    Labels[E] = eventLabel(G.event(E));
  return Labels;
}

uint16_t uspec::extractFeatures(const EventGraph &G, const EventLabels &Labels,
                                EventId E1, EventId E2, bool PruneLink,
                                std::vector<uint32_t> &Out) {
  assert(Labels.size() == G.numEvents() && "label table of another graph");
  return Extractor(G, Labels, E1, E2, PruneLink, Out).run();
}
