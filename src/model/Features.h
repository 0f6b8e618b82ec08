//===- Features.h - Event pair features (§4.1) -----------------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The feature function of §4.1:
///
///   ftr(e1, e2) = (x1, x2, ctx_{G,2}(e1), ctx_{G,2}(e2), γ(e1, e2))
///
/// where ctx_{G,2}(e) is the set of paths of length ≤ 2 through e, and γ
/// captures (i) argument "types" (literal classes of sibling arguments at
/// both call sites) and (ii) the relation of the two sites to guarding
/// control-flow conditions. Every path and every γ element is encoded as an
/// integer in a sparse hashed feature space — the same strategy the paper
/// uses with Vowpal Wabbit (§7.1).
///
/// The position pair (x1, x2) is not hashed into the features; it selects
/// which logistic regression model ψ(x1,x2) is consulted (§4.1).
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_MODEL_FEATURES_H
#define USPEC_MODEL_FEATURES_H

#include "eventgraph/EventGraph.h"

#include <cstdint>
#include <vector>

namespace uspec {

/// Bucketed event position: Ret, Receiver, Arg1..Arg3, ArgMany.
enum class PosBucket : uint8_t {
  Ret = 0,
  Receiver = 1,
  Arg1 = 2,
  Arg2 = 3,
  Arg3 = 4,
  ArgMany = 5,
};

/// Number of distinct PosBucket values.
inline constexpr unsigned NumPosBuckets = 6;

/// Buckets a raw event position.
PosBucket bucketPos(EventPos Pos);

/// The (x1, x2) model selector for an event pair.
inline uint16_t posKey(PosBucket A, PosBucket B) {
  return static_cast<uint16_t>(static_cast<unsigned>(A) * NumPosBuckets +
                               static_cast<unsigned>(B));
}

/// Per-graph label table: Labels[E] is the stable identity of event E for
/// feature purposes — its kind, method identifier, position bucket and
/// literal class, never the raw site id, so features generalize across
/// programs. Built once per graph and read by every extraction over it.
using EventLabels = std::vector<uint64_t>;

/// Computes the label table of \p G.
EventLabels eventLabels(const EventGraph &G);

/// Extracts ftr(e1, e2) from \p G: appends its raw 32-bit feature hashes
/// (pre-masking) to \p Out and returns the model selector posKey(x1, x2).
/// \p Labels must be eventLabels(G).
///
/// When \p PruneLink is set (used for positive training samples, §4.2), the
/// contexts are modified so that no path between e1 and e2 remains in their
/// union: paths containing the other event are dropped on both sides, and
/// two-hop connections through a shared middle node are broken on the e2
/// side. This prevents the model from merely learning the transitive
/// closure.
uint16_t extractFeatures(const EventGraph &G, const EventLabels &Labels,
                         EventId E1, EventId E2, bool PruneLink,
                         std::vector<uint32_t> &Out);

} // namespace uspec

#endif // USPEC_MODEL_FEATURES_H
