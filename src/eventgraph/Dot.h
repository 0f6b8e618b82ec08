//===- Dot.h - Graphviz export of event graphs -----------------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders an event graph in Graphviz DOT format, in the visual style of
/// the paper's Fig. 3: call sites become clustered boxes of their events;
/// solid edges are event-graph edges. Useful for debugging analyses and for
/// documentation.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_EVENTGRAPH_DOT_H
#define USPEC_EVENTGRAPH_DOT_H

#include "eventgraph/EventGraph.h"

#include <string>

namespace uspec {

/// Renders \p G, built from \p R, as a DOT digraph named \p Name. \p R
/// supplies the origins of root-allocation events.
std::string toDot(const EventGraph &G, const AnalysisResult &R,
                  const StringInterner &Strings,
                  const std::string &Name = "event_graph");

} // namespace uspec

#endif // USPEC_EVENTGRAPH_DOT_H
