//===- Dot.cpp - Graphviz export of event graphs -------------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "eventgraph/Dot.h"

#include <map>
#include <sstream>

using namespace uspec;

namespace {

/// Origin description for a synthetic root-allocation event: the abstract
/// object allocated there knows where it came from (parameter slot, external
/// source, receiver class), so render that instead of a bare label.
std::string rootOrigin(const AnalysisResult &R, const StringInterner &Strings,
                       EventId E) {
  for (ObjectId Obj = 0; Obj < R.Objects.size(); ++Obj) {
    const AbstractObject &AO = R.Objects.get(Obj);
    if (AO.AllocEvent != E)
      continue;
    switch (AO.Kind) {
    case ObjectKind::Param:
      return "param:" + Strings.str(AO.Class) + "." + Strings.str(AO.Value) +
             "#" + std::to_string(AO.Site);
    case ObjectKind::External:
      return "ext:" + Strings.str(AO.Value);
    case ObjectKind::This:
      return "this:" + Strings.str(AO.Class);
    default:
      return "";
    }
  }
  return "";
}

std::string eventLabel(const EventGraph &G, const AnalysisResult &R,
                       const StringInterner &Strings, EventId E) {
  const Event &Ev = G.event(E);
  std::string Name = Strings.str(Ev.Method.Name);
  switch (Ev.Kind) {
  case EventKind::NewAlloc:
    Name = "new" + Name;
    break;
  case EventKind::LitAlloc:
    Name = "lc";
    break;
  case EventKind::RootAlloc: {
    std::string Origin = rootOrigin(R, Strings, E);
    Name = Origin.empty() ? "root:" + Name : Origin;
    break;
  }
  case EventKind::ApiCall:
    break;
  }
  std::string Pos = Ev.Pos == PosRet
                        ? "ret"
                        : std::to_string(static_cast<int>(Ev.Pos));
  return "\\<" + Name + ", " + Pos + "\\>";
}

} // namespace

std::string uspec::toDot(const EventGraph &G, const AnalysisResult &R,
                         const StringInterner &Strings,
                         const std::string &Name) {
  std::ostringstream Out;
  Out << "digraph " << Name << " {\n";
  Out << "  rankdir=TB;\n  node [shape=ellipse, fontsize=10];\n";

  // Cluster ApiCall events by call site (the rectangular regions of Fig. 3).
  std::map<int, std::vector<EventId>> BySite;
  std::vector<EventId> Loose;
  for (EventId E = 0; E < G.numEvents(); ++E) {
    int Site = G.callSiteOf(E);
    if (Site >= 0)
      BySite[Site].push_back(E);
    else
      Loose.push_back(E);
  }
  for (const auto &[Site, Events] : BySite) {
    const CallSite &CS = G.callSites()[static_cast<size_t>(Site)];
    Out << "  subgraph cluster_site" << Site << " {\n";
    Out << "    label=\"" << Strings.str(CS.Method.Name) << "\";\n";
    for (EventId E : Events)
      Out << "    e" << E << " [label=\"" << eventLabel(G, R, Strings, E)
          << "\"];\n";
    Out << "  }\n";
  }
  for (EventId E : Loose)
    Out << "  e" << E << " [label=\"" << eventLabel(G, R, Strings, E)
        << "\", style=dashed];\n";

  for (EventId E = 0; E < G.numEvents(); ++E)
    for (EventId C : G.children(E))
      Out << "  e" << E << " -> e" << C << ";\n";
  Out << "}\n";
  return Out.str();
}
