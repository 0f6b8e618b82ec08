//===- specio_test.cpp - Tests for spec serialization and DOT export ----------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "eventgraph/Dot.h"
#include "ir/Lowering.h"
#include "specs/SpecIO.h"

#include <gtest/gtest.h>

using namespace uspec;

namespace {

MethodId mid(StringInterner &S, const char *Class, const char *Name,
             uint8_t Arity) {
  return {Class[0] == '?' && Class[1] == 0 ? Symbol() : S.intern(Class),
          S.intern(Name), Arity};
}

} // namespace

TEST(SpecIO, SerializeRoundTrip) {
  StringInterner S;
  SpecSet Specs;
  Specs.insert(Spec::retSame(mid(S, "Map", "get", 1)));
  Specs.insert(Spec::retArg(mid(S, "Map", "get", 1), mid(S, "Map", "put", 2),
                            2));
  Specs.insert(Spec::retSame(mid(S, "?", "getString", 1)));

  std::string Text = serializeSpecs(Specs, S);
  StringInterner S2;
  size_t ErrorLine = 7;
  SpecSet Parsed = parseSpecs(Text, S2, &ErrorLine);
  EXPECT_EQ(ErrorLine, 0u);
  ASSERT_EQ(Parsed.size(), Specs.size());
  // Compare via re-serialization through the second interner.
  EXPECT_EQ(serializeSpecs(Parsed, S2), Text);
}

TEST(SpecIO, UnknownReceiverClassRoundTripIsFixedPoint) {
  // The "?" unknown-receiver class (empty Symbol) must survive
  // serialize → parse → serialize unchanged: the second serialization is a
  // fixed point of the first, in every spec position.
  StringInterner S;
  SpecSet Specs;
  Specs.insert(Spec::retSame(mid(S, "?", "getString", 1)));
  Specs.insert(Spec::retArg(mid(S, "?", "get", 1), mid(S, "?", "put", 2), 2));
  Specs.insert(
      Spec::retArg(mid(S, "Map", "get", 1), mid(S, "?", "wrap", 1), 1));
  Specs.insert(Spec::retRecv(mid(S, "?", "append", 1)));

  std::string Once = serializeSpecs(Specs, S);
  EXPECT_NE(Once.find("RetSame(?.getString/1)"), std::string::npos);

  StringInterner S2;
  size_t ErrorLine = 1;
  SpecSet Parsed = parseSpecs(Once, S2, &ErrorLine);
  ASSERT_EQ(ErrorLine, 0u);
  std::string Twice = serializeSpecs(Parsed, S2);
  EXPECT_EQ(Twice, Once);

  // And the parsed set resolves "?" back to the empty Symbol.
  for (const Spec &Sp : Parsed.all()) {
    if (Sp.TheKind == Spec::Kind::RetRecv) {
      EXPECT_TRUE(Sp.Target.Class.isEmpty());
    }
  }

  // One more cycle for good measure: already at the fixed point.
  StringInterner S3;
  EXPECT_EQ(serializeSpecs(parseSpecs(Twice, S3), S3), Twice);
}

TEST(SpecIO, ParseSingleLines) {
  StringInterner S;
  auto RS = parseSpecLine("RetSame(Map.get/1)", S);
  ASSERT_TRUE(RS.has_value());
  EXPECT_EQ(RS->TheKind, Spec::Kind::RetSame);
  EXPECT_EQ(S.str(RS->Target.Class), "Map");
  EXPECT_EQ(RS->Target.Arity, 1);

  auto RA = parseSpecLine("RetArg(Map.get/1, Map.put/2, 2)", S);
  ASSERT_TRUE(RA.has_value());
  EXPECT_EQ(RA->TheKind, Spec::Kind::RetArg);
  EXPECT_EQ(RA->ArgPos, 2);

  auto Unknown = parseSpecLine("RetSame(?.getString/1)", S);
  ASSERT_TRUE(Unknown.has_value());
  EXPECT_TRUE(Unknown->Target.Class.isEmpty());
}

TEST(SpecIO, ParseToleratesWhitespace) {
  StringInterner S;
  EXPECT_TRUE(parseSpecLine("  RetArg( Map.get/1 , Map.put/2 , 2 )  ", S)
                  .has_value());
}

TEST(SpecIO, RejectsMalformedLines) {
  StringInterner S;
  for (const char *Bad :
       {"RetSame(Map.get)", "RetSame(Map/1)", "RetArg(Map.get/1, Map.put/2)",
        "RetArg(Map.get/1, Map.put/2, 0)", "Nonsense(x)",
        "RetSame(Map.get/1) trailing", "RetSame()"})
    EXPECT_FALSE(parseSpecLine(Bad, S).has_value()) << Bad;
}

TEST(SpecIO, DocumentSkipsCommentsAndReportsErrors) {
  StringInterner S;
  size_t ErrorLine = 0;
  SpecSet Ok = parseSpecs("# header\n\nRetSame(Map.get/1)\n", S, &ErrorLine);
  EXPECT_EQ(ErrorLine, 0u);
  EXPECT_EQ(Ok.size(), 1u);

  parseSpecs("RetSame(Map.get/1)\nbroken line\n", S, &ErrorLine);
  EXPECT_EQ(ErrorLine, 2u);
}

TEST(SpecIO, LoadedSpecsDriveTheAnalysis) {
  // Parse specs from text, run the aware analysis with them.
  StringInterner S;
  size_t ErrorLine = 0;
  SpecSet Specs = parseSpecs(
      "RetSame(Map.get/1)\nRetArg(Map.get/1, Map.put/2, 2)\n", S, &ErrorLine);
  ASSERT_EQ(ErrorLine, 0u);

  DiagnosticSink Diags;
  auto P = parseAndLower(R"(
    class Main {
      def main() {
        var m = new Map();
        m.put("k", api.mk());
        var x = m.get("k");
      }
    }
  )",
                         "t", S, Diags);
  ASSERT_TRUE(P.has_value());
  AnalysisOptions Options;
  Options.ApiAware = true;
  Options.Specs = &Specs;
  AnalysisResult R = analyzeProgram(*P, S, Options);

  EventId MkRet = InvalidEvent, GetRet = InvalidEvent;
  for (EventId E = 0; E < R.Events.size(); ++E) {
    const Event &Ev = R.Events.get(E);
    if (Ev.Kind != EventKind::ApiCall || Ev.Pos != PosRet)
      continue;
    if (S.str(Ev.Method.Name) == "mk")
      MkRet = E;
    if (S.str(Ev.Method.Name) == "get")
      GetRet = E;
  }
  EXPECT_TRUE(R.retMayAlias(GetRet, MkRet));
}

TEST(Dot, RendersClustersAndEdges) {
  StringInterner S;
  DiagnosticSink Diags;
  auto P = parseAndLower(R"(
    class Main {
      def main() {
        var m = new Map();
        m.put("k", 1);
        m.get("k");
      }
    }
  )",
                         "t", S, Diags);
  ASSERT_TRUE(P.has_value());
  AnalysisResult R = analyzeProgram(*P, S, AnalysisOptions());
  EventGraph G = EventGraph::build(R);
  std::string Dot = toDot(G, R, S, "fig");
  EXPECT_NE(Dot.find("digraph fig"), std::string::npos);
  EXPECT_NE(Dot.find("subgraph cluster_site"), std::string::npos);
  EXPECT_NE(Dot.find("label=\"put\""), std::string::npos);
  EXPECT_NE(Dot.find("->"), std::string::npos);
  EXPECT_EQ(Dot.find("digraph"), 0u);
}
