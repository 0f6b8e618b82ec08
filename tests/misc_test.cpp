//===- misc_test.cpp - Remaining distinct behaviours ---------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "corpus/Profiles.h"
#include "ir/Lowering.h"
#include "lang/Parser.h"
#include "runtime/Interpreter.h"
#include "support/Table.h"

#include <gtest/gtest.h>

using namespace uspec;

//===----------------------------------------------------------------------===//
// Interpreter semantics not covered elsewhere
//===----------------------------------------------------------------------===//

namespace {

struct Exec {
  StringInterner S;
  IRProgram Program;
  LanguageProfile Profile = javaProfile();

  std::map<uint32_t, std::vector<RtValue>> run(std::string_view Source,
                                               InterpreterOptions Opts = {}) {
    DiagnosticSink Diags;
    auto P = parseAndLower(Source, "m", S, Diags);
    EXPECT_TRUE(P.has_value()) << Diags.render();
    Program = std::move(*P);
    Interpreter I(Program, S, Profile.Registry, Opts);
    I.runAll();
    return I.returnsPerSite();
  }

  size_t callCount(const std::map<uint32_t, std::vector<RtValue>> &Returns,
                   const char *Name) {
    size_t Count = 0;
    // Every instruction once: the layout order of Code.
    for (const IRClass &C : Program.Classes)
      for (const IRMethod &M : C.Methods)
        for (const Instr &I : M.Code)
          if (I.TheKind == Instr::Kind::Call && S.str(I.Name) == Name) {
            auto It = Returns.find(I.SiteId);
            if (It != Returns.end())
              Count += It->second.size();
          }
    return Count;
  }
};

} // namespace

TEST(InterpreterMisc, IntegerComparisons) {
  Exec E;
  auto R = E.run(R"(
    class Main {
      def main() {
        var a = 3;
        var b = 5;
        if (a < b) { api.lt(); }
        if (a > b) { api.gt(); }
        if (a == 3) { api.eq(); }
        if (a != 3) { api.ne(); }
      }
    }
  )");
  EXPECT_EQ(E.callCount(R, "lt"), 1u);
  EXPECT_EQ(E.callCount(R, "gt"), 0u);
  EXPECT_EQ(E.callCount(R, "eq"), 1u);
  EXPECT_EQ(E.callCount(R, "ne"), 0u);
}

TEST(InterpreterMisc, StringAndNullTruthiness) {
  Exec E;
  auto R = E.run(R"(
    class Main {
      def main() {
        var s = "x";
        var e = "";
        var n = null;
        if (s) { api.str(); }
        if (e) { api.empty(); }
        if (n) { api.nul(); }
        if (n == null) { api.isnull(); }
      }
    }
  )");
  EXPECT_EQ(E.callCount(R, "str"), 1u);
  EXPECT_EQ(E.callCount(R, "empty"), 0u);
  EXPECT_EQ(E.callCount(R, "nul"), 0u);
  EXPECT_EQ(E.callCount(R, "isnull"), 1u);
}

TEST(InterpreterMisc, ReturnStopsExecution) {
  Exec E;
  auto R = E.run(R"(
    class Main {
      def main() {
        api.before();
        return;
        api.after();
      }
    }
  )");
  EXPECT_EQ(E.callCount(R, "before"), 1u);
  EXPECT_EQ(E.callCount(R, "after"), 0u);
}

TEST(InterpreterMisc, StepLimitStopsRunawayLoops) {
  Exec E;
  InterpreterOptions Opts;
  Opts.MaxSteps = 50;
  Opts.MaxLoopIters = 1000000;
  auto R = E.run(R"(
    class Main {
      def main() {
        var i = 1;
        while (i == 1) { api.tick(); }
      }
    }
  )",
                 Opts);
  EXPECT_LE(E.callCount(R, "tick"), 50u);
}

TEST(InterpreterMisc, EqualityIsIdentityForObjects) {
  Exec E;
  auto R = E.run(R"(
    class Main {
      def main() {
        var a = new HashMap();
        var b = new HashMap();
        var c = a;
        if (a == b) { api.diff(); }
        if (a == c) { api.same(); }
      }
    }
  )");
  EXPECT_EQ(E.callCount(R, "diff"), 0u);
  EXPECT_EQ(E.callCount(R, "same"), 1u);
}

//===----------------------------------------------------------------------===//
// TextTable details
//===----------------------------------------------------------------------===//

TEST(TableMisc, SeparatorsAndRaggedRows) {
  TextTable T;
  T.setHeader({"a", "bbbb", "c"});
  T.addRow({"1"});
  T.addSeparator();
  T.addRow({"22", "3", "4"});
  std::string Out = T.render();
  // Header underline + explicit separator = two dashed lines.
  size_t Dashes = 0, Pos = 0;
  while ((Pos = Out.find("\n--", Pos)) != std::string::npos) {
    ++Dashes;
    Pos += 3;
  }
  EXPECT_EQ(Dashes, 2u);
  EXPECT_NE(Out.find("22"), std::string::npos);
}

TEST(TableMisc, EmptyTableRendersNothing) {
  TextTable T;
  EXPECT_EQ(T.render(), "");
}

//===----------------------------------------------------------------------===//
// Parser recovery
//===----------------------------------------------------------------------===//

TEST(ParserMisc, RecoversAtClassBoundary) {
  DiagnosticSink Diags;
  auto M = Parser::parse("class Bad { def broken( } class Good { }", "t",
                         Diags);
  ASSERT_TRUE(M.has_value());
  EXPECT_TRUE(Diags.hasErrors());
  // The parser resynchronizes and still sees the second class.
  bool FoundGood = false;
  for (const ClassDecl &C : M->Classes)
    FoundGood |= C.Name == "Good";
  EXPECT_TRUE(FoundGood);
}

TEST(ParserMisc, DeeplyNestedExpressionsParse) {
  std::string Source = "class C { def m() { var x = a";
  for (int I = 0; I < 60; ++I)
    Source += ".f" + std::to_string(I) + "()";
  Source += "; } }";
  DiagnosticSink Diags;
  auto M = Parser::parse(Source, "t", Diags);
  EXPECT_TRUE(M.has_value());
  EXPECT_FALSE(Diags.hasErrors()) << Diags.render();
}

//===----------------------------------------------------------------------===//
// Registry invariants
//===----------------------------------------------------------------------===//

TEST(RegistryMisc, StoresAlwaysHavePairedLoadsWithMatchingArity) {
  for (const LanguageProfile &P : {javaProfile(), pythonProfile()}) {
    for (const ApiClass &C : P.Registry.classes()) {
      for (const ApiMethod &M : C.Methods) {
        if (M.Semantics != MethodSemantics::Store)
          continue;
        EXPECT_GE(M.StorePos, 1u) << C.Name << "." << M.Name;
        EXPECT_LE(M.StorePos, M.Arity) << C.Name << "." << M.Name;
        EXPECT_FALSE(M.PairedLoads.empty()) << C.Name << "." << M.Name;
        for (const std::string &L : M.PairedLoads) {
          const ApiMethod *Load = C.findMethod(L, M.Arity - 1);
          ASSERT_NE(Load, nullptr)
              << C.Name << "." << M.Name << " pairs missing load " << L;
          EXPECT_TRUE(Load->Semantics == MethodSemantics::Load ||
                      Load->Semantics == MethodSemantics::StatelessGetter)
              << C.Name << "." << L;
        }
      }
    }
  }
}

TEST(RegistryMisc, ProducedClassesDeclareProducers) {
  for (const LanguageProfile &P : {javaProfile(), pythonProfile()})
    for (const ApiClass &C : P.Registry.classes())
      if (!C.Constructible) {
        EXPECT_FALSE(C.ProducerVar.empty()) << C.Name;
        EXPECT_FALSE(C.ProducerMethod.empty()) << C.Name;
      }
}

TEST(RegistryMisc, ConceptProducersResolveInRegistry) {
  for (const LanguageProfile &P : {javaProfile(), pythonProfile()})
    for (const Concept &C : P.Concepts)
      for (const Concept::Producer &Prod : C.Producers) {
        const ApiMethod *M =
            P.Registry.findUniqueMethod(Prod.Method, Prod.KeyArgs);
        EXPECT_NE(M, nullptr)
            << P.Name << ": producer " << Prod.Var << "." << Prod.Method
            << "/" << Prod.KeyArgs << " not judgeable";
      }
}
