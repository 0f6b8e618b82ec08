//===- runtime_test.cpp - Tests for the concrete runtime/interpreter ----------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "corpus/Generator.h"
#include "corpus/Profiles.h"
#include "eventgraph/EventGraph.h"
#include "ir/Lowering.h"
#include "runtime/Interpreter.h"

#include <gtest/gtest.h>

using namespace uspec;

namespace {

const ApiMethod &method(const ApiRegistry &R, const char *Class,
                        const char *Name, unsigned Arity) {
  const ApiClass *C = R.findClass(Class);
  EXPECT_NE(C, nullptr) << Class;
  const ApiMethod *M = C->findMethod(Name, Arity);
  EXPECT_NE(M, nullptr) << Name;
  return *M;
}

} // namespace

//===----------------------------------------------------------------------===//
// ApiHeap semantics
//===----------------------------------------------------------------------===//

TEST(ApiHeap, StoreThenLoadReturnsStoredValue) {
  LanguageProfile P = javaProfile();
  ApiHeap Heap(P.Registry);
  RtValue Map = Heap.allocObject("HashMap");
  RtValue Value = Heap.allocObject("File");

  const ApiMethod &Put = method(P.Registry, "HashMap", "put", 2);
  const ApiMethod &Get = method(P.Registry, "HashMap", "get", 1);

  Heap.callApi(Map, Put, {RtValue::ofStr("k"), Value});
  RtValue Hit = Heap.callApi(Map, Get, {RtValue::ofStr("k")});
  EXPECT_TRUE(Hit == Value);
  RtValue Miss = Heap.callApi(Map, Get, {RtValue::ofStr("other")});
  EXPECT_TRUE(Miss.isNull());
}

TEST(ApiHeap, SeparateReceiversSeparateState) {
  LanguageProfile P = javaProfile();
  ApiHeap Heap(P.Registry);
  RtValue M1 = Heap.allocObject("HashMap");
  RtValue M2 = Heap.allocObject("HashMap");
  RtValue Value = Heap.allocObject("File");
  const ApiMethod &Put = method(P.Registry, "HashMap", "put", 2);
  const ApiMethod &Get = method(P.Registry, "HashMap", "get", 1);
  Heap.callApi(M1, Put, {RtValue::ofStr("k"), Value});
  EXPECT_TRUE(Heap.callApi(M2, Get, {RtValue::ofStr("k")}).isNull());
}

TEST(ApiHeap, StatelessGetterMemoizes) {
  LanguageProfile P = javaProfile();
  ApiHeap Heap(P.Registry);
  RtValue RS = Heap.allocObject("ResultSet");
  const ApiMethod &GetString = method(P.Registry, "ResultSet", "getString", 1);
  RtValue A = Heap.callApi(RS, GetString, {RtValue::ofStr("col")});
  RtValue B = Heap.callApi(RS, GetString, {RtValue::ofStr("col")});
  RtValue C = Heap.callApi(RS, GetString, {RtValue::ofStr("other")});
  EXPECT_TRUE(A == B) << "same column: same object (RetSame ground truth)";
  EXPECT_FALSE(A == C);
}

TEST(ApiHeap, MutatingReaderPopsInsertedValues) {
  LanguageProfile P = pythonProfile();
  ApiHeap Heap(P.Registry);
  RtValue List = Heap.allocObject("List");
  RtValue V = Heap.allocObject("Item");
  const ApiMethod &Append = method(P.Registry, "List", "append", 1);
  const ApiMethod &Pop = method(P.Registry, "List", "pop", 0);
  Heap.callApi(List, Append, {V});
  RtValue Popped = Heap.callApi(List, Pop, {});
  EXPECT_TRUE(Popped == V);
  RtValue Popped2 = Heap.callApi(List, Pop, {});
  EXPECT_FALSE(Popped2 == V) << "second pop must not return the same value";
}

TEST(ApiHeap, FactoryReturnsFreshObjects) {
  LanguageProfile P = javaProfile();
  ApiHeap Heap(P.Registry);
  RtValue Doc = Heap.allocObject("Document");
  const ApiMethod &Create = method(P.Registry, "Document", "createElement", 1);
  RtValue A = Heap.callApi(Doc, Create, {RtValue::ofStr("div")});
  RtValue B = Heap.callApi(Doc, Create, {RtValue::ofStr("div")});
  EXPECT_TRUE(A.isObj() && B.isObj());
  EXPECT_FALSE(A == B) << "factories must not memoize";
}

TEST(ApiHeap, StringKeyedClassesRejectObjectKeys) {
  LanguageProfile P = javaProfile();
  ApiHeap Heap(P.Registry);
  RtValue Props = Heap.allocObject("Properties");
  RtValue Key = Heap.allocObject("testArg");
  RtValue Value = Heap.allocObject("File");
  const ApiMethod &Set = method(P.Registry, "Properties", "setProperty", 2);
  const ApiMethod &Get = method(P.Registry, "Properties", "getProperty", 1);
  Heap.callApi(Props, Set, {Key, Value});
  EXPECT_TRUE(Heap.callApi(Props, Get, {Key}).isNull())
      << "object keys are rejected by string-keyed classes";
  // String keys work.
  Heap.callApi(Props, Set, {RtValue::ofStr("k"), Value});
  EXPECT_TRUE(Heap.callApi(Props, Get, {RtValue::ofStr("k")}) == Value);
}

TEST(ApiHeap, IteratorInheritsSequence) {
  LanguageProfile P = javaProfile();
  ApiHeap Heap(P.Registry);
  RtValue List = Heap.allocObject("ArrayList");
  RtValue V = Heap.allocObject("Item");
  Heap.callApi(List, method(P.Registry, "ArrayList", "add", 1), {V});
  RtValue It =
      Heap.callApi(List, method(P.Registry, "ArrayList", "iterator", 0), {});
  ASSERT_TRUE(It.isObj());
  RtValue HasNext =
      Heap.callApi(It, method(P.Registry, "Iterator", "hasNext", 0), {});
  EXPECT_EQ(HasNext.Int, 1);
  RtValue E = Heap.callApi(It, method(P.Registry, "Iterator", "next", 0), {});
  EXPECT_TRUE(E == V);
  EXPECT_EQ(
      Heap.callApi(It, method(P.Registry, "Iterator", "hasNext", 0), {}).Int,
      0);
}

//===----------------------------------------------------------------------===//
// Interpreter
//===----------------------------------------------------------------------===//

namespace {

struct Executed {
  StringInterner Strings;
  IRProgram Program;
  LanguageProfile Profile = javaProfile();
  std::map<uint32_t, std::vector<RtValue>> Returns;

  /// Returns the site id of the Nth call to \p Name (textual order).
  uint32_t siteOf(const std::string &Name, int Occurrence = 0) {
    int Found = 0;
    uint32_t Result = 0;
    // Textual order, entering both regions of an If and, after a While's
    // body, its condition range again.
    std::function<void(const IRMethod &, IndexRange)> Walk =
        [&](const IRMethod &M, IndexRange R) {
          M.forEach(R, [&](const Instr &I) {
            if (I.TheKind == Instr::Kind::Call &&
                Strings.str(I.Name) == Name) {
              if (Found++ == Occurrence)
                Result = I.SiteId;
            }
            if (I.TheKind == Instr::Kind::If) {
              Walk(M, I.thenRange());
              Walk(M, I.elseRange());
            } else if (I.TheKind == Instr::Kind::While) {
              Walk(M, I.bodyRange());
              Walk(M, I.condRange());
            }
          });
        };
    for (const IRClass &C : Program.Classes)
      for (const IRMethod &M : C.Methods)
        Walk(M, M.body());
    EXPECT_GT(Found, Occurrence) << "call not found: " << Name;
    return Result;
  }
};

Executed execute(std::string_view Source) {
  Executed E;
  DiagnosticSink Diags;
  auto P = parseAndLower(Source, "test", E.Strings, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.render();
  E.Program = std::move(*P);
  Interpreter Interp(E.Program, E.Strings, E.Profile.Registry);
  Interp.runAll();
  E.Returns = Interp.returnsPerSite();
  return E;
}

} // namespace

TEST(Interpreter, RoundtripAliasesConcretely) {
  Executed E = execute(R"(
    class Main {
      def main() {
        var map = new HashMap();
        map.put("k", db.getFile("cfg"));
        var f = map.get("k");
      }
    }
  )");
  auto &GetFile = E.Returns[E.siteOf("getFile")];
  auto &Get = E.Returns[E.siteOf("get")];
  ASSERT_EQ(GetFile.size(), 1u);
  ASSERT_EQ(Get.size(), 1u);
  EXPECT_TRUE(GetFile[0] == Get[0]) << "get must concretely return the file";
}

TEST(Interpreter, BranchesAndLoops) {
  Executed E = execute(R"(
    class Main {
      def main() {
        var n = 3;
        if (n > 1) { db.getFile("a"); } else { db.getFile("b"); }
        var list = new ArrayList();
        list.add(db.getFile("c"));
        var it = list.iterator();
        while (it.hasNext()) { sink.process(it.next()); }
      }
    }
  )");
  // Then-branch executed, else not.
  EXPECT_EQ(E.Returns[E.siteOf("getFile", 0)].size(), 1u);
  EXPECT_EQ(E.Returns.count(E.siteOf("getFile", 1)), 0u);
  // Loop ran exactly once (one element).
  EXPECT_EQ(E.Returns[E.siteOf("next")].size(), 1u);
}

TEST(Interpreter, ProgramMethodsExecute) {
  Executed E = execute(R"(
    class Box {
      var v;
      def fill(x) { this.v = x; }
      def take() { return this.v; }
    }
    class Main {
      def main() {
        var b = new Box();
        b.fill(db.getFile("cfg"));
        var f = b.take();
        f.getName();
      }
    }
  )");
  // getName executed on the file object (its site has one return).
  EXPECT_EQ(E.Returns[E.siteOf("getName")].size(), 1u);
}

//===----------------------------------------------------------------------===//
// Differential soundness: concrete aliasing ⇒ may-alias (ground-truth specs)
//===----------------------------------------------------------------------===//

namespace {

/// Builds the full ground-truth SpecSet for a profile.
SpecSet groundTruthSpecs(const LanguageProfile &P, StringInterner &S) {
  SpecSet Specs;
  for (const ApiClass &C : P.Registry.classes()) {
    Symbol ClassSym = S.intern(C.Name);
    for (const ApiMethod &M : C.Methods) {
      MethodId Mid = {ClassSym, S.intern(M.Name),
                      static_cast<uint8_t>(M.Arity)};
      if (M.Semantics == MethodSemantics::Load ||
          M.Semantics == MethodSemantics::StatelessGetter)
        Specs.insert(Spec::retSame(Mid));
      if (M.Semantics == MethodSemantics::Store) {
        for (const std::string &L : M.PairedLoads) {
          if (const ApiMethod *Load = C.findMethod(L, M.Arity - 1)) {
            MethodId Tid = {ClassSym, S.intern(Load->Name),
                            static_cast<uint8_t>(Load->Arity)};
            Specs.insert(
                Spec::retArg(Tid, Mid, static_cast<uint8_t>(M.StorePos)));
          }
        }
      }
    }
  }
  return Specs;
}

} // namespace

TEST(Differential, AwareAnalysisCoversConcreteContainerAliases) {
  // Property test over generated programs: whenever two Load/Getter call
  // sites on literal keys concretely return the same object, the API-aware
  // analysis with ground-truth specs must report may-alias between their ret
  // events.
  LanguageProfile P = javaProfile();
  GeneratorConfig Cfg;
  Cfg.NumPrograms = 60;
  Cfg.Seed = 77;
  StringInterner S;
  GeneratedCorpus Corpus = generateCorpus(P, Cfg, S);
  SpecSet Specs = groundTruthSpecs(P, S);

  AnalysisOptions Aware;
  Aware.ApiAware = true;
  Aware.Specs = &Specs;
  Aware.CoverageExtension = true;

  size_t CheckedPairs = 0, Violations = 0;
  for (const IRProgram &Program : Corpus.Programs) {
    Interpreter Interp(Program, S, P.Registry);
    Interp.runAll();
    AnalysisResult R = analyzeProgram(Program, S, Aware);

    // Map: site -> ret events (any context).
    std::map<uint32_t, std::vector<EventId>> RetEvents;
    for (EventId E = 0; E < R.Events.size(); ++E) {
      const Event &Ev = R.Events.get(E);
      if (Ev.Kind == EventKind::ApiCall && Ev.Pos == PosRet)
        RetEvents[Ev.Site].push_back(E);
    }

    // Sites whose method is a registry Load/StatelessGetter.
    auto IsCovered = [&](uint32_t Site) {
      auto It = RetEvents.find(Site);
      if (It == RetEvents.end())
        return false;
      const Event &Ev = R.Events.get(It->second.front());
      MethodId Mid = Ev.Method;
      return Specs.hasRetSame(Mid);
    };

    const auto &Returns = Interp.returnsPerSite();
    for (auto ItA = Returns.begin(); ItA != Returns.end(); ++ItA) {
      for (auto ItB = std::next(ItA); ItB != Returns.end(); ++ItB) {
        if (!IsCovered(ItA->first) || !IsCovered(ItB->first))
          continue;
        // Concretely aliasing object returns?
        bool ConcreteAlias = false;
        for (const RtValue &A : ItA->second)
          for (const RtValue &B : ItB->second)
            ConcreteAlias |= A.isObj() && A == B;
        if (!ConcreteAlias)
          continue;
        ++CheckedPairs;
        bool MayAlias = false;
        for (EventId EA : RetEvents[ItA->first])
          for (EventId EB : RetEvents[ItB->first])
            MayAlias |= R.retMayAlias(EA, EB);
        if (!MayAlias)
          ++Violations;
      }
    }
  }
  EXPECT_GT(CheckedPairs, 3u) << "the corpus must exercise aliasing pairs";
  EXPECT_EQ(Violations, 0u)
      << "aware analysis with ground-truth specs missed concrete aliases";
}
