//===- ir_test.cpp - Tests for AST->IR lowering ------------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Lowering.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace uspec;

namespace {

struct LoweredProgram {
  StringInterner Strings;
  IRProgram Program;
};

LoweredProgram lower(std::string_view Source) {
  LoweredProgram Result;
  DiagnosticSink Diags;
  auto P = parseAndLower(Source, "test", Result.Strings, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.render();
  if (P)
    Result.Program = std::move(*P);
  return Result;
}

/// Finds the first instruction of \p Kind at the top level of range \p R
/// of \p M (does not enter nested regions).
const Instr *findFirst(const IRMethod &M, IndexRange R, Instr::Kind Kind) {
  const Instr *Found = nullptr;
  M.forEach(R, [&](const Instr &I) {
    if (!Found && I.TheKind == Kind)
      Found = &I;
  });
  return Found;
}

} // namespace

TEST(Lowering, SimpleAllocAndCall) {
  auto L = lower(R"(
    class Main {
      def main() {
        var map = new Map();
        map.put("key", 1);
      }
    }
  )");
  ASSERT_EQ(L.Program.Classes.size(), 1u);
  const IRMethod &Main = L.Program.Classes[0].Methods[0];

  const Instr *Alloc = findFirst(Main, Main.body(), Instr::Kind::Alloc);
  ASSERT_NE(Alloc, nullptr);
  EXPECT_EQ(L.Strings.str(Alloc->Name), "Map");
  EXPECT_GT(Alloc->SiteId, 0u);

  const Instr *Call = findFirst(Main, Main.body(), Instr::Kind::Call);
  ASSERT_NE(Call, nullptr);
  EXPECT_EQ(L.Strings.str(Call->Name), "put");
  EXPECT_EQ(Call->Args.size(), 2u);
  EXPECT_GT(Call->SiteId, 0u);
  EXPECT_NE(Call->SiteId, Alloc->SiteId);
}

TEST(Lowering, SiteIdsAreUnique) {
  auto L = lower(R"(
    class Main {
      def main() {
        var a = api.m1();
        var b = api.m2("x");
        var c = new T();
        if (a != null) { api.m3(b, c); }
      }
    }
  )");
  // Visit every instruction once, regions included, collecting site ids.
  std::vector<uint32_t> Sites;
  for (const IRClass &C : L.Program.Classes)
    for (const IRMethod &M : C.Methods)
      for (const Instr &I : M.Code)
        if (I.SiteId)
          Sites.push_back(I.SiteId);
  std::sort(Sites.begin(), Sites.end());
  EXPECT_EQ(std::adjacent_find(Sites.begin(), Sites.end()), Sites.end())
      << "duplicate site ids";
  EXPECT_EQ(Sites.size(), static_cast<size_t>(L.Program.NumSites));
}

TEST(Lowering, NestedCallArgumentsAreFlattened) {
  auto L = lower(R"(
    class Main {
      def main() {
        map.put(db.key(), db.getFile());
      }
    }
  )");
  const IRMethod &Main = L.Program.Classes[0].Methods[0];
  // Expect three calls in order: key, getFile, put (args evaluated first).
  std::vector<std::string> Names;
  Main.forEach(Main.body(), [&](const Instr &I) {
    if (I.TheKind == Instr::Kind::Call)
      Names.push_back(L.Strings.str(I.Name));
  });
  ASSERT_EQ(Names.size(), 3u);
  EXPECT_EQ(Names[0], "key");
  EXPECT_EQ(Names[1], "getFile");
  EXPECT_EQ(Names[2], "put");
}

TEST(Lowering, LiteralKindsAndInterning) {
  auto L = lower(R"(
    class Main { def main() { api.f("s", 42, null); } }
  )");
  const IRMethod &Main = L.Program.Classes[0].Methods[0];
  std::vector<const Instr *> Lits;
  Main.forEach(Main.body(), [&](const Instr &I) {
    if (I.TheKind == Instr::Kind::Literal)
      Lits.push_back(&I);
  });
  ASSERT_EQ(Lits.size(), 3u);
  EXPECT_EQ(Lits[0]->LitKind, LiteralKind::String);
  EXPECT_EQ(L.Strings.str(Lits[0]->StrValue), "s");
  EXPECT_EQ(Lits[1]->LitKind, LiteralKind::Int);
  EXPECT_EQ(L.Strings.str(Lits[1]->StrValue), "42");
  EXPECT_EQ(Lits[1]->IntValue, 42);
  EXPECT_EQ(Lits[2]->LitKind, LiteralKind::Null);
}

TEST(Lowering, GuardIdsAssignedInsideBranches) {
  auto L = lower(R"(
    class Main {
      def main() {
        api.outside();
        if (x()) {
          api.inside();
          while (y()) { api.nested(); }
        }
      }
    }
  )");
  const IRMethod &Main = L.Program.Classes[0].Methods[0];
  const Instr *Outside = findFirst(Main, Main.body(), Instr::Kind::Call);
  ASSERT_NE(Outside, nullptr);
  EXPECT_EQ(Outside->GuardId, 0u);

  const Instr *If = findFirst(Main, Main.body(), Instr::Kind::If);
  ASSERT_NE(If, nullptr);
  ASSERT_FALSE(If->thenRange().empty());
  const Instr *Inside = findFirst(Main, If->thenRange(), Instr::Kind::Call);
  ASSERT_NE(Inside, nullptr);
  EXPECT_EQ(Inside->GuardId, If->GuardId);

  const Instr *While = findFirst(Main, If->thenRange(), Instr::Kind::While);
  ASSERT_NE(While, nullptr);
  const Instr *Nested =
      findFirst(Main, While->bodyRange(), Instr::Kind::Call);
  ASSERT_NE(Nested, nullptr);
  EXPECT_EQ(Nested->GuardId, While->GuardId);
  EXPECT_NE(Nested->GuardId, Inside->GuardId);
}

TEST(Lowering, InitConstructorIsCalledForProgramClasses) {
  auto L = lower(R"(
    class Box {
      var v;
      def init(x) { this.v = x; }
    }
    class Main {
      def main() { var b = new Box(42); }
    }
  )");
  const IRMethod &Main = L.Program.Classes[1].Methods[0];
  const Instr *Call = findFirst(Main, Main.body(), Instr::Kind::Call);
  ASSERT_NE(Call, nullptr);
  EXPECT_EQ(L.Strings.str(Call->Name), "init");
  ASSERT_EQ(Call->Args.size(), 1u);
}

TEST(Lowering, NoInitCallForApiClasses) {
  auto L = lower("class Main { def main() { var m = new HashMap(); } }");
  const IRMethod &Main = L.Program.Classes[0].Methods[0];
  EXPECT_EQ(findFirst(Main, Main.body(), Instr::Kind::Call), nullptr);
}

TEST(Lowering, FreeNamesBecomeExternals) {
  // Free names such as `db` in the paper's snippets denote external globals
  // holding unknown API objects; lowering registers them as externals.
  auto L = lower("class C { def m() { db.getFile(); db.close(); } }");
  const IRMethod &M = L.Program.Classes[0].Methods[0];
  ASSERT_EQ(M.Externals.size(), 1u);
  EXPECT_EQ(L.Strings.str(M.Externals[0].second), "db");
  // Both calls use the same slot.
  std::vector<VarId> Receivers;
  M.forEach(M.body(), [&](const Instr &I) {
    if (I.TheKind == Instr::Kind::Call)
      Receivers.push_back(I.Base);
  });
  ASSERT_EQ(Receivers.size(), 2u);
  EXPECT_EQ(Receivers[0], Receivers[1]);
  EXPECT_EQ(Receivers[0], M.Externals[0].first);
}

TEST(Lowering, DeclaredVariablesAreNotExternals) {
  auto L = lower("class C { def m(p) { var x = p; x.use(); } }");
  EXPECT_TRUE(L.Program.Classes[0].Methods[0].Externals.empty());
}

TEST(Lowering, BlockScopesShadowAndRestore) {
  auto L = lower(R"(
    class C {
      def m(a) {
        var x = a;
        if (x) { var x = api.f(); x.in(); }
        x.out();
        db.q();
        var db = 1;
        db.r();
      }
    }
  )");
  const IRMethod &M = L.Program.Classes[0].Methods[0];
  auto ReceiverOf = [&](const char *Name) {
    for (const Instr &I : M.Code)
      if (I.TheKind == Instr::Kind::Call && L.Strings.str(I.Name) == Name)
        return I.Base;
    ADD_FAILURE() << "no call to " << Name;
    return InvalidVar;
  };
  const Instr *FirstCopy = findFirst(M, M.body(), Instr::Kind::Copy);
  ASSERT_NE(FirstCopy, nullptr);
  VarId OuterX = FirstCopy->Dst;
  EXPECT_NE(ReceiverOf("in"), OuterX);  // the inner `var x` hides it
  EXPECT_EQ(ReceiverOf("out"), OuterX); // and is gone after its block
  ASSERT_EQ(M.Externals.size(), 2u); // api, db
  ASSERT_EQ(L.Strings.str(M.Externals[1].second), "db");
  VarId ExternalDb = M.Externals[1].first;
  EXPECT_EQ(ReceiverOf("q"), ExternalDb);
  // A local declared after a free name's use takes over from there.
  EXPECT_NE(ReceiverOf("r"), ExternalDb);
  EXPECT_EQ(slotName(L.Program, M, ReceiverOf("r")), "db");
}

TEST(Lowering, ParamsAndThisOccupyLowSlots) {
  auto L = lower("class C { def m(a, b) { var x = a; } }");
  const IRMethod &M = L.Program.Classes[0].Methods[0];
  EXPECT_EQ(M.NumParams, 2u);
  ASSERT_GE(M.NumVars, 3u);
  EXPECT_EQ(slotName(L.Program, M, 0), "this");
  EXPECT_EQ(slotName(L.Program, M, 1), "a");
  EXPECT_EQ(slotName(L.Program, M, 2), "b");
}

TEST(Lowering, FieldLoadStore) {
  auto L = lower(R"(
    class C {
      var f;
      def m(o) {
        this.f = o;
        var x = this.f;
      }
    }
  )");
  const IRMethod &M = L.Program.Classes[0].Methods[0];
  const Instr *Store = findFirst(M, M.body(), Instr::Kind::StoreField);
  ASSERT_NE(Store, nullptr);
  EXPECT_EQ(Store->Base, 0u); // this
  EXPECT_EQ(L.Strings.str(Store->Name), "f");
  const Instr *Load = findFirst(M, M.body(), Instr::Kind::LoadField);
  ASSERT_NE(Load, nullptr);
  EXPECT_EQ(Load->Base, 0u);
}

TEST(Lowering, DisassembleSmokeTest) {
  auto L = lower(R"(
    class Main {
      def main() {
        var map = new Map();
        map.put("k", 1);
        if (map.get("k") != null) { api.log("hit"); }
      }
    }
  )");
  std::string Text = disassemble(L.Program, L.Strings);
  EXPECT_NE(Text.find("alloc Map"), std::string::npos);
  EXPECT_NE(Text.find(".put("), std::string::npos);
  EXPECT_NE(Text.find("if"), std::string::npos);
}
