//===- lang_test.cpp - Tests for the MiniLang frontend -----------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "lang/Printer.h"

#include <gtest/gtest.h>

using namespace uspec;

namespace {

TokenStream lex(std::string_view Source) {
  DiagnosticSink Diags;
  Lexer L(Source, Diags);
  auto Tokens = L.lexAll();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.render();
  return Tokens;
}

Module parseOk(std::string_view Source) {
  DiagnosticSink Diags;
  auto M = Parser::parse(Source, "test", Diags);
  EXPECT_TRUE(M.has_value());
  EXPECT_FALSE(Diags.hasErrors()) << Diags.render();
  return std::move(*M);
}

} // namespace

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(Lexer, KeywordsAndIdentifiers) {
  auto Tokens = lex("class def var new foo_1 Bar");
  ASSERT_EQ(Tokens.size(), 7u); // + EOF
  EXPECT_EQ(Tokens[0].Kind, TokenKind::KwClass);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::KwDef);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::KwVar);
  EXPECT_EQ(Tokens[3].Kind, TokenKind::KwNew);
  EXPECT_EQ(Tokens[4].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[4].Text, "foo_1");
  EXPECT_EQ(Tokens[5].Text, "Bar");
}

TEST(Lexer, StringEscapes) {
  auto Tokens = lex(R"("a\nb\"c\\d")");
  ASSERT_GE(Tokens.size(), 1u);
  EXPECT_EQ(Tokens[0].Kind, TokenKind::StringLiteral);
  EXPECT_EQ(Tokens[0].Text, "a\nb\"c\\d");
}

TEST(Lexer, IntLiteralAndPunct) {
  auto Tokens = lex("x = 42; y.z(1, 2)");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::Identifier);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::Assign);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::IntLiteral);
  EXPECT_EQ(Tokens[2].Text, "42");
  EXPECT_EQ(Tokens[3].Kind, TokenKind::Semicolon);
}

TEST(Lexer, ComparisonOperators) {
  auto Tokens = lex("== != < >");
  EXPECT_EQ(Tokens[0].Kind, TokenKind::EqualEqual);
  EXPECT_EQ(Tokens[1].Kind, TokenKind::NotEqual);
  EXPECT_EQ(Tokens[2].Kind, TokenKind::Less);
  EXPECT_EQ(Tokens[3].Kind, TokenKind::Greater);
}

TEST(Lexer, LineCommentsSkipped) {
  auto Tokens = lex("a // comment == != \n b");
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].Text, "a");
  EXPECT_EQ(Tokens[1].Text, "b");
  EXPECT_EQ(Tokens[1].Line, 2);
}

TEST(Lexer, TracksLineAndColumn) {
  auto Tokens = lex("a\n  b");
  EXPECT_EQ(Tokens[0].Line, 1);
  EXPECT_EQ(Tokens[0].Column, 1);
  EXPECT_EQ(Tokens[1].Line, 2);
  EXPECT_EQ(Tokens[1].Column, 3);
}

TEST(Lexer, UnterminatedStringReportsError) {
  DiagnosticSink Diags;
  Lexer L("\"abc", Diags);
  L.lexAll();
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Lexer, UnexpectedCharacterReportsError) {
  DiagnosticSink Diags;
  Lexer L("a # b", Diags);
  L.lexAll();
  EXPECT_TRUE(Diags.hasErrors());
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(Parser, EmptyClass) {
  Module M = parseOk("class Main { }");
  ASSERT_EQ(M.Classes.size(), 1u);
  EXPECT_EQ(M.Classes[0].Name, "Main");
  EXPECT_TRUE(M.Classes[0].Methods.empty());
}

TEST(Parser, FieldsAndMethods) {
  Module M = parseOk(R"(
    class C {
      var cache;
      var other;
      def m(a, b) { return a; }
    }
  )");
  ASSERT_EQ(M.Classes.size(), 1u);
  const ClassDecl &C = M.Classes[0];
  EXPECT_EQ(C.Fields.size(), 2u);
  ASSERT_EQ(C.Methods.size(), 1u);
  EXPECT_EQ(C.Methods[0].Name, "m");
  EXPECT_EQ(C.Methods[0].Params.size(), 2u);
  ASSERT_EQ(C.Methods[0].Body.size(), 1u);
  EXPECT_EQ(C.Methods[0].Body[0]->getKind(), Stmt::Kind::Return);
}

TEST(Parser, HashMapExampleFromFig2) {
  // The running example of the paper (Fig. 2), in MiniLang syntax.
  Module M = parseOk(R"(
    class Main {
      def main() {
        var map = new Map();
        map.put("key", someApi.getFile());
        var name = map.get("key").getName();
      }
    }
  )");
  const MethodDecl &Main = M.Classes[0].Methods[0];
  ASSERT_EQ(Main.Body.size(), 3u);
  // Statement 2: map.put("key", someApi.getFile());
  const auto *Call =
      dyn_cast<CallExpr>(cast<ExprStmt>(Main.Body[1])->E);
  ASSERT_NE(Call, nullptr);
  EXPECT_EQ(Call->Method, "put");
  ASSERT_EQ(Call->Args.size(), 2u);
  EXPECT_EQ(Call->Args[0]->getKind(), Expr::Kind::StringLit);
  EXPECT_EQ(Call->Args[1]->getKind(), Expr::Kind::Call);
}

TEST(Parser, ChainedCallsAndFieldReads) {
  Module M = parseOk(R"(
    class Main { def main() { var x = a.b.c().d; } }
  )");
  // a.b -> field read; .c() -> call; .d -> field read
  const auto *Decl =
      cast<VarDeclStmt>(M.Classes[0].Methods[0].Body[0]);
  const auto *D = dyn_cast<FieldReadExpr>(Decl->Init);
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Field, "d");
  const auto *C = dyn_cast<CallExpr>(D->Base);
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->Method, "c");
}

TEST(Parser, IfElseWithConditions) {
  Module M = parseOk(R"(
    class Main {
      def main() {
        var x = api.get();
        if (x != null) { x.use(); } else { api.log(); }
        while (x == null) { x = api.get(); }
      }
    }
  )");
  const auto &Body = M.Classes[0].Methods[0].Body;
  ASSERT_EQ(Body.size(), 3u);
  const auto *If = cast<IfStmt>(Body[1]);
  EXPECT_EQ(If->Cond.Op, CmpOp::Ne);
  EXPECT_EQ(If->Then.size(), 1u);
  EXPECT_EQ(If->Else.size(), 1u);
  const auto *While = cast<WhileStmt>(Body[2]);
  EXPECT_EQ(While->Cond.Op, CmpOp::Eq);
}

TEST(Parser, ImplicitThisCallAndThisKeyword) {
  Module M = parseOk(R"(
    class C {
      var f;
      def helper() { return this.f; }
      def main() { var x = helper(); this.f = x; }
    }
  )");
  const MethodDecl &Main = M.Classes[0].Methods[1];
  const auto *Decl = cast<VarDeclStmt>(Main.Body[0]);
  const auto *Call = cast<CallExpr>(Decl->Init);
  EXPECT_EQ(Call->Receiver, nullptr); // implicit this
  const auto *Assign = cast<AssignStmt>(Main.Body[1]);
  const auto *Target = cast<FieldReadExpr>(Assign->Target);
  EXPECT_EQ(Target->Base->getKind(), Expr::Kind::This);
}

TEST(Parser, FieldAssignment) {
  Module M = parseOk("class C { var f; def m(o) { o.f = o; } }");
  const auto *Assign =
      cast<AssignStmt>(M.Classes[0].Methods[0].Body[0]);
  EXPECT_EQ(Assign->Target->getKind(), Expr::Kind::FieldRead);
}

TEST(Parser, ErrorOnBadAssignTarget) {
  DiagnosticSink Diags;
  Parser::parse("class C { def m() { m() = 3; } }", "t", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Parser, ErrorOnMissingSemicolon) {
  DiagnosticSink Diags;
  Parser::parse("class C { def m() { var x = 1 } }", "t", Diags);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Parser, MultipleClasses) {
  Module M = parseOk("class A { } class B { def m() { } }");
  EXPECT_EQ(M.Classes.size(), 2u);
}

//===----------------------------------------------------------------------===//
// Printer round-trips
//===----------------------------------------------------------------------===//

namespace {

/// Structural equality via printing: parse -> print -> parse -> print must be
/// a fixpoint.
void expectRoundTrip(const std::string &Source) {
  Module M1 = parseOk(Source);
  std::string P1 = printModule(M1);
  Module M2 = parseOk(P1);
  std::string P2 = printModule(M2);
  EXPECT_EQ(P1, P2) << "printer not a fixpoint for:\n" << Source;
}

} // namespace

TEST(Printer, RoundTripSimple) {
  expectRoundTrip("class Main { def main() { var x = new Map(); } }");
}

TEST(Printer, RoundTripFullFeatureSet) {
  expectRoundTrip(R"(
    class Helper {
      var state;
      def init(v) { this.state = v; }
      def get() { return this.state; }
    }
    class Main {
      def main() {
        var h = new Helper(someApi.load("cfg"));
        var map = new Map();
        map.put("k\n1", h.get());
        if (map.get("k\n1") != null) {
          var it = list.iterator();
          while (it.hasNext()) {
            it.next().process(1, "two", null);
          }
        } else {
          log.warn("missing");
        }
        return;
      }
    }
  )");
}

TEST(Printer, RoundTripEscapes) {
  expectRoundTrip(R"(class C { def m() { var s = "a\\b\"c\td"; } })");
}

TEST(Printer, ExprPrinting) {
  Module M = parseOk(
      "class C { def m() { var x = a.b(c.d(), \"s\", 42).e; } }");
  const auto *Decl = cast<VarDeclStmt>(M.Classes[0].Methods[0].Body[0]);
  EXPECT_EQ(printExpr(*Decl->Init), "a.b(c.d(), \"s\", 42).e");
}
