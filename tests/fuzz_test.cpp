//===- fuzz_test.cpp - Randomized robustness tests ------------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
// The pipeline's front door must never crash on garbage: random byte
// strings, random token soup, and random mutations of valid programs are
// thrown at the lexer/parser/lowering (and, where they survive, at the
// analysis). Diagnostics are allowed; crashes and hangs are not.
//
//===----------------------------------------------------------------------===//

#include "corpus/Generator.h"
#include "corpus/Profiles.h"
#include "ir/Lowering.h"
#include "lang/Parser.h"
#include "pointsto/Analysis.h"
#include "specs/SpecIO.h"

#include <gtest/gtest.h>

#include <thread>

using namespace uspec;

namespace {

/// Exercises the whole front end on arbitrary input; returns true if it
/// lowered cleanly.
bool feed(const std::string &Source) {
  StringInterner S;
  DiagnosticSink Diags;
  auto P = parseAndLower(Source, "fuzz", S, Diags);
  if (!P)
    return false;
  // Lowered inputs must also analyze without crashing.
  analyzeProgram(*P, S, AnalysisOptions());
  return true;
}

} // namespace

class FuzzBytes : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzBytes, RandomBytesNeverCrash) {
  Rng Rand(GetParam());
  for (int Case = 0; Case < 200; ++Case) {
    size_t Len = Rand.below(200);
    std::string Source;
    for (size_t I = 0; I < Len; ++I)
      Source += static_cast<char>(32 + Rand.below(95));
    feed(Source); // outcome irrelevant; must not crash
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzBytes, ::testing::Values(1, 2, 3));

class FuzzTokens : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTokens, RandomTokenSoupNeverCrashes) {
  static const char *Tokens[] = {
      "class",  "def",   "var",  "new",   "if",    "else", "while",
      "return", "null",  "this", "{",     "}",     "(",    ")",
      ",",      ";",     ".",    "=",     "==",    "!=",   "<",
      ">",      "x",     "y",    "Main",  "main",  "get",  "put",
      "\"s\"",  "42",    "0"};
  Rng Rand(GetParam());
  for (int Case = 0; Case < 300; ++Case) {
    std::string Source;
    size_t Len = Rand.below(120);
    for (size_t I = 0; I < Len; ++I) {
      Source += Tokens[Rand.below(std::size(Tokens))];
      Source += ' ';
    }
    feed(Source);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTokens, ::testing::Values(4, 5, 6));

class FuzzMutations : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzMutations, MutatedValidProgramsNeverCrash) {
  LanguageProfile P = javaProfile();
  GeneratorConfig Cfg;
  Rng Rand(GetParam());
  for (int Case = 0; Case < 60; ++Case) {
    std::string Source = generateProgramSource(P, Cfg, Rand);
    // Apply a handful of byte-level mutations.
    for (int M = 0; M < 5 && !Source.empty(); ++M) {
      size_t Pos = Rand.below(Source.size());
      switch (Rand.below(3)) {
      case 0:
        Source[Pos] = static_cast<char>(32 + Rand.below(95));
        break;
      case 1:
        Source.erase(Pos, 1 + Rand.below(4));
        break;
      default:
        Source.insert(Pos, 1, static_cast<char>(32 + Rand.below(95)));
        break;
      }
    }
    feed(Source);
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzMutations, ::testing::Values(7, 8, 9));

//===----------------------------------------------------------------------===//
// Nesting bombs: small inputs that nest far past MaxNestingDepth
//===----------------------------------------------------------------------===//

namespace {

/// `a.put(f(f(...f(a)...)))`: argument lists nested \p Depth deep.
std::string nestedArgs(unsigned Depth) {
  std::string S = "class C { def m() { a.put(";
  for (unsigned I = 1; I < Depth; ++I)
    S += "f(";
  S += "a";
  S.append(Depth - 1, ')');
  return S + "); } }";
}

/// `a.b().b()...b()`: a receiver chain of \p Links links.
std::string receiverChain(unsigned Links) {
  std::string S = "class C { def m() { a";
  for (unsigned I = 0; I < Links; ++I)
    S += ".b()";
  return S + "; } }";
}

/// `if (a) { if (a) { ... } }`: blocks nested \p Depth deep.
std::string nestedBlocks(unsigned Depth) {
  std::string S = "class C { def m() { ";
  for (unsigned I = 0; I < Depth; ++I)
    S += "if (a) { ";
  S += "a.x(); ";
  for (unsigned I = 0; I < Depth; ++I)
    S += "} ";
  return S + "} }";
}

struct Shape {
  const char *Name;
  std::string (*Build)(unsigned);
  const char *Diagnostic;
};

const Shape Shapes[] = {
    {"nested arguments", nestedArgs,
     "argument lists nested deeper than 256 levels"},
    {"receiver chain", receiverChain, "receiver chain longer than 256 links"},
    {"nested blocks", nestedBlocks, "blocks nested deeper than 256 levels"},
};

/// Parses, lowers and (if it lowered) analyzes \p Source on a fresh
/// std::thread, the kind of thread a `serve` worker runs on. Returns the
/// rendered diagnostics; \p Lowered reports whether lowering succeeded.
std::string frontEndOnThread(const std::string &Source, bool &Lowered) {
  std::string Rendered;
  std::thread Worker([&] {
    StringInterner S;
    DiagnosticSink Diags;
    auto P = parseAndLower(Source, "bomb", S, Diags);
    Lowered = P.has_value();
    if (P)
      analyzeProgram(*P, S, AnalysisOptions());
    Rendered = Diags.render();
  });
  Worker.join();
  return Rendered;
}

} // namespace

TEST(FuzzNesting, BombsPastTheLimitGetADiagnostic) {
  for (const Shape &Sh : Shapes) {
    bool Lowered = true;
    std::string Diags = frontEndOnThread(Sh.Build(20000), Lowered);
    EXPECT_FALSE(Lowered) << Sh.Name;
    EXPECT_NE(Diags.find(Sh.Diagnostic), std::string::npos)
        << Sh.Name << ": " << Diags;
  }
}

TEST(FuzzNesting, ShapesAtTheLimitLowerAndAnalyze) {
  for (const Shape &Sh : Shapes) {
    bool Lowered = false;
    std::string Diags = frontEndOnThread(Sh.Build(MaxNestingDepth), Lowered);
    EXPECT_TRUE(Lowered) << Sh.Name << ": " << Diags;
    EXPECT_EQ(Diags, "") << Sh.Name;
    // One level more is the first that is refused.
    Diags = frontEndOnThread(Sh.Build(MaxNestingDepth + 1), Lowered);
    EXPECT_FALSE(Lowered) << Sh.Name;
    EXPECT_NE(Diags.find(Sh.Diagnostic), std::string::npos)
        << Sh.Name << ": " << Diags;
  }
}

TEST(FuzzSpecIO, RandomSpecDocumentsNeverCrash) {
  Rng Rand(11);
  StringInterner S;
  static const char *Pieces[] = {"RetSame", "RetArg",  "RetRecv", "(",
                                 ")",       ",",       ".",       "/",
                                 "Map",     "get",     "?",       "1",
                                 "255",     "#x",      "\n",      " "};
  for (int Case = 0; Case < 500; ++Case) {
    std::string Doc;
    size_t Len = Rand.below(40);
    for (size_t I = 0; I < Len; ++I)
      Doc += Pieces[Rand.below(std::size(Pieces))];
    size_t ErrorLine = 0;
    parseSpecs(Doc, S, &ErrorLine);
  }
  SUCCEED();
}

TEST(FuzzSpecIO, SerializeAfterParseIsStable) {
  // Valid documents round-trip through parse→serialize→parse.
  StringInterner S;
  std::string Doc = "RetSame(A.get/1)\nRetArg(B.get/1, B.put/2, 2)\n"
                    "RetRecv(C.append/1)\nRetSame(?.path/1)\n";
  size_t ErrorLine = 0;
  SpecSet First = parseSpecs(Doc, S, &ErrorLine);
  ASSERT_EQ(ErrorLine, 0u);
  std::string Out1 = serializeSpecs(First, S);
  SpecSet Second = parseSpecs(Out1, S, &ErrorLine);
  ASSERT_EQ(ErrorLine, 0u);
  EXPECT_EQ(serializeSpecs(Second, S), Out1);
}
