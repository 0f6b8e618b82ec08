//===- frontend_test.cpp - Byte-level pins of the front end's outputs --------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
// The lexer, parser and lowering are performance-critical and get rewritten
// for speed; these tests pin what they produce, byte for byte, so a rewrite
// cannot drift. Fingerprints are persisted in artifact manifests and echoed
// by every `serve` response; interner ids feed feature hashes and the golden
// checksum; diagnostics are user-visible text.
//
//===----------------------------------------------------------------------===//

#include "corpus/Dedup.h"
#include "ir/Lowering.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace uspec;

namespace {

/// One program that uses every instruction kind: alloc, all three literal
/// kinds (one string with escapes), copy, field load and store, calls with
/// and without a result (the implicit `init` call), if/else, while, and
/// return with and without a value.
const char *EveryInstrKind = R"(class Box {
  var v;
  def init(x) { this.v = x; }
  def get() { return this.v; }
}
class Main {
  var cache;
  def main(p) {
    var b = new Box("s\n\"q\"");
    var m = new Map();
    var n = 42;
    var z = null;
    m.put(b.get(), db.load(n, z));
    if (m.size() > 0) { this.cache = m; } else { log.warn("empty"); return; }
    while (it.hasNext() != null) { var e = it.next(); e.use(p, 7); }
    var c = this.cache;
    return c;
  }
}
)";

std::string hex(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

std::string fingerprintOf(const char *Source) {
  StringInterner Strings;
  DiagnosticSink Diags;
  auto P = parseAndLower(Source, "pin", Strings, Diags);
  EXPECT_TRUE(P.has_value()) << Diags.render();
  return P ? hex(programFingerprint(*P)) : "";
}

std::string diagnosticsOf(const char *Source) {
  StringInterner Strings;
  DiagnosticSink Diags;
  EXPECT_FALSE(parseAndLower(Source, "bad", Strings, Diags).has_value());
  return Diags.render();
}

} // namespace

TEST(FrontendPin, ProgramFingerprints) {
  // if/else.
  EXPECT_EQ(fingerprintOf("class A { def m(x) { if (x != null) { x.a(); } "
                          "else { api.b(\"s\"); } } }"),
            "0x9fb68ca336c6b3e0");
  // while, with a call in the condition.
  EXPECT_EQ(fingerprintOf("class A { def m() { var i = it.iter(); while "
                          "(i.hasNext()) { i.next().use(i); } i.done(); } }"),
            "0x118b43d1a9bea5a7");
  // Nested call arguments.
  EXPECT_EQ(fingerprintOf("class A { def m() { map.put(db.key(\"k\", 1), "
                          "db.val(env.get(null), 2)); } }"),
            "0x9de1153727b4c635");
  // `new` of a program class with `init`, and of an API class.
  EXPECT_EQ(fingerprintOf("class P { var f; def init(a, b) { this.f = a; } "
                          "def get() { return this.f; } }\nclass Q { def "
                          "run() { var p = new P(\"x\", 3); var q = new "
                          "Map(); p.get(); } }"),
            "0x8625c1509d95f214");
  // All three literal kinds.
  EXPECT_EQ(fingerprintOf("class L { def m() { api.take(\"str\", 12345, "
                          "null); var n = 0; } }"),
            "0xf1c0d702a4cf0a11");
  EXPECT_EQ(fingerprintOf(EveryInstrKind), "0x2fd79c2551e506c5");
}

TEST(FrontendPin, DisassemblyOfEveryInstructionKind) {
  StringInterner Strings;
  DiagnosticSink Diags;
  auto P = parseAndLower(EveryInstrKind, "every", Strings, Diags);
  ASSERT_TRUE(P.has_value()) << Diags.render();
  EXPECT_EQ(disassemble(*P, Strings), R"(class Box {
 def init/1 {
    this.v = x
 }
 def get/0 {
    %t1 = this.v
    return %t1
 }
}
class Main {
 def main/1 {
    %t2 = lit "s
"q"" @1
    %t3 = alloc Box @2
    %t3.init(%t2) @3
    b = %t3
    %t5 = alloc Map @4
    m = %t5
    %t7 = lit 42 @5
    n = %t7
    %t9 = lit null @6
    z = %t9
    %t11 = b.get() @7
    %t13 = db.load(n, z) @8
    %t14 = m.put(%t11, %t13) @9
    %t15 = m.size() @10
    %t16 = lit 0 @11
    if %t15 guard#1
      this.cache = m
    else
      %t18 = lit "empty" @12
      %t19 = log.warn(%t18) @13
      return
    %t21 = it.hasNext() @14
    %t22 = lit null @15
    while %t21 guard#2
      %t23 = it.next() @16
      e = %t23
      %t25 = lit 7 @17
      %t26 = e.use(p, %t25) @18
    %t27 = this.cache
    c = %t27
    return c
 }
}
)");
}

TEST(FrontendPin, InternerContentsInFirstSeenOrder) {
  StringInterner Strings;
  DiagnosticSink Diags;
  ASSERT_TRUE(
      parseAndLower(EveryInstrKind, "every", Strings, Diags).has_value());
  const std::vector<std::string> Expected = {
      "",      "Box",  "v",   "init",  "get",   "Main",    "cache",
      "main",  "s\n\"q\"",    "Map",   "42",    "db",      "load",
      "put",   "size", "0",   "log",   "empty", "warn",    "it",
      "hasNext", "next", "7", "use"};
  ASSERT_EQ(Strings.size(), Expected.size());
  for (size_t I = 0; I < Expected.size(); ++I)
    EXPECT_EQ(Strings.str(Symbol(static_cast<uint32_t>(I))), Expected[I])
        << "symbol " << I;
}

TEST(FrontendPin, RenderedDiagnostics) {
  EXPECT_EQ(diagnosticsOf("class A {\n  def m() {\n    api.f(\"abc);\n  }\n}\n"),
            "3:11: unterminated string literal\n"
            "3:11: expected expression, found invalid token\n");
  EXPECT_EQ(diagnosticsOf("class A {\n  def m() { var x = 1 # 2; }\n}\n"),
            "2:23: unexpected character '#'\n"
            "2:23: expected ';' after variable declaration, found invalid "
            "token\n");
  // Escapes count as their source characters in column numbers.
  EXPECT_EQ(diagnosticsOf("class A {\n  def m() { api.f(\"a\\tb\\\"c\\\\\", "
                          "1); var y = ; }\n}\n"),
            "2:44: expected expression, found ';'\n");
  EXPECT_EQ(diagnosticsOf(
                "class A {\n  def m() {\n    var x = 1;\n    var x = 2;\n  "
                "}\n}\n"),
            "4:0: redeclaration of 'x'\n");
  EXPECT_EQ(diagnosticsOf("class A {\n  def m(a, b, a) { }\n}\n"),
            "2:0: duplicate parameter 'a'\n");
}
