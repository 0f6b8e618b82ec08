//===- Parser.h - MiniLang recursive-descent parser ------------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser building a Module from MiniLang source text.
/// Errors are reported through a DiagnosticSink; parsing continues after
/// recoverable errors so multiple problems surface in one pass.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_LANG_PARSER_H
#define USPEC_LANG_PARSER_H

#include "lang/AST.h"
#include "lang/Diagnostics.h"
#include "lang/Lexer.h"

#include <optional>
#include <string_view>
#include <vector>

namespace uspec {

/// How deep `if`/`while` blocks and argument lists may nest, and how many
/// `.member` links one receiver chain may have. The parser, lowering, the
/// analysis and the interpreter recurse once per level, so without a bound
/// a small request (`f(f(f(...)))` 20,000 deep is 60 KB) overflows the
/// stack of the thread that parses it. Going past the limit is a
/// diagnostic. Generated programs stay far below it: across 80k of them the
/// deepest had 3 levels of braces, 2 of parentheses and 2 chained calls.
inline constexpr unsigned MaxNestingDepth = 256;

/// Parses MiniLang source into a Module.
class Parser {
public:
  /// Parses \p Source (named \p ModuleName) and returns the module, or
  /// std::nullopt if parsing hit a non-recoverable error. Check
  /// \p Diags.hasErrors() even on success. The module keeps its own copy of
  /// the source text, so \p Source need not outlive it.
  static std::optional<Module> parse(std::string_view Source,
                                     std::string ModuleName,
                                     DiagnosticSink &Diags);

private:
  /// Buffers one parse leaves for the next on the same thread: the token
  /// stream and the list stacks. Reusing them keeps the memory a parse
  /// works in warm instead of drawing fresh pages for every program.
  struct Scratch {
    TokenStream Tokens;
    // Lists under construction, innermost on top; commit() pops them.
    std::vector<ClassDecl> Classes;
    std::vector<MethodDecl> Methods;
    std::vector<std::string_view> Names;
    std::vector<const Stmt *> Stmts;
    std::vector<const Expr *> Exprs;
  };

  Parser(Scratch &S, Arena &Pool, DiagnosticSink &Diags)
      : Tokens(S.Tokens), Classes(S.Classes), Methods(S.Methods),
        Names(S.Names), Stmts(S.Stmts), Exprs(S.Exprs), Pool(Pool),
        Diags(Diags) {}

  const Token &peek() const { return Tokens[Pos]; }
  const Token &previous() const { return Tokens[Pos - 1]; }
  bool check(TokenKind Kind) const { return peek().is(Kind); }
  bool match(TokenKind Kind);
  bool expect(TokenKind Kind, const char *Context);
  void synchronizeToClassBoundary();
  /// Reports "<What> <MaxNestingDepth> <Unit>" at \p At.
  void nestingError(const Token &At, const char *What, const char *Unit);

  /// Allocates a node in the module's pool.
  template <typename T, typename... ArgTs> T *make(ArgTs &&...Args);
  /// Moves Stack[Mark..] into a pool array and truncates Stack to Mark.
  template <typename T>
  PoolArray<T> commit(std::vector<T> &Stack, size_t Mark);
  /// \p Text if it views the module's copy of the source, else a pool copy
  /// (the decoded text of an escaped string literal lives in the tokens).
  std::string_view own(std::string_view Text);

  void parseModule(Module &M);
  bool parseClass();
  bool parseMethod();
  bool parseBlock(Block &Out);
  bool parseNestedBlock(Block &Out);
  const Stmt *parseStatement();
  const Stmt *parseIf();
  const Stmt *parseWhile();
  std::optional<Condition> parseCondition();
  const Expr *parseExpr();
  const Expr *parsePrimary();
  bool parseArgs(ExprList &Out);

  const TokenStream &Tokens;
  std::vector<ClassDecl> &Classes;
  std::vector<MethodDecl> &Methods;
  std::vector<std::string_view> &Names;
  std::vector<const Stmt *> &Stmts;
  std::vector<const Expr *> &Exprs;
  Arena &Pool;
  DiagnosticSink &Diags;
  size_t Pos = 0;
  std::string_view Source; ///< The module's copy of the source text.
  unsigned BlockDepth = 0; ///< Enclosing `if`/`while` blocks.
  unsigned ArgDepth = 0;   ///< Enclosing argument lists.
};

} // namespace uspec

#endif // USPEC_LANG_PARSER_H
