//===- Parser.cpp - MiniLang recursive-descent parser ----------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>

using namespace uspec;

namespace {

/// The value of a run of decimal digits, saturating at INT64_MAX on
/// overflow as strtoll does.
int64_t parseDecimal(std::string_view Digits) {
  constexpr uint64_t Max = std::numeric_limits<int64_t>::max();
  uint64_t Value = 0;
  for (char C : Digits) {
    uint64_t Digit = static_cast<uint64_t>(C - '0');
    if (Value > (Max - Digit) / 10)
      return static_cast<int64_t>(Max);
    Value = Value * 10 + Digit;
  }
  return static_cast<int64_t>(Value);
}

} // namespace

template <typename T, typename... ArgTs> T *Parser::make(ArgTs &&...Args) {
  static_assert(std::is_trivially_destructible_v<T>,
                "the pool never runs destructors");
  return new (Pool.allocate(sizeof(T), alignof(T)))
      T(std::forward<ArgTs>(Args)...);
}

template <typename T>
PoolArray<T> Parser::commit(std::vector<T> &Stack, size_t Mark) {
  size_t N = Stack.size() - Mark;
  if (N == 0)
    return {};
  T *Data = Pool.allocArray<T>(N);
  std::uninitialized_copy(Stack.begin() + Mark, Stack.end(), Data);
  Stack.resize(Mark);
  return PoolArray<T>(Data, static_cast<uint32_t>(N));
}

std::string_view Parser::own(std::string_view Text) {
  std::less_equal<const char *> LessEq;
  if (LessEq(Source.data(), Text.data()) &&
      LessEq(Text.data() + Text.size(), Source.data() + Source.size()))
    return Text;
  char *Copy = Pool.allocArray<char>(Text.size());
  std::memcpy(Copy, Text.data(), Text.size());
  return {Copy, Text.size()};
}

bool Parser::match(TokenKind Kind) {
  if (!check(Kind))
    return false;
  ++Pos;
  return true;
}

bool Parser::expect(TokenKind Kind, const char *Context) {
  if (match(Kind))
    return true;
  Diags.error(peek().Line, peek().Column,
              std::string("expected ") + tokenKindName(Kind) + " " + Context +
                  ", found " + tokenKindName(peek().Kind));
  return false;
}

void Parser::synchronizeToClassBoundary() {
  while (!check(TokenKind::EndOfFile) && !check(TokenKind::KwClass))
    ++Pos;
}

void Parser::nestingError(const Token &At, const char *What,
                          const char *Unit) {
  Diags.error(At.Line, At.Column,
              std::string(What) + " " + std::to_string(MaxNestingDepth) +
                  " " + Unit);
}

std::optional<Module> Parser::parse(std::string_view Source,
                                    std::string ModuleName,
                                    DiagnosticSink &Diags) {
  Module M;
  M.Name = std::move(ModuleName);
  // One slab holds the source copy and, for typical programs, every node.
  M.Pool = std::make_unique<Arena>(Source.size() * 8 + 1024);
  char *Copy = M.Pool->allocArray<char>(Source.size());
  if (!Source.empty())
    std::memcpy(Copy, Source.data(), Source.size());
  std::string_view Text(Copy, Source.size());
  thread_local Scratch Buffers;
  Lexer(Text, Diags).lexAll(Buffers.Tokens);
  Parser P(Buffers, *M.Pool, Diags);
  P.Source = Text;
  P.parseModule(M);
  // The stacks end every parse empty; only the token buffer keeps the
  // size of the largest source. Cap what an outsized one leaves behind.
  Buffers.Tokens.shrinkTo(1 << 16);
  return M;
}

void Parser::parseModule(Module &M) {
  Classes.clear();
  while (!check(TokenKind::EndOfFile)) {
    // Each class starts from empty stacks, even after a failed one.
    Methods.clear();
    Names.clear();
    Stmts.clear();
    Exprs.clear();
    if (!parseClass())
      synchronizeToClassBoundary();
  }
  M.Classes = commit(Classes, 0);
}

bool Parser::parseClass() {
  if (!expect(TokenKind::KwClass, "at top level"))
    return false;
  ClassDecl Class;
  Class.Line = previous().Line;
  if (!expect(TokenKind::Identifier, "after 'class'"))
    return false;
  Class.Name = previous().Text;
  if (!expect(TokenKind::LBrace, "after class name"))
    return false;
  // Fields and methods interleave; a method's parameters are pushed above
  // the fields seen so far and popped again before the next field.
  size_t FieldMark = Names.size(), MethodMark = Methods.size();
  while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile)) {
    if (match(TokenKind::KwVar)) {
      if (!expect(TokenKind::Identifier, "after 'var' in field declaration"))
        return false;
      Names.push_back(previous().Text);
      if (!expect(TokenKind::Semicolon, "after field name"))
        return false;
      continue;
    }
    if (!parseMethod())
      return false;
  }
  if (!expect(TokenKind::RBrace, "to close class body"))
    return false;
  Class.Fields = commit(Names, FieldMark);
  Class.Methods = commit(Methods, MethodMark);
  Classes.push_back(Class);
  return true;
}

bool Parser::parseMethod() {
  if (!expect(TokenKind::KwDef, "in class body"))
    return false;
  MethodDecl Method;
  Method.Line = previous().Line;
  if (!expect(TokenKind::Identifier, "after 'def'"))
    return false;
  Method.Name = previous().Text;
  if (!expect(TokenKind::LParen, "after method name"))
    return false;
  size_t ParamMark = Names.size();
  if (!check(TokenKind::RParen)) {
    do {
      if (!expect(TokenKind::Identifier, "in parameter list"))
        return false;
      Names.push_back(previous().Text);
    } while (match(TokenKind::Comma));
  }
  if (!expect(TokenKind::RParen, "to close parameter list"))
    return false;
  Method.Params = commit(Names, ParamMark);
  if (!expect(TokenKind::LBrace, "to open method body"))
    return false;
  if (!parseBlock(Method.Body))
    return false;
  Methods.push_back(Method);
  return true;
}

bool Parser::parseBlock(Block &Out) {
  // The opening brace has been consumed by the caller.
  size_t Mark = Stmts.size();
  while (!check(TokenKind::RBrace) && !check(TokenKind::EndOfFile)) {
    const Stmt *S = parseStatement();
    if (!S)
      return false;
    Stmts.push_back(S);
  }
  if (!expect(TokenKind::RBrace, "to close block"))
    return false;
  Out = commit(Stmts, Mark);
  return true;
}

bool Parser::parseNestedBlock(Block &Out) {
  if (BlockDepth >= MaxNestingDepth) {
    nestingError(previous(), "blocks nested deeper than", "levels");
    return false;
  }
  ++BlockDepth;
  bool Ok = parseBlock(Out);
  --BlockDepth;
  return Ok;
}

const Stmt *Parser::parseStatement() {
  int Line = peek().Line;

  if (match(TokenKind::KwVar)) {
    if (!expect(TokenKind::Identifier, "after 'var'"))
      return nullptr;
    std::string_view Name = previous().Text;
    const Expr *Init = nullptr;
    if (match(TokenKind::Assign)) {
      Init = parseExpr();
      if (!Init)
        return nullptr;
    }
    if (!expect(TokenKind::Semicolon, "after variable declaration"))
      return nullptr;
    return make<VarDeclStmt>(Name, Init, Line);
  }

  if (check(TokenKind::KwIf))
    return parseIf();
  if (check(TokenKind::KwWhile))
    return parseWhile();

  if (match(TokenKind::KwReturn)) {
    const Expr *Value = nullptr;
    if (!check(TokenKind::Semicolon)) {
      Value = parseExpr();
      if (!Value)
        return nullptr;
    }
    if (!expect(TokenKind::Semicolon, "after return"))
      return nullptr;
    return make<ReturnStmt>(Value, Line);
  }

  // Expression statement or assignment.
  const Expr *E = parseExpr();
  if (!E)
    return nullptr;
  if (match(TokenKind::Assign)) {
    if (!isa<VarRefExpr>(E) && !isa<FieldReadExpr>(E)) {
      Diags.error(Line, 0, "assignment target must be a variable or field");
      return nullptr;
    }
    const Expr *Value = parseExpr();
    if (!Value)
      return nullptr;
    if (!expect(TokenKind::Semicolon, "after assignment"))
      return nullptr;
    return make<AssignStmt>(E, Value, Line);
  }
  if (!expect(TokenKind::Semicolon, "after expression statement"))
    return nullptr;
  return make<ExprStmt>(E, Line);
}

std::optional<Condition> Parser::parseCondition() {
  Condition Cond;
  Cond.Lhs = parseExpr();
  if (!Cond.Lhs)
    return std::nullopt;
  if (match(TokenKind::EqualEqual))
    Cond.Op = CmpOp::Eq;
  else if (match(TokenKind::NotEqual))
    Cond.Op = CmpOp::Ne;
  else if (match(TokenKind::Less))
    Cond.Op = CmpOp::Lt;
  else if (match(TokenKind::Greater))
    Cond.Op = CmpOp::Gt;
  if (Cond.Op != CmpOp::None) {
    Cond.Rhs = parseExpr();
    if (!Cond.Rhs)
      return std::nullopt;
  }
  return Cond;
}

const Stmt *Parser::parseIf() {
  int Line = peek().Line;
  expect(TokenKind::KwIf, "");
  if (!expect(TokenKind::LParen, "after 'if'"))
    return nullptr;
  auto Cond = parseCondition();
  if (!Cond)
    return nullptr;
  if (!expect(TokenKind::RParen, "to close condition"))
    return nullptr;
  if (!expect(TokenKind::LBrace, "to open 'if' body"))
    return nullptr;
  Block Then;
  if (!parseNestedBlock(Then))
    return nullptr;
  Block Else;
  if (match(TokenKind::KwElse)) {
    if (!expect(TokenKind::LBrace, "to open 'else' body"))
      return nullptr;
    if (!parseNestedBlock(Else))
      return nullptr;
  }
  return make<IfStmt>(*Cond, Then, Else, Line);
}

const Stmt *Parser::parseWhile() {
  int Line = peek().Line;
  expect(TokenKind::KwWhile, "");
  if (!expect(TokenKind::LParen, "after 'while'"))
    return nullptr;
  auto Cond = parseCondition();
  if (!Cond)
    return nullptr;
  if (!expect(TokenKind::RParen, "to close condition"))
    return nullptr;
  if (!expect(TokenKind::LBrace, "to open 'while' body"))
    return nullptr;
  Block Body;
  if (!parseNestedBlock(Body))
    return nullptr;
  return make<WhileStmt>(*Cond, Body, Line);
}

bool Parser::parseArgs(ExprList &Out) {
  // The opening parenthesis has been consumed by the caller.
  if (check(TokenKind::RParen))
    return true;
  if (ArgDepth >= MaxNestingDepth) {
    nestingError(previous(), "argument lists nested deeper than", "levels");
    return false;
  }
  ++ArgDepth;
  size_t Mark = Exprs.size();
  bool Ok = true;
  do {
    const Expr *Arg = parseExpr();
    if (!Arg) {
      Ok = false;
      break;
    }
    Exprs.push_back(Arg);
  } while (match(TokenKind::Comma));
  --ArgDepth;
  if (Ok)
    Out = commit(Exprs, Mark);
  return Ok;
}

const Expr *Parser::parsePrimary() {
  int Line = peek().Line;

  if (match(TokenKind::KwNew)) {
    if (!expect(TokenKind::Identifier, "after 'new'"))
      return nullptr;
    std::string_view ClassName = previous().Text;
    if (!expect(TokenKind::LParen, "after class name in 'new'"))
      return nullptr;
    ExprList Args;
    if (!parseArgs(Args))
      return nullptr;
    if (!expect(TokenKind::RParen, "to close 'new' arguments"))
      return nullptr;
    return make<NewExpr>(ClassName, Args, Line);
  }
  if (match(TokenKind::StringLiteral))
    return make<StringLitExpr>(own(previous().Text), Line);
  if (match(TokenKind::IntLiteral))
    return make<IntLitExpr>(parseDecimal(previous().Text), Line);
  if (match(TokenKind::KwNull))
    return make<NullExpr>(Line);
  if (match(TokenKind::KwThis))
    return make<ThisExpr>(Line);
  if (match(TokenKind::Identifier)) {
    std::string_view Name = previous().Text;
    if (match(TokenKind::LParen)) {
      // Implicit-this call m(args).
      ExprList Args;
      if (!parseArgs(Args))
        return nullptr;
      if (!expect(TokenKind::RParen, "to close call arguments"))
        return nullptr;
      return make<CallExpr>(nullptr, Name, Args, Line);
    }
    return make<VarRefExpr>(Name, Line);
  }
  Diags.error(peek().Line, peek().Column,
              std::string("expected expression, found ") +
                  tokenKindName(peek().Kind));
  return nullptr;
}

const Expr *Parser::parseExpr() {
  const Expr *E = parsePrimary();
  if (!E)
    return nullptr;
  unsigned Links = 0;
  while (match(TokenKind::Dot)) {
    int Line = previous().Line;
    if (Links++ == MaxNestingDepth) {
      nestingError(previous(), "receiver chain longer than", "links");
      return nullptr;
    }
    if (!expect(TokenKind::Identifier, "after '.'"))
      return nullptr;
    std::string_view Member = previous().Text;
    if (match(TokenKind::LParen)) {
      ExprList Args;
      if (!parseArgs(Args))
        return nullptr;
      if (!expect(TokenKind::RParen, "to close call arguments"))
        return nullptr;
      E = make<CallExpr>(E, Member, Args, Line);
    } else {
      E = make<FieldReadExpr>(E, Member, Line);
    }
  }
  return E;
}
