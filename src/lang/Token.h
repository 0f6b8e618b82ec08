//===- Token.h - MiniLang token definitions --------------------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Token kinds and the Token value type for MiniLang, the small
/// object-oriented language this reproduction uses in place of the paper's
/// Java/Python corpus (see DESIGN.md §2).
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_LANG_TOKEN_H
#define USPEC_LANG_TOKEN_H

#include <cstdint>
#include <string_view>

namespace uspec {

enum class TokenKind : uint8_t {
  EndOfFile,
  Identifier,
  StringLiteral,
  IntLiteral,
  // Keywords.
  KwClass,
  KwDef,
  KwVar,
  KwNew,
  KwIf,
  KwElse,
  KwWhile,
  KwReturn,
  KwNull,
  KwThis,
  // Punctuation.
  LBrace,
  RBrace,
  LParen,
  RParen,
  Comma,
  Semicolon,
  Dot,
  Assign,    // =
  EqualEqual,
  NotEqual,
  Less,
  Greater,
  Error,
};

/// Returns a human-readable name for \p Kind ("identifier", "'{'", ...).
const char *tokenKindName(TokenKind Kind);

/// A single lexed token with its source location (1-based line/column).
/// Trivially copyable: the text is a view, not a copy.
struct Token {
  TokenKind Kind = TokenKind::EndOfFile;
  int Line = 0;
  int Column = 0;
  /// Identifier spelling or literal value (unquoted). A view into the
  /// source, except for a string literal with escapes, whose decoded text
  /// lives in the TokenStream that holds the token.
  std::string_view Text;

  bool is(TokenKind K) const { return Kind == K; }
};

} // namespace uspec

#endif // USPEC_LANG_TOKEN_H
