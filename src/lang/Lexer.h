//===- Lexer.h - MiniLang lexer --------------------------------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written lexer for MiniLang. Supports `//` line comments, string
/// literals with simple escapes, and decimal integer literals. Tokens view
/// the source text; nothing is copied except the decoded text of a string
/// literal that contains escapes.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_LANG_LEXER_H
#define USPEC_LANG_LEXER_H

#include "lang/Diagnostics.h"
#include "lang/Token.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace uspec {

/// The tokens of one source buffer, ending in an EndOfFile token. Token
/// text views the source, which must outlive the stream, or — for a string
/// literal with escapes — decoded text the stream owns.
class TokenStream {
public:
  size_t size() const { return Tokens.size(); }
  const Token &operator[](size_t I) const { return Tokens[I]; }
  std::vector<Token>::const_iterator begin() const { return Tokens.begin(); }
  std::vector<Token>::const_iterator end() const { return Tokens.end(); }

  /// Frees the token buffer if its capacity exceeds \p MaxTokens: a
  /// reused stream would otherwise keep the size of its largest input.
  void shrinkTo(size_t MaxTokens) {
    if (Tokens.capacity() > MaxTokens)
      std::vector<Token>().swap(Tokens);
  }

private:
  friend class Lexer;
  std::vector<Token> Tokens;
  /// Heap-allocated one by one so views survive growth and moves.
  std::vector<std::unique_ptr<std::string>> Decoded;
};

/// Single-pass lexer over an in-memory buffer.
class Lexer {
public:
  Lexer(std::string_view Source, DiagnosticSink &Diags);

  /// Lexes the whole input. The trailing EndOfFile token is included.
  TokenStream lexAll();

  /// Lexes the whole input into \p Out, replacing what it held but
  /// keeping its capacity, so a caller lexing many sources reuses one
  /// buffer.
  void lexAll(TokenStream &Out);

private:
  Token next(TokenStream &Out);
  Token make(TokenKind Kind, size_t Begin, int Column) const;
  Token lexString(size_t Begin, int Column, TokenStream &Out);
  int column(size_t At) const { return static_cast<int>(At - LineStart) + 1; }

  std::string_view Source;
  DiagnosticSink &Diags;
  size_t Pos = 0;
  int Line = 1;
  size_t LineStart = 0; ///< Offset of the first byte of the current line.
};

} // namespace uspec

#endif // USPEC_LANG_LEXER_H
