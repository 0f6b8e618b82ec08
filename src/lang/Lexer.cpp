//===- Lexer.cpp - MiniLang lexer ------------------------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"

#include <array>

using namespace uspec;

const char *uspec::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::EndOfFile:
    return "end of file";
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::StringLiteral:
    return "string literal";
  case TokenKind::IntLiteral:
    return "integer literal";
  case TokenKind::KwClass:
    return "'class'";
  case TokenKind::KwDef:
    return "'def'";
  case TokenKind::KwVar:
    return "'var'";
  case TokenKind::KwNew:
    return "'new'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwReturn:
    return "'return'";
  case TokenKind::KwNull:
    return "'null'";
  case TokenKind::KwThis:
    return "'this'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Semicolon:
    return "';'";
  case TokenKind::Dot:
    return "'.'";
  case TokenKind::Assign:
    return "'='";
  case TokenKind::EqualEqual:
    return "'=='";
  case TokenKind::NotEqual:
    return "'!='";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::Greater:
    return "'>'";
  case TokenKind::Error:
    return "invalid token";
  }
  return "unknown";
}

namespace {

bool isDigit(char C) { return C >= '0' && C <= '9'; }

/// Identifier characters: ASCII letters, digits and '_' (what the C
/// locale's isalnum accepts, plus '_'), as a table so the hot loop does one
/// load per byte.
constexpr auto IdentChars = [] {
  std::array<bool, 256> Table{};
  for (int C = 0; C < 256; ++C)
    Table[C] = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
               (C >= '0' && C <= '9') || C == '_';
  return Table;
}();

bool isIdentChar(char C) { return IdentChars[static_cast<unsigned char>(C)]; }

/// Keyword kind of \p Text, or Identifier: a switch on the length, then
/// one comparison per candidate.
TokenKind keywordKind(std::string_view Text) {
  switch (Text.size()) {
  case 2:
    if (Text == "if")
      return TokenKind::KwIf;
    break;
  case 3:
    if (Text == "def")
      return TokenKind::KwDef;
    if (Text == "var")
      return TokenKind::KwVar;
    if (Text == "new")
      return TokenKind::KwNew;
    break;
  case 4:
    if (Text == "else")
      return TokenKind::KwElse;
    if (Text == "null")
      return TokenKind::KwNull;
    if (Text == "this")
      return TokenKind::KwThis;
    break;
  case 5:
    if (Text == "class")
      return TokenKind::KwClass;
    if (Text == "while")
      return TokenKind::KwWhile;
    break;
  case 6:
    if (Text == "return")
      return TokenKind::KwReturn;
    break;
  default:
    break;
  }
  return TokenKind::Identifier;
}

} // namespace

Lexer::Lexer(std::string_view Source, DiagnosticSink &Diags)
    : Source(Source), Diags(Diags) {}

Token Lexer::make(TokenKind Kind, size_t Begin, int TokColumn) const {
  Token Tok;
  Tok.Kind = Kind;
  Tok.Line = Line;
  Tok.Column = TokColumn;
  Tok.Text = Source.substr(Begin, Pos - Begin);
  return Tok;
}

Token Lexer::lexString(size_t Begin, int TokColumn, TokenStream &Out) {
  const int TokLine = Line;
  const size_t ContentBegin = Begin + 1;
  Pos = ContentBegin;
  // Escape-free literals (nearly all) view the source; the first escape
  // switches to decoding into storage the stream owns.
  std::string *Decoded = nullptr;
  auto Finish = [&](TokenKind Kind) {
    Token Tok;
    Tok.Kind = Kind;
    Tok.Line = TokLine;
    Tok.Column = TokColumn;
    Tok.Text = Decoded ? std::string_view(*Decoded)
                       : Source.substr(ContentBegin, Pos - ContentBegin);
    return Tok;
  };
  while (Pos < Source.size() && Source[Pos] != '"') {
    char C = Source[Pos++];
    if (C == '\\' && Pos < Source.size()) {
      if (!Decoded) {
        Out.Decoded.push_back(std::make_unique<std::string>(
            Source.substr(ContentBegin, Pos - 1 - ContentBegin)));
        Decoded = Out.Decoded.back().get();
      }
      char Escaped = Source[Pos++];
      switch (Escaped) {
      case 'n':
        *Decoded += '\n';
        break;
      case 't':
        *Decoded += '\t';
        break;
      case '\n':
        ++Line;
        LineStart = Pos;
        *Decoded += '\n';
        break;
      default: // '"', '\\' and any other character stand for themselves
        *Decoded += Escaped;
        break;
      }
      continue;
    }
    if (C == '\n') {
      Token Tok = Finish(TokenKind::Error);
      ++Line;
      LineStart = Pos;
      Diags.error(TokLine, TokColumn, "unterminated string literal");
      return Tok;
    }
    if (Decoded)
      *Decoded += C;
  }
  if (Pos >= Source.size()) {
    Diags.error(TokLine, TokColumn, "unterminated string literal");
    return Finish(TokenKind::Error);
  }
  Token Tok = Finish(TokenKind::StringLiteral);
  ++Pos; // closing quote
  return Tok;
}

Token Lexer::next(TokenStream &Out) {
  // Trivia: whitespace and `//` comments.
  while (Pos < Source.size()) {
    char C = Source[Pos];
    if (C == ' ' || C == '\t' || C == '\r') {
      ++Pos;
    } else if (C == '\n') {
      ++Pos;
      ++Line;
      LineStart = Pos;
    } else if (C == '/' && Pos + 1 < Source.size() && Source[Pos + 1] == '/') {
      while (Pos < Source.size() && Source[Pos] != '\n')
        ++Pos;
    } else {
      break;
    }
  }

  const size_t Begin = Pos;
  const int TokColumn = column(Pos);
  if (Pos >= Source.size())
    return make(TokenKind::EndOfFile, Begin, TokColumn);

  char C = Source[Pos];
  if (isIdentChar(C) && !isDigit(C)) {
    while (Pos < Source.size() && isIdentChar(Source[Pos]))
      ++Pos;
    return make(keywordKind(Source.substr(Begin, Pos - Begin)), Begin,
                TokColumn);
  }
  if (C == '"')
    return lexString(Begin, TokColumn, Out);
  if (isDigit(C)) {
    while (Pos < Source.size() && isDigit(Source[Pos]))
      ++Pos;
    return make(TokenKind::IntLiteral, Begin, TokColumn);
  }

  ++Pos;
  switch (C) {
  case '{':
    return make(TokenKind::LBrace, Begin, TokColumn);
  case '}':
    return make(TokenKind::RBrace, Begin, TokColumn);
  case '(':
    return make(TokenKind::LParen, Begin, TokColumn);
  case ')':
    return make(TokenKind::RParen, Begin, TokColumn);
  case ',':
    return make(TokenKind::Comma, Begin, TokColumn);
  case ';':
    return make(TokenKind::Semicolon, Begin, TokColumn);
  case '.':
    return make(TokenKind::Dot, Begin, TokColumn);
  case '<':
    return make(TokenKind::Less, Begin, TokColumn);
  case '>':
    return make(TokenKind::Greater, Begin, TokColumn);
  case '=':
    if (Pos < Source.size() && Source[Pos] == '=') {
      ++Pos;
      return make(TokenKind::EqualEqual, Begin, TokColumn);
    }
    return make(TokenKind::Assign, Begin, TokColumn);
  case '!':
    if (Pos < Source.size() && Source[Pos] == '=') {
      ++Pos;
      return make(TokenKind::NotEqual, Begin, TokColumn);
    }
    break;
  default:
    break;
  }
  Diags.error(Line, TokColumn,
              std::string("unexpected character '") + C + "'");
  return make(TokenKind::Error, Begin, TokColumn);
}

TokenStream Lexer::lexAll() {
  TokenStream Out;
  lexAll(Out);
  return Out;
}

void Lexer::lexAll(TokenStream &Out) {
  Out.Tokens.clear();
  Out.Decoded.clear();
  // MiniLang averages about three source bytes per token.
  Out.Tokens.reserve(Source.size() / 2 + 2);
  while (true) {
    Out.Tokens.push_back(next(Out));
    if (Out.Tokens.back().is(TokenKind::EndOfFile))
      break;
  }
}
