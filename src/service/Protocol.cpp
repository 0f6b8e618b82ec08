//===- Protocol.cpp - Alias-query service protocol ------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include "clients/Taint.h"
#include "clients/Typestate.h"
#include "corpus/Dedup.h"
#include "lang/Diagnostics.h"
#include "support/Hashing.h"
#include "support/JsonEscape.h"
#include "support/Random.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

using namespace uspec;
using namespace uspec::service;

//===----------------------------------------------------------------------===//
// JSON parsing
//===----------------------------------------------------------------------===//

const JsonValue *JsonValue::find(std::string_view Key) const {
  for (const auto &[Name, Value] : Members)
    if (Name == Key)
      return &Value;
  return nullptr;
}

namespace {

/// Recursive-descent JSON parser over a string_view. Positions are byte
/// offsets for error messages; depth is capped by the caller.
class JsonParser {
public:
  JsonParser(std::string_view Text, size_t MaxDepth)
      : Text(Text), MaxDepth(MaxDepth) {}

  bool parse(JsonValue &Out, std::string *Err) {
    if (!parseValue(Out, 0)) {
      if (Err)
        *Err = Error.empty() ? "malformed JSON" : Error;
      return false;
    }
    skipSpace();
    if (Pos != Text.size()) {
      if (Err)
        *Err = "trailing garbage at byte " + std::to_string(Pos);
      return false;
    }
    return true;
  }

private:
  std::string_view Text;
  size_t MaxDepth;
  size_t Pos = 0;
  std::string Error;

  bool fail(const std::string &Message) {
    if (Error.empty())
      Error = Message + " at byte " + std::to_string(Pos);
    return false;
  }

  void skipSpace() {
    while (Pos < Text.size() &&
           (Text[Pos] == ' ' || Text[Pos] == '\t' || Text[Pos] == '\n' ||
            Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return false;
    Pos += Word.size();
    return true;
  }

  bool parseValue(JsonValue &Out, size_t Depth) {
    if (Depth > MaxDepth)
      return fail("nesting too deep");
    skipSpace();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{')
      return parseObject(Out, Depth);
    if (C == '[')
      return parseArray(Out, Depth);
    if (C == '"') {
      Out.TheKind = JsonValue::Kind::String;
      return parseString(Out.StringValue);
    }
    if (literal("true")) {
      Out.TheKind = JsonValue::Kind::Bool;
      Out.BoolValue = true;
      return true;
    }
    if (literal("false")) {
      Out.TheKind = JsonValue::Kind::Bool;
      Out.BoolValue = false;
      return true;
    }
    if (literal("null")) {
      Out.TheKind = JsonValue::Kind::Null;
      return true;
    }
    return parseNumber(Out);
  }

  bool parseObject(JsonValue &Out, size_t Depth) {
    Out.TheKind = JsonValue::Kind::Object;
    ++Pos; // '{'
    skipSpace();
    if (consume('}'))
      return true;
    for (;;) {
      skipSpace();
      if (Pos >= Text.size() || Text[Pos] != '"')
        return fail("expected object key");
      std::string Key;
      if (!parseString(Key))
        return false;
      skipSpace();
      if (!consume(':'))
        return fail("expected ':'");
      JsonValue Value;
      if (!parseValue(Value, Depth + 1))
        return false;
      Out.Members.emplace_back(std::move(Key), std::move(Value));
      skipSpace();
      if (consume(','))
        continue;
      if (consume('}'))
        return true;
      return fail("expected ',' or '}'");
    }
  }

  bool parseArray(JsonValue &Out, size_t Depth) {
    Out.TheKind = JsonValue::Kind::Array;
    ++Pos; // '['
    skipSpace();
    if (consume(']'))
      return true;
    for (;;) {
      JsonValue Item;
      if (!parseValue(Item, Depth + 1))
        return false;
      Out.Items.push_back(std::move(Item));
      skipSpace();
      if (consume(','))
        continue;
      if (consume(']'))
        return true;
      return fail("expected ',' or ']'");
    }
  }

  bool parseString(std::string &Out) {
    ++Pos; // opening quote
    Out.clear();
    while (Pos < Text.size()) {
      unsigned char C = static_cast<unsigned char>(Text[Pos]);
      if (C == '"') {
        ++Pos;
        return true;
      }
      if (C < 0x20)
        return fail("unescaped control character in string");
      if (C != '\\') {
        Out.push_back(static_cast<char>(C));
        ++Pos;
        continue;
      }
      ++Pos; // backslash
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"': Out.push_back('"'); break;
      case '\\': Out.push_back('\\'); break;
      case '/': Out.push_back('/'); break;
      case 'b': Out.push_back('\b'); break;
      case 'f': Out.push_back('\f'); break;
      case 'n': Out.push_back('\n'); break;
      case 'r': Out.push_back('\r'); break;
      case 't': Out.push_back('\t'); break;
      case 'u': {
        unsigned Code = 0;
        if (!parseHex4(Code))
          return false;
        // UTF-16 surrogate pair → one code point.
        if (Code >= 0xD800 && Code <= 0xDBFF) {
          unsigned Low = 0;
          if (Pos + 1 < Text.size() && Text[Pos] == '\\' &&
              Text[Pos + 1] == 'u') {
            Pos += 2;
            if (!parseHex4(Low))
              return false;
          }
          if (Low >= 0xDC00 && Low <= 0xDFFF)
            Code = 0x10000 + ((Code - 0xD800) << 10) + (Low - 0xDC00);
          else
            return fail("invalid surrogate pair");
        } else if (Code >= 0xDC00 && Code <= 0xDFFF) {
          return fail("stray low surrogate");
        }
        appendUtf8(Out, Code);
        break;
      }
      default:
        return fail("invalid escape");
      }
    }
    return fail("unterminated string");
  }

  bool parseHex4(unsigned &Out) {
    if (Pos + 4 > Text.size())
      return fail("truncated \\u escape");
    Out = 0;
    for (int I = 0; I < 4; ++I) {
      char C = Text[Pos++];
      Out <<= 4;
      if (C >= '0' && C <= '9')
        Out |= static_cast<unsigned>(C - '0');
      else if (C >= 'a' && C <= 'f')
        Out |= static_cast<unsigned>(C - 'a' + 10);
      else if (C >= 'A' && C <= 'F')
        Out |= static_cast<unsigned>(C - 'A' + 10);
      else
        return fail("invalid \\u escape");
    }
    return true;
  }

  static void appendUtf8(std::string &Out, unsigned Code) {
    if (Code < 0x80) {
      Out.push_back(static_cast<char>(Code));
    } else if (Code < 0x800) {
      Out.push_back(static_cast<char>(0xC0 | (Code >> 6)));
      Out.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
    } else if (Code < 0x10000) {
      Out.push_back(static_cast<char>(0xE0 | (Code >> 12)));
      Out.push_back(static_cast<char>(0x80 | ((Code >> 6) & 0x3F)));
      Out.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
    } else {
      Out.push_back(static_cast<char>(0xF0 | (Code >> 18)));
      Out.push_back(static_cast<char>(0x80 | ((Code >> 12) & 0x3F)));
      Out.push_back(static_cast<char>(0x80 | ((Code >> 6) & 0x3F)));
      Out.push_back(static_cast<char>(0x80 | (Code & 0x3F)));
    }
  }

  bool parseNumber(JsonValue &Out) {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           ((Text[Pos] >= '0' && Text[Pos] <= '9') || Text[Pos] == '.' ||
            Text[Pos] == 'e' || Text[Pos] == 'E' || Text[Pos] == '+' ||
            Text[Pos] == '-'))
      ++Pos;
    if (Pos == Start)
      return fail("unexpected character");
    std::string Token(Text.substr(Start, Pos - Start));
    char *End = nullptr;
    double Value = std::strtod(Token.c_str(), &End);
    if (End != Token.c_str() + Token.size() || !std::isfinite(Value)) {
      Pos = Start;
      return fail("malformed number");
    }
    Out.TheKind = JsonValue::Kind::Number;
    Out.NumberValue = Value;
    return true;
  }
};

} // namespace

bool service::parseJson(std::string_view Text, JsonValue &Out,
                        std::string *Err, size_t MaxDepth) {
  return JsonParser(Text, MaxDepth).parse(Out, Err);
}

void service::appendJsonString(std::string &Out, std::string_view S) {
  appendJsonQuoted(Out, S); // the shared support/JsonEscape.h escaper
}

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

namespace {

/// Re-serializes the "id" member so the response echoes exactly what the
/// client sent (numbers keep their raw text semantics via %.17g only when
/// integral-precision round-trip is safe; strings re-escape).
std::string renderId(const JsonValue &Id) {
  std::string Out;
  switch (Id.TheKind) {
  case JsonValue::Kind::String:
    appendJsonString(Out, Id.StringValue);
    return Out;
  case JsonValue::Kind::Number: {
    double V = Id.NumberValue;
    if (std::nearbyint(V) == V && std::fabs(V) < 9.0e15) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(V));
      return Buf;
    }
    char Buf[40];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    return Buf;
  }
  default:
    return std::string();
  }
}

bool stringField(const JsonValue &Obj, std::string_view Key, std::string &Out,
                 std::string *Err) {
  const JsonValue *V = Obj.find(Key);
  if (!V)
    return true;
  if (!V->isString()) {
    if (Err)
      *Err = "field \"" + std::string(Key) + "\" must be a string";
    return false;
  }
  Out = V->StringValue;
  return true;
}

bool stringListField(const JsonValue &Obj, std::string_view Key,
                     std::vector<std::string> &Out, std::string *Err) {
  const JsonValue *V = Obj.find(Key);
  if (!V)
    return true;
  if (!V->isArray()) {
    if (Err)
      *Err = "field \"" + std::string(Key) + "\" must be an array of strings";
    return false;
  }
  for (const JsonValue &Item : V->Items) {
    if (!Item.isString()) {
      if (Err)
        *Err =
            "field \"" + std::string(Key) + "\" must be an array of strings";
      return false;
    }
    Out.push_back(Item.StringValue);
  }
  return true;
}

} // namespace

bool service::parseRequest(std::string_view Line, Request &Out,
                           std::string *Err, bool EnableTestVerbs) {
  JsonValue Root;
  if (!parseJson(Line, Root, Err))
    return false;
  if (!Root.isObject()) {
    if (Err)
      *Err = "request must be a JSON object";
    return false;
  }
  if (const JsonValue *Id = Root.find("id"))
    Out.Id = renderId(*Id);

  const JsonValue *VerbV = Root.find("verb");
  if (!VerbV || !VerbV->isString()) {
    if (Err)
      *Err = "missing string field \"verb\"";
    return false;
  }
  const std::string &Name = VerbV->StringValue;
  bool NeedsProgram = false;
  if (Name == "analyze") {
    Out.TheVerb = Verb::Analyze;
    NeedsProgram = true;
  } else if (Name == "alias") {
    Out.TheVerb = Verb::Alias;
    NeedsProgram = true;
  } else if (Name == "specs") {
    Out.TheVerb = Verb::Specs;
  } else if (Name == "typestate") {
    Out.TheVerb = Verb::Typestate;
    NeedsProgram = true;
  } else if (Name == "taint") {
    Out.TheVerb = Verb::Taint;
    NeedsProgram = true;
  } else if (Name == "stats") {
    Out.TheVerb = Verb::Stats;
  } else if (Name == "metrics") {
    Out.TheVerb = Verb::Metrics;
  } else if (Name == "reload") {
    Out.TheVerb = Verb::Reload;
  } else if (Name == "shutdown") {
    Out.TheVerb = Verb::Shutdown;
  } else if (Name == "cachekeys") {
    Out.TheVerb = Verb::CacheKeys;
  } else if (EnableTestVerbs && Name == "test_block") {
    Out.TheVerb = Verb::TestBlock;
  } else {
    if (Err)
      *Err = "unknown verb \"" + Name + "\"";
    return false;
  }

  if (!stringField(Root, "program", Out.Program, Err) ||
      !stringField(Root, "name", Out.Name, Err) ||
      !stringField(Root, "a", Out.A, Err) ||
      !stringField(Root, "b", Out.B, Err) ||
      !stringField(Root, "check", Out.Check, Err) ||
      !stringField(Root, "use", Out.Use, Err) ||
      !stringListField(Root, "sources", Out.Sources, Err) ||
      !stringListField(Root, "sinks", Out.Sinks, Err) ||
      !stringListField(Root, "sanitizers", Out.Sanitizers, Err) ||
      !stringField(Root, "trace_id", Out.TraceId, Err) ||
      !stringField(Root, "path", Out.ModelPath, Err))
    return false;
  if (const JsonValue *Cov = Root.find("coverage")) {
    if (!Cov->isBool()) {
      if (Err)
        *Err = "field \"coverage\" must be a boolean";
      return false;
    }
    Out.Coverage = Cov->BoolValue;
  }
  if (const JsonValue *Nc = Root.find("no_cache")) {
    if (!Nc->isBool()) {
      if (Err)
        *Err = "field \"no_cache\" must be a boolean";
      return false;
    }
    Out.NoCache = Nc->BoolValue;
  }
  if (const JsonValue *Dl = Root.find("deadline_ms")) {
    if (Dl->TheKind != JsonValue::Kind::Number || Dl->NumberValue < 0 ||
        std::floor(Dl->NumberValue) != Dl->NumberValue) {
      if (Err)
        *Err = "field \"deadline_ms\" must be a non-negative integer";
      return false;
    }
    Out.DeadlineMs = static_cast<uint64_t>(Dl->NumberValue);
  }
  if (NeedsProgram && Out.Program.empty()) {
    if (Err)
      *Err = "verb \"" + Name + "\" requires a non-empty \"program\" field";
    return false;
  }
  if (Out.TheVerb == Verb::Alias && (Out.A.empty() || Out.B.empty())) {
    if (Err)
      *Err = "verb \"alias\" requires \"a\" and \"b\" method names";
    return false;
  }
  if (Out.TheVerb == Verb::Typestate && Out.Use.empty()) {
    if (Err)
      *Err = "verb \"typestate\" requires a \"use\" method name";
    return false;
  }
  return true;
}

std::optional<uint64_t> service::scanDeadlineMs(std::string_view Line) {
  // `"` inside JSON string content must be escaped, so this byte sequence
  // can only be the member key itself.
  static constexpr std::string_view Key = "\"deadline_ms\":";
  size_t Pos = Line.find(Key);
  if (Pos == std::string_view::npos)
    return std::nullopt;
  Pos += Key.size();
  while (Pos < Line.size() && (Line[Pos] == ' ' || Line[Pos] == '\t'))
    ++Pos;
  uint64_t Value = 0;
  size_t Digits = 0;
  while (Pos < Line.size() && Line[Pos] >= '0' && Line[Pos] <= '9') {
    Value = Value * 10 + static_cast<uint64_t>(Line[Pos] - '0');
    ++Pos;
    if (++Digits > 15) // absurd deadline; let the real parser reject it
      return std::nullopt;
  }
  if (Digits == 0)
    return std::nullopt;
  return Value;
}

std::string service::scanRequestId(std::string_view Line) {
  static constexpr std::string_view Key = "\"id\":";
  size_t Pos = Line.find(Key);
  if (Pos == std::string_view::npos)
    return "";
  Pos += Key.size();
  while (Pos < Line.size() && (Line[Pos] == ' ' || Line[Pos] == '\t'))
    ++Pos;
  if (Pos >= Line.size())
    return "";
  if (Line[Pos] == '"') {
    // String id: take the quoted token through the closing unescaped quote.
    size_t End = Pos + 1;
    while (End < Line.size() && Line[End] != '"') {
      if (Line[End] == '\\')
        ++End;
      ++End;
    }
    if (End >= Line.size())
      return "";
    return std::string(Line.substr(Pos, End - Pos + 1));
  }
  // Numeric id: the raw token up to a delimiter.
  size_t End = Pos;
  while (End < Line.size() && Line[End] != ',' && Line[End] != '}' &&
         Line[End] != ' ' && Line[End] != '\t')
    ++End;
  std::string Token(Line.substr(Pos, End - Pos));
  // Only accept something that looks like a JSON number; anything else is
  // safer echoed as nothing than as garbage.
  if (Token.empty() ||
      Token.find_first_not_of("-+.eE0123456789") != std::string::npos)
    return "";
  return Token;
}

uint64_t service::retryDelayMs(unsigned Attempt, uint64_t Seed) {
  const uint64_t Base = 10;
  uint64_t Exp = Attempt < 6 ? Attempt : 6;
  uint64_t Delay = Base << Exp;
  Rng Jitter(hashValues(Seed, static_cast<uint64_t>(Attempt)));
  uint64_t Total = Delay + Jitter.below(Delay);
  return Total < MaxRetryDelayMs ? Total : MaxRetryDelayMs;
}

//===----------------------------------------------------------------------===//
// Responses
//===----------------------------------------------------------------------===//

namespace {

/// The shared `{"id":...,"trace_id":...,` envelope prefix; both members are
/// omitted when empty so untraced requests keep their pre-trace bytes.
void appendEnvelopePrefix(std::string &Out, const std::string &Id,
                          std::string_view TraceId) {
  Out += "{";
  if (!Id.empty()) {
    Out += "\"id\":";
    Out += Id;
    Out += ",";
  }
  if (!TraceId.empty()) {
    Out += "\"trace_id\":";
    appendJsonString(Out, TraceId);
    Out += ",";
  }
}

} // namespace

std::string service::okResponse(const std::string &Id,
                                std::string_view Payload,
                                std::string_view TraceId) {
  std::string Out;
  Out.reserve(Payload.size() + Id.size() + TraceId.size() + 48);
  appendEnvelopePrefix(Out, Id, TraceId);
  Out += "\"ok\":true,\"result\":";
  Out += Payload;
  Out += "}";
  return Out;
}

std::optional<std::string_view> service::okPayload(std::string_view Response) {
  static constexpr std::string_view Marker = ",\"ok\":true,\"result\":";
  if (Response.size() < 3 || Response.front() != '{' || Response.back() != '}')
    return std::nullopt;
  size_t Pos;
  if (Response.compare(1, Marker.size() - 1, Marker.substr(1)) == 0)
    Pos = Marker.size();
  else if (Response.compare(1, 11, "\"trace_id\":") == 0 &&
           (Pos = Response.find(Marker, 12)) != std::string_view::npos)
    Pos += Marker.size();
  else
    return std::nullopt;
  if (Pos + 1 >= Response.size())
    return std::nullopt;
  return Response.substr(Pos, Response.size() - Pos - 1);
}

std::string service::errorBody(std::string_view Kind,
                               std::string_view Message) {
  std::string Out = "{\"kind\":";
  appendJsonString(Out, Kind);
  Out += ",\"message\":";
  appendJsonString(Out, Message);
  Out += "}";
  return Out;
}

std::string service::errorResponse(const std::string &Id,
                                   std::string_view Kind,
                                   std::string_view Message,
                                   std::string_view TraceId) {
  std::string Out;
  appendEnvelopePrefix(Out, Id, TraceId);
  Out += "\"ok\":false,\"error\":";
  Out += errorBody(Kind, Message);
  Out += "}";
  return Out;
}

//===----------------------------------------------------------------------===//
// The shared analyze engine
//===----------------------------------------------------------------------===//

ServiceSpecs ServiceSpecs::fromSpecSet(const SpecSet &Specs,
                                       const StringInterner &Strings) {
  ServiceSpecs Out;
  Out.Text = serializeSpecs(Specs, Strings);
  for (const Spec &S : Specs.all())
    Out.Lines.push_back(S.str(Strings));
  return Out;
}

std::optional<ServiceSpecs> ServiceSpecs::fromText(std::string_view Text,
                                                   size_t *BadLine) {
  StringInterner Strings;
  size_t ErrorLine = 0;
  SpecSet Specs = parseSpecs(Text, Strings, &ErrorLine);
  if (ErrorLine) {
    if (BadLine)
      *BadLine = ErrorLine;
    return std::nullopt;
  }
  return fromSpecSet(Specs, Strings);
}

std::optional<ParsedProgram> service::parseProgram(std::string_view Source,
                                                   std::string_view Name,
                                                   std::string *Error) {
  ParsedProgram Out;
  DiagnosticSink Diags;
  std::string DiagName(Name.empty() ? std::string_view("<query>") : Name);
  auto P = parseAndLower(Source, DiagName, Out.Strings, Diags);
  if (!P) {
    if (Error)
      *Error = Diags.render();
    return std::nullopt;
  }
  Out.Program = std::make_unique<IRProgram>(std::move(*P));
  Out.Fingerprint = programFingerprint(*Out.Program);
  return Out;
}

std::shared_ptr<const ProgramAnalysis>
service::finishAnalysis(ParsedProgram &&Parsed, const ServiceSpecs &Specs,
                        bool Coverage, Budget *B) {
  // The IR is read by the analysis only, and dies on return.
  std::unique_ptr<IRProgram> Program = std::move(Parsed.Program);
  auto PA = std::make_shared<ProgramAnalysis>();
  PA->Strings = std::move(Parsed.Strings);
  PA->Fingerprint = Parsed.Fingerprint;
  PA->Coverage = Coverage;
  // Canonical spec text parses into the program's private interner: both the
  // CLI and every service worker intern the same byte sequence after the
  // same program, so symbol numbering — and with it every downstream
  // iteration — is reproduced exactly. Only the analysis reads the parsed
  // set; the entry keeps its size.
  size_t ErrorLine = 0;
  SpecSet Interned = parseSpecs(Specs.Text, PA->Strings, &ErrorLine);
  (void)ErrorLine; // canonical text cannot be malformed
  PA->NumSpecs = Interned.size();
  AnalysisOptions Options;
  Options.ApiAware = !Interned.empty();
  Options.Specs = &Interned;
  Options.CoverageExtension = Coverage;
  Options.StepBudget = B;
  PA->Result = std::make_unique<AnalysisResult>(
      analyzeProgram(*Program, PA->Strings, Options));
  PA->CallSites = groupCallSites(*PA->Result);
  PA->AnalyzeJson = analyzePayload(*PA);
  return PA;
}

//===----------------------------------------------------------------------===//
// Payload serializers
//===----------------------------------------------------------------------===//

namespace {

void appendSize(std::string &Out, size_t N) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%zu", N);
  Out += Buf;
}

void appendU32(std::string &Out, uint32_t N) {
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "%" PRIu32, N);
  Out += Buf;
}

void appendHex64(std::string &Out, uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "\"%016" PRIx64 "\"", V);
  Out += Buf;
}

} // namespace

std::string service::analyzePayload(const ProgramAnalysis &PA) {
  const AnalysisResult &R = *PA.Result;
  const std::vector<CallSite> &Sites = PA.CallSites;

  std::string Out = "{\"specs\":";
  appendSize(Out, PA.NumSpecs);
  Out += ",\"api_aware\":";
  Out += PA.NumSpecs ? "true" : "false";
  Out += ",\"coverage\":";
  Out += PA.Coverage ? "true" : "false";
  Out += ",\"fingerprint\":";
  appendHex64(Out, PA.Fingerprint);
  Out += ",\"events\":";
  appendSize(Out, R.Events.size());
  Out += ",\"objects\":";
  appendSize(Out, R.Objects.size());
  Out += ",\"alias_pairs\":[";
  size_t Pairs = 0;
  for (size_t I = 0; I < Sites.size(); ++I) {
    for (size_t J = I + 1; J < Sites.size(); ++J) {
      if (Sites[I].Ret == InvalidEvent || Sites[J].Ret == InvalidEvent)
        continue;
      if (!R.retMayAlias(Sites[I].Ret, Sites[J].Ret))
        continue;
      if (Pairs)
        Out += ",";
      Out += "{\"a\":";
      appendJsonString(Out, Sites[I].Method.str(PA.Strings));
      Out += ",\"a_site\":";
      appendU32(Out, Sites[I].Site);
      Out += ",\"a_ctx\":";
      appendU32(Out, Sites[I].Ctx);
      Out += ",\"b\":";
      appendJsonString(Out, Sites[J].Method.str(PA.Strings));
      Out += ",\"b_site\":";
      appendU32(Out, Sites[J].Site);
      Out += ",\"b_ctx\":";
      appendU32(Out, Sites[J].Ctx);
      Out += "}";
      ++Pairs;
    }
  }
  Out += "],\"alias_count\":";
  appendSize(Out, Pairs);
  // Appended only on budget exhaustion, so unbounded payloads stay
  // byte-identical to the pre-robustness format.
  if (R.Bounded)
    Out += ",\"bounded\":true";
  Out += "}";
  return Out;
}

std::string service::aliasPayload(const ProgramAnalysis &PA,
                                  const std::string &A,
                                  const std::string &B) {
  const AnalysisResult &R = *PA.Result;
  const std::vector<CallSite> &Sites = PA.CallSites;
  // Const name resolution: a name that never occurs in the program cannot
  // match any call site.
  std::optional<Symbol> SymA = PA.Strings.lookup(A);
  std::optional<Symbol> SymB = PA.Strings.lookup(B);

  std::string Out = "{\"a\":";
  appendJsonString(Out, A);
  Out += ",\"b\":";
  appendJsonString(Out, B);
  size_t CountA = 0, CountB = 0, Pairs = 0;
  std::string PairsJson;
  for (size_t I = 0; I < Sites.size(); ++I) {
    bool IsA = SymA && Sites[I].Method.Name == *SymA;
    bool IsB = SymB && Sites[I].Method.Name == *SymB;
    CountA += IsA;
    CountB += IsB;
    if (!IsA || Sites[I].Ret == InvalidEvent)
      continue;
    for (size_t J = 0; J < Sites.size(); ++J) {
      if (I == J || !SymB || Sites[J].Method.Name != *SymB ||
          Sites[J].Ret == InvalidEvent)
        continue;
      if (!R.retMayAlias(Sites[I].Ret, Sites[J].Ret))
        continue;
      if (Pairs)
        PairsJson += ",";
      PairsJson += "[";
      appendU32(PairsJson, Sites[I].Site);
      PairsJson += ",";
      appendU32(PairsJson, Sites[J].Site);
      PairsJson += "]";
      ++Pairs;
    }
  }
  Out += ",\"a_sites\":";
  appendSize(Out, CountA);
  Out += ",\"b_sites\":";
  appendSize(Out, CountB);
  Out += ",\"may_alias\":";
  Out += Pairs ? "true" : "false";
  Out += ",\"pairs\":[";
  Out += PairsJson;
  Out += "]";
  if (R.Bounded)
    Out += ",\"bounded\":true";
  Out += "}";
  return Out;
}

std::string service::typestatePayload(const ProgramAnalysis &PA,
                                      const std::string &Check,
                                      const std::string &Use) {
  TypestateProtocol Proto;
  Proto.CheckMethod = Check;
  Proto.UseMethod = Use;
  std::vector<TypestateWarning> Warnings =
      checkTypestate(*PA.Result, PA.Strings, Proto);
  std::string Out = "{\"check\":";
  appendJsonString(Out, Check);
  Out += ",\"use\":";
  appendJsonString(Out, Use);
  Out += ",\"warnings\":[";
  for (size_t I = 0; I < Warnings.size(); ++I) {
    if (I)
      Out += ",";
    Out += "{\"site\":";
    appendU32(Out, Warnings[I].Site);
    Out += ",\"ctx\":";
    appendU32(Out, Warnings[I].Ctx);
    Out += "}";
  }
  Out += "],\"count\":";
  appendSize(Out, Warnings.size());
  Out += "}";
  return Out;
}

std::string
service::taintPayload(const ProgramAnalysis &PA,
                      const std::vector<std::string> &Sources,
                      const std::vector<std::string> &Sinks,
                      const std::vector<std::string> &Sanitizers) {
  TaintConfig Config;
  Config.Sources.insert(Sources.begin(), Sources.end());
  Config.Sinks.insert(Sinks.begin(), Sinks.end());
  Config.Sanitizers.insert(Sanitizers.begin(), Sanitizers.end());
  std::vector<TaintFinding> Findings =
      checkTaint(*PA.Result, ResolvedTaintConfig::resolve(Config, PA.Strings));
  std::string Out = "{\"findings\":[";
  for (size_t I = 0; I < Findings.size(); ++I) {
    if (I)
      Out += ",";
    Out += "{\"source_site\":";
    appendU32(Out, Findings[I].SourceSite);
    Out += ",\"sink_site\":";
    appendU32(Out, Findings[I].SinkSite);
    Out += "}";
  }
  Out += "],\"count\":";
  appendSize(Out, Findings.size());
  Out += "}";
  return Out;
}

std::string service::specsPayload(const ServiceSpecs &Specs) {
  std::string Out = "{\"count\":";
  appendSize(Out, Specs.Lines.size());
  Out += ",\"specs\":[";
  for (size_t I = 0; I < Specs.Lines.size(); ++I) {
    if (I)
      Out += ",";
    appendJsonString(Out, Specs.Lines[I]);
  }
  Out += "]}";
  return Out;
}
