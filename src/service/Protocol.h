//===- Protocol.h - Alias-query service protocol ---------------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The newline-delimited JSON protocol of `uspec serve` / `uspec query`,
/// plus the *shared analyze engine*: one deterministic function from
/// (program source, canonical spec text, options) to the analyze JSON
/// payload, used verbatim by both the service's `analyze` verb and the
/// `uspec analyze --json` CLI path so the two cannot drift — byte-identical
/// output is a tested contract, not a convention.
///
/// Requests are one JSON object per line:
///
///   {"id": 1, "verb": "analyze", "program": "<MiniLang source>",
///    "coverage": false}
///   {"verb": "alias", "program": "...", "a": "get", "b": "put"}
///   {"verb": "typestate", "program": "...", "check": "hasNext",
///    "use": "next"}
///   {"verb": "taint", "program": "...", "sources": ["source"],
///    "sinks": ["sink"], "sanitizers": []}
///   {"verb": "specs"}
///   {"verb": "cachekeys"}
///   {"verb": "stats"}
///   {"verb": "metrics"}
///   {"verb": "reload", "path": "model.uspb"}
///   {"verb": "shutdown"}
///
/// Responses echo the request id (when present) and carry either a result
/// or a structured error:
///
///   {"id": 1, "ok": true, "result": {...}}
///   {"id": 1, "ok": false, "error": {"kind": "bad_request",
///                                    "message": "..."}}
///
/// Requests may also carry `"trace_id": "<string>"`, an opaque client
/// correlation token echoed in the response envelope (after the id) and in
/// the server's slow-request log; requests without one get byte-identical
/// envelopes to the pre-trace protocol. The `metrics` verb returns the
/// server's Prometheus text exposition as a JSON string result.
///
/// Error kinds: bad_request (malformed JSON / missing fields), oversized
/// (request line over the configured byte cap — reported without an id,
/// the line is never parsed), parse_error (program diagnostics),
/// overloaded (admission queue full, no id for the same reason; or a
/// router that cannot make a socket to a replica, with the id),
/// shutting_down (submitted after drain began), deadline_exceeded (the
/// request's `deadline_ms` — or the server's `--request-timeout` default —
/// elapsed before a result was produced; see DESIGN.md §10), reload_failed
/// (the `reload` verb could not load/validate the new model; the old model
/// keeps serving), internal (worker fault; the request is answered, the
/// pool replaces the worker).
///
/// Requests may carry `"deadline_ms": N` (milliseconds from admission).
/// Write the key canonically (no space before the colon): the server also
/// detects it by raw-byte scan at admission so that requests stuck in the
/// queue time out without being parsed.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_SERVICE_PROTOCOL_H
#define USPEC_SERVICE_PROTOCOL_H

#include "eventgraph/EventGraph.h"
#include "ir/Lowering.h"
#include "specs/SpecIO.h"
#include "support/Budget.h"

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace uspec {
namespace service {

//===----------------------------------------------------------------------===//
// Minimal JSON (no external dependencies)
//===----------------------------------------------------------------------===//

/// A parsed JSON value. Strings are unescaped; numbers are kept as doubles
/// (request ids are echoed from their raw text, so 64-bit ids survive).
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind TheKind = Kind::Null;
  bool BoolValue = false;
  double NumberValue = 0;
  std::string StringValue;
  std::vector<JsonValue> Items;
  std::vector<std::pair<std::string, JsonValue>> Members;

  bool isString() const { return TheKind == Kind::String; }
  bool isObject() const { return TheKind == Kind::Object; }
  bool isArray() const { return TheKind == Kind::Array; }
  bool isBool() const { return TheKind == Kind::Bool; }

  /// First member named \p Key, or nullptr.
  const JsonValue *find(std::string_view Key) const;
};

/// Parses \p Text as one JSON document (trailing whitespace allowed,
/// trailing garbage rejected). On failure returns false and describes the
/// problem in \p Err. Nesting is capped at \p MaxDepth.
bool parseJson(std::string_view Text, JsonValue &Out, std::string *Err,
               size_t MaxDepth = 64);

/// Appends \p S as a quoted, escaped JSON string literal.
void appendJsonString(std::string &Out, std::string_view S);

//===----------------------------------------------------------------------===//
// Requests
//===----------------------------------------------------------------------===//

enum class Verb {
  Analyze,
  Alias,
  Specs,
  Typestate,
  Taint,
  Stats,
  Metrics, ///< Prometheus text exposition (as a JSON string result).
  Reload,  ///< Hot-swap the model from `path` (default: the path the server
           ///< loaded at startup). Zero-downtime: in-flight requests finish
           ///< under their admission-time generation.
  Shutdown,
  CacheKeys, ///< Exports the fingerprint keys resident in the result cache
             ///< (hottest first, capped) — the router's warm-cache handoff
             ///< uses it to verify a rejoined replica serves warm.
  TestBlock, ///< Test-only (ServerConfig::EnableTestVerbs): parks a worker
             ///< until Server::releaseTestGate(), for backpressure tests.
};

/// One decoded request.
struct Request {
  /// Raw JSON token of the "id" member ("" when absent), echoed verbatim in
  /// the response so numeric precision and string ids survive.
  std::string Id;
  Verb TheVerb = Verb::Stats;
  std::string Program; ///< MiniLang source (analyze/alias/typestate/taint).
  std::string Name;    ///< Optional program name for diagnostics.
  bool Coverage = false;
  /// `"no_cache":true` — answer without inserting into the result cache.
  /// The router's hedged requests carry it so a non-owner replica never
  /// pollutes its cache partition (cache *hits* still apply: hits are
  /// byte-identical by contract, only insertion is suppressed).
  bool NoCache = false;
  std::string A, B;        ///< alias: method names to test.
  std::string Check, Use;  ///< typestate protocol.
  std::vector<std::string> Sources, Sinks, Sanitizers; ///< taint policy.
  /// Per-request deadline in milliseconds from admission (0 = none; the
  /// server default from `serve --request-timeout` applies instead).
  uint64_t DeadlineMs = 0;
  /// Opaque client correlation token ("" when absent), echoed in the
  /// response envelope and the slow-request log.
  std::string TraceId;
  /// reload: artifact/spec path to load ("" = the server's startup path).
  std::string ModelPath;
};

/// Parses one request line. On failure returns false with a message in
/// \p Err; if the line was valid JSON with an id, the id is still returned
/// in \p Out.Id so the error response can echo it.
bool parseRequest(std::string_view Line, Request &Out, std::string *Err,
                  bool EnableTestVerbs = false);

/// Best-effort raw-byte scan of an unparsed request line for a
/// `"deadline_ms":N` member, so admission can register a watchdog deadline
/// without paying a JSON parse. Sound against false positives: inside a
/// JSON string a literal `"` must be escaped, so the exact byte sequence
/// `"deadline_ms":` cannot occur in string content. Misses non-canonical
/// spellings (`"deadline_ms" : N`) — the worker-side parse still applies
/// those cooperatively.
std::optional<uint64_t> scanDeadlineMs(std::string_view Line);

/// Best-effort raw-byte scan for the request's `"id":` token (same
/// soundness argument). Returns the raw token ("" when absent/unscannable)
/// for echoing in watchdog-issued error responses.
std::string scanRequestId(std::string_view Line);

//===----------------------------------------------------------------------===//
// Responses
//===----------------------------------------------------------------------===//

/// `{"id":ID,"trace_id":"TID","ok":true,"result":PAYLOAD}` (id and
/// trace_id omitted when empty — a request without them gets the exact
/// pre-trace envelope bytes). The payload is embedded verbatim — clients
/// can recover it byte-exactly by stripping the fixed envelope.
std::string okResponse(const std::string &Id, std::string_view Payload,
                       std::string_view TraceId = {});

/// Undoes okResponse for an id-less success: PAYLOAD of
/// `{"ok":true,"result":PAYLOAD}` or `{"trace_id":"TID","ok":true,
/// "result":PAYLOAD}`, byte-exact; nullopt for any other line (an error
/// answer, an id, a malformed or empty payload).
std::optional<std::string_view> okPayload(std::string_view Response);

/// `{"kind":KIND,"message":MESSAGE}` — the error body, also printed by
/// `uspec analyze --json` on failure (inside `{"error":...}`).
std::string errorBody(std::string_view Kind, std::string_view Message);

/// `{"id":ID,"trace_id":"TID","ok":false,"error":BODY}` (id and trace_id
/// omitted when empty).
std::string errorResponse(const std::string &Id, std::string_view Kind,
                          std::string_view Message,
                          std::string_view TraceId = {});

/// Cap on one request line, enforced by `serve` and `route` alike.
inline constexpr size_t MaxRequestBytes = size_t(4) << 20;

//===----------------------------------------------------------------------===//
// The shared analyze engine
//===----------------------------------------------------------------------===//

/// The specification set a service (or one `analyze --json` run) answers
/// queries under, held in *canonical text form*: whatever the specs came
/// from (USPB artifact or text file), they are re-serialized through
/// serializeSpecs, so every consumer re-parses the same bytes and interning
/// order — a precondition of the byte-identity contract.
struct ServiceSpecs {
  std::string Text;                ///< Canonical serializeSpecs output.
  std::vector<std::string> Lines;  ///< One rendered spec per entry.

  bool empty() const { return Lines.empty(); }

  /// Canonicalizes an in-memory set.
  static ServiceSpecs fromSpecSet(const SpecSet &Specs,
                                  const StringInterner &Strings);

  /// Parses + re-canonicalizes user-supplied spec text. Returns nullopt on
  /// a malformed line (1-based number in \p BadLine).
  static std::optional<ServiceSpecs> fromText(std::string_view Text,
                                              size_t *BadLine = nullptr);
};

/// A parsed + lowered program with its own private interner — the unit of
/// work between admission and analysis. Self-contained: nothing in it
/// references server-global mutable state, so cache-miss handling never
/// contends on an interner lock.
struct ParsedProgram {
  StringInterner Strings;
  std::unique_ptr<IRProgram> Program;
  uint64_t Fingerprint = 0; ///< corpus/Dedup.h structural fingerprint.
};

/// Parses and lowers \p Source. On failure returns nullopt with rendered
/// diagnostics in \p Error.
std::optional<ParsedProgram> parseProgram(std::string_view Source,
                                          std::string_view Name,
                                          std::string *Error);

/// One fully analyzed program: the immutable value held by the service
/// cache. After construction it is only ever read (possibly by many worker
/// threads at once), never mutated.
struct ProgramAnalysis {
  StringInterner Strings;
  uint64_t Fingerprint = 0;
  size_t NumSpecs = 0; ///< Size of the spec set the analysis ran under.
  bool Coverage = false;
  std::unique_ptr<AnalysisResult> Result;
  std::vector<CallSite> CallSites; ///< groupCallSites(*Result).
  std::string AnalyzeJson;         ///< Memoized analyze payload.
};

/// Runs the API-aware (or unaware, when \p Specs is empty) analysis over an
/// already parsed program and renders the analyze payload. Deterministic:
/// the result depends only on (program structure, Specs.Text, Coverage).
/// A non-null \p B bounds the analysis; an exhausted run yields a payload
/// with `"bounded":true` and ⊤ alias answers (never cached by the server).
std::shared_ptr<const ProgramAnalysis>
finishAnalysis(ParsedProgram &&Parsed, const ServiceSpecs &Specs,
               bool Coverage, Budget *B = nullptr);

/// Hard ceiling on one retry/backoff delay: base + jitter never exceeds
/// this, so a long retry loop (or a supervisor respawn schedule built on
/// retryDelayMs) waits at most ~1 s between attempts.
constexpr uint64_t MaxRetryDelayMs = 1000;

/// Deterministic exponential backoff with seeded jitter for `uspec query
/// --retries`: base 10 ms doubling per attempt (capped at 2^6), plus a
/// jitter of up to the base delay drawn from Rng(hash(Seed, Attempt)) — the
/// same (Seed, Attempt) always yields the same delay. The total is clamped
/// at MaxRetryDelayMs.
uint64_t retryDelayMs(unsigned Attempt, uint64_t Seed);

//===----------------------------------------------------------------------===//
// Payload serializers (one per verb; analyze's is memoized in
// ProgramAnalysis::AnalyzeJson)
//===----------------------------------------------------------------------===//

/// `{"specs":N,"api_aware":B,"coverage":B,"fingerprint":"hex","events":N,
///   "objects":N,"alias_pairs":[{"a":"C.m/1","a_site":S,"a_ctx":C,
///   "b":...},...],"alias_count":N}` — pairs in event-graph call-site
/// order, the same enumeration `uspec analyze` prints as text.
std::string analyzePayload(const ProgramAnalysis &PA);

/// May-alias between return values of call sites whose method *name*
/// matches \p A / \p B.
std::string aliasPayload(const ProgramAnalysis &PA, const std::string &A,
                         const std::string &B);

/// Type-state warnings under the service spec set.
std::string typestatePayload(const ProgramAnalysis &PA,
                             const std::string &Check,
                             const std::string &Use);

/// Taint findings under the service spec set.
std::string taintPayload(const ProgramAnalysis &PA,
                         const std::vector<std::string> &Sources,
                         const std::vector<std::string> &Sinks,
                         const std::vector<std::string> &Sanitizers);

/// The server's spec set: `{"count":N,"specs":["RetSame(...)", ...]}`.
std::string specsPayload(const ServiceSpecs &Specs);

} // namespace service
} // namespace uspec

#endif // USPEC_SERVICE_PROTOCOL_H
