//===- service_test.cpp - Tests for the alias-query service --------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
// Covers the resident query service (src/service/): protocol parsing and
// robustness, the shared analyze engine, the byte-identity contract
// (service responses == `uspec analyze --json` at any worker count), the
// sharded result cache, explicit backpressure, graceful drain, and the
// LineServer transport that `serve --socket` and `route` share. All suite
// names start with "Service" so the TSan CI job picks them up.
//
//===----------------------------------------------------------------------===//

#include "core/USpec.h"
#include "corpus/Generator.h"
#include "corpus/Profiles.h"
#include "distrib/Router.h"
#include "service/LineServer.h"
#include "service/Server.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

using namespace uspec;
using namespace uspec::service;

namespace {

/// Deterministic corpus of MiniLang sources.
std::vector<std::string> makeSources(size_t N, uint64_t Seed) {
  LanguageProfile Profile = javaProfile();
  GeneratorConfig Cfg;
  Rng Rand(Seed);
  std::vector<std::string> Out;
  for (size_t I = 0; I < N; ++I)
    Out.push_back(generateProgramSource(Profile, Cfg, Rand));
  return Out;
}

/// The engine `uspec analyze` and the server run: parseProgram, then
/// finishAnalysis.
std::shared_ptr<const ProgramAnalysis>
analyzeSource(std::string_view Source, std::string_view Name,
              const ServiceSpecs &Specs, bool Coverage, std::string *Error) {
  auto Parsed = parseProgram(Source, Name, Error);
  if (!Parsed)
    return nullptr;
  return finishAnalysis(std::move(*Parsed), Specs, Coverage);
}

/// Learns a spec set from \p Sources and canonicalizes it.
ServiceSpecs learnSpecs(const std::vector<std::string> &Sources) {
  StringInterner Strings;
  std::vector<IRProgram> Corpus;
  for (size_t I = 0; I < Sources.size(); ++I) {
    DiagnosticSink Diags;
    auto P = parseAndLower(Sources[I], "p" + std::to_string(I), Strings,
                           Diags);
    EXPECT_TRUE(P.has_value()) << Diags.render();
    if (P)
      Corpus.push_back(std::move(*P));
  }
  USpecLearner Learner(Strings, LearnerConfig());
  LearnResult Result = Learner.learn(Corpus);
  return ServiceSpecs::fromSpecSet(Result.Selected, Strings);
}

std::string analyzeRequest(int Id, const std::string &Program,
                           bool Coverage = false) {
  std::string R = "{\"id\":" + std::to_string(Id) +
                  ",\"verb\":\"analyze\",\"program\":";
  appendJsonString(R, Program);
  if (Coverage)
    R += ",\"coverage\":true";
  R += "}";
  return R;
}

/// A tiny program with a known alias: get/put on one receiver, so the
/// RetSame/RetArg specs learned from the generator corpus apply.
const char *TinyProgram =
    "class Main { def main() { var m = new Cache(); m.put(\"k\", 1); "
    "var a = m.getIfPresent(\"k\"); var b = m.getIfPresent(\"k\"); } }";

} // namespace

//===----------------------------------------------------------------------===//
// Protocol: request parsing
//===----------------------------------------------------------------------===//

TEST(ServiceProtocol, ParsesAnalyzeRequest) {
  Request R;
  std::string Err;
  ASSERT_TRUE(parseRequest("{\"id\":42,\"verb\":\"analyze\","
                           "\"program\":\"class C {}\",\"coverage\":true}",
                           R, &Err))
      << Err;
  EXPECT_EQ(R.Id, "42");
  EXPECT_EQ(R.TheVerb, Verb::Analyze);
  EXPECT_EQ(R.Program, "class C {}");
  EXPECT_TRUE(R.Coverage);
}

TEST(ServiceProtocol, ParsesAllVerbs) {
  struct Case {
    const char *Line;
    Verb Expected;
  } Cases[] = {
      {"{\"verb\":\"alias\",\"program\":\"x\",\"a\":\"get\",\"b\":\"put\"}",
       Verb::Alias},
      {"{\"verb\":\"typestate\",\"program\":\"x\",\"check\":\"hasNext\","
       "\"use\":\"next\"}",
       Verb::Typestate},
      {"{\"verb\":\"taint\",\"program\":\"x\",\"sources\":[\"s\"],"
       "\"sinks\":[\"k\"],\"sanitizers\":[]}",
       Verb::Taint},
      {"{\"verb\":\"specs\"}", Verb::Specs},
      {"{\"verb\":\"stats\"}", Verb::Stats},
      {"{\"verb\":\"shutdown\"}", Verb::Shutdown},
  };
  for (const Case &C : Cases) {
    Request R;
    std::string Err;
    EXPECT_TRUE(parseRequest(C.Line, R, &Err)) << C.Line << ": " << Err;
    EXPECT_EQ(R.TheVerb, C.Expected) << C.Line;
  }
}

TEST(ServiceProtocol, StringIdsAndEscapesSurvive) {
  Request R;
  std::string Err;
  ASSERT_TRUE(parseRequest("{\"id\":\"req-\\u0041\",\"verb\":\"analyze\","
                           "\"program\":\"a\\n\\\"b\\\"\\t\\\\\"}",
                           R, &Err))
      << Err;
  // String ids are echoed JSON-equivalently (re-encoded: A -> A).
  EXPECT_EQ(R.Id, "\"req-A\"");
  EXPECT_EQ(R.Program, "a\n\"b\"\t\\");
}

TEST(ServiceProtocol, RejectsMalformedRequests) {
  const char *Bad[] = {
      "",                                         // empty
      "   ",                                      // whitespace only
      "{",                                        // truncated object
      "null",                                     // not an object
      "[1,2]",                                    // wrong top-level kind
      "{\"verb\":42}",                            // verb not a string
      "{\"verb\":\"frobnicate\"}",                // unknown verb
      "{\"verb\":\"analyze\"}",                   // missing program
      "{\"verb\":\"analyze\",\"program\":7}",     // program not a string
      "{\"verb\":\"alias\",\"program\":\"x\",\"a\":\"g\"}", // missing b
      "{\"verb\":\"typestate\",\"program\":\"x\",\"check\":\"c\"}",
      "{\"verb\":\"taint\",\"program\":\"x\",\"sources\":\"s\"}",
      "{\"verb\":\"specs\"} trailing",            // trailing garbage
      "{\"verb\":\"specs\",}",                    // trailing comma
      "{\"program\":\"x\"}",                      // no verb at all
  };
  for (const char *Line : Bad) {
    Request R;
    std::string Err;
    EXPECT_FALSE(parseRequest(Line, R, &Err)) << "accepted: " << Line;
    EXPECT_FALSE(Err.empty()) << Line;
  }
}

TEST(ServiceProtocol, IdSurvivesSemanticErrors) {
  // Valid JSON with a bad verb still yields the id, so the error response
  // can be correlated by the client.
  Request R;
  std::string Err;
  EXPECT_FALSE(parseRequest("{\"id\":7,\"verb\":\"nope\"}", R, &Err));
  EXPECT_EQ(R.Id, "7");
}

TEST(ServiceProtocol, DepthCapStopsNestingBombs) {
  std::string Bomb(200, '[');
  JsonValue V;
  std::string Err;
  EXPECT_FALSE(parseJson(Bomb, V, &Err));
  EXPECT_FALSE(Err.empty());
}

TEST(ServiceProtocol, TestBlockIsGated) {
  Request R;
  std::string Err;
  EXPECT_FALSE(parseRequest("{\"verb\":\"test_block\"}", R, &Err));
  EXPECT_TRUE(parseRequest("{\"verb\":\"test_block\"}", R, &Err,
                           /*EnableTestVerbs=*/true))
      << Err;
}

TEST(ServiceProtocol, ResponseEnvelopes) {
  EXPECT_EQ(okResponse("7", "{\"x\":1}"),
            "{\"id\":7,\"ok\":true,\"result\":{\"x\":1}}");
  EXPECT_EQ(okResponse("", "{\"x\":1}"),
            "{\"ok\":true,\"result\":{\"x\":1}}");
  EXPECT_EQ(errorResponse("", "overloaded", "queue full"),
            "{\"ok\":false,\"error\":{\"kind\":\"overloaded\","
            "\"message\":\"queue full\"}}");
}

TEST(ServiceProtocol, OkPayloadUndoesTheIdLessEnvelope) {
  for (std::string_view P : {"{\"x\":1}", "\"text\\n\"", "[]", "7"}) {
    EXPECT_EQ(okPayload(okResponse("", P)), P);
    EXPECT_EQ(okPayload(okResponse("", P, "t-1")), P);
    EXPECT_EQ(okPayload(okResponse("", P, "a,\"ok\":true,\"result\":b")), P);
  }
  // Error answers, ids, empty payloads and malformed lines are rejected.
  const std::string Bads[] = {
      errorResponse("", "overloaded", "queue full"),
      errorResponse("", "internal", "x", "t-1"),
      okResponse("7", "{}"),
      "",
      "{}",
      "{\"ok\":true,\"result\":}",
      "{\"trace_id\":\"t\",\"ok\":true,\"result\":}",
      "{\"ok\":true,\"result\":1",
      "\"ok\":true,\"result\":1}",
      "{\"trace_id\":\"t\",\"ok\":false}",
      "{\"ok\":true}"};
  for (const std::string &Bad : Bads)
    EXPECT_EQ(okPayload(Bad), std::nullopt) << Bad;
}

//===----------------------------------------------------------------------===//
// The shared engine
//===----------------------------------------------------------------------===//

TEST(ServiceEngine, SpecsCanonicalizationIsIdempotent) {
  auto Sources = makeSources(20, 0x5E1);
  ServiceSpecs Specs = learnSpecs(Sources);
  ASSERT_FALSE(Specs.empty());
  auto Again = ServiceSpecs::fromText(Specs.Text);
  ASSERT_TRUE(Again.has_value());
  EXPECT_EQ(Again->Text, Specs.Text);
  EXPECT_EQ(Again->Lines, Specs.Lines);
}

TEST(ServiceEngine, AnalyzeSourceIsDeterministic) {
  auto Sources = makeSources(10, 0xABC);
  ServiceSpecs Specs = learnSpecs(Sources);
  for (const std::string &Src : Sources) {
    std::string E1, E2;
    auto A = analyzeSource(Src, "", Specs, false, &E1);
    auto B = analyzeSource(Src, "", Specs, false, &E2);
    ASSERT_TRUE(A && B) << E1 << E2;
    EXPECT_EQ(A->AnalyzeJson, B->AnalyzeJson);
    EXPECT_EQ(A->Fingerprint, B->Fingerprint);
  }
}

TEST(ServiceEngine, ParseFailureIsReported) {
  std::string Err;
  EXPECT_EQ(analyzeSource("class {", "", ServiceSpecs(), false, &Err),
            nullptr);
  EXPECT_FALSE(Err.empty());
}

TEST(ServiceServer, NestingBombsGetParseErrorsAndTheServerLivesOn) {
  // Each far under the 4 MiB line cap; each crashed a worker once.
  std::string Args = "class C { def m() { a.put(";
  std::string Chain = "class C { def m() { a";
  std::string Blocks = "class C { def m() { ";
  for (int I = 0; I < 20000; ++I) {
    Args += "f(";
    Chain += ".b()";
    Blocks += "if (a) { ";
  }
  Args += "a" + std::string(20000, ')') + "); } }";
  Chain += "; } }";
  for (int I = 0; I < 20000; ++I)
    Blocks += "} ";
  Blocks += "} }";

  ServerConfig Cfg;
  Cfg.Workers = 1;
  Server S(Cfg, ServiceSpecs());
  const std::string Expected = S.handle(analyzeRequest(0, TinyProgram));
  int Id = 1;
  for (const std::string *Bomb : {&Args, &Chain, &Blocks}) {
    std::string Refused = S.submit(analyzeRequest(Id, *Bomb)).get();
    EXPECT_EQ(Refused.find("{\"id\":" + std::to_string(Id) +
                           ",\"ok\":false,\"error\":{\"kind\":"
                           "\"parse_error\""),
              0u)
        << Refused;
    EXPECT_NE(Refused.find("256"), std::string::npos) << Refused;
    // The same worker answers the next request.
    std::string Next = S.submit(analyzeRequest(0, TinyProgram)).get();
    EXPECT_EQ(Next, Expected);
    ++Id;
  }
}

//===----------------------------------------------------------------------===//
// Byte-identity: service == engine == CLI, at any worker count
//===----------------------------------------------------------------------===//

TEST(ServiceServer, ByteIdenticalAtAnyWorkerCount) {
  auto Sources = makeSources(12, 0xB17E);
  ServiceSpecs Specs = learnSpecs(Sources);
  ASSERT_FALSE(Specs.empty());

  // The reference: the same engine `uspec analyze --json` calls.
  std::vector<std::string> Expected;
  for (const std::string &Src : Sources) {
    std::string Err;
    auto PA = analyzeSource(Src, "", Specs, false, &Err);
    ASSERT_TRUE(PA) << Err;
    Expected.push_back(PA->AnalyzeJson);
  }

  for (unsigned NumWorkers : {1u, 8u}) {
    ServerConfig Cfg;
    Cfg.Workers = NumWorkers;
    Server S(Cfg, Specs);
    // Submit everything at once (exercises concurrent workers), then two
    // duplicate rounds (exercises both cache paths).
    std::vector<std::future<std::string>> Futures;
    for (int Round = 0; Round < 3; ++Round)
      for (size_t I = 0; I < Sources.size(); ++I)
        Futures.push_back(
            S.submit(analyzeRequest(static_cast<int>(I), Sources[I])));
    for (size_t F = 0; F < Futures.size(); ++F) {
      size_t I = F % Sources.size();
      EXPECT_EQ(Futures[F].get(),
                okResponse(std::to_string(I), Expected[I]))
          << "workers=" << NumWorkers << " request=" << F;
    }
  }
}

TEST(ServiceServer, CacheHitsAreByteExactAndCounted) {
  ServerConfig Cfg;
  Cfg.Workers = 1;
  Server S(Cfg, ServiceSpecs());

  std::string First = S.handle(analyzeRequest(1, TinyProgram));
  EXPECT_EQ(S.metrics().cacheMissCount(), 1u);
  EXPECT_EQ(S.metrics().cacheHitCount(), 0u);

  // Byte-identical resubmission: source-hash memo path.
  std::string Second = S.handle(analyzeRequest(2, TinyProgram));
  EXPECT_EQ(S.metrics().cacheHitCount(), 1u);

  // Whitespace/comment variant: different source hash, same structural
  // fingerprint — served from the fingerprint map, still byte-exact.
  std::string Variant = std::string("// reformatted\n") + TinyProgram;
  std::string Third = S.handle(analyzeRequest(3, Variant));
  EXPECT_EQ(S.metrics().cacheHitCount(), 2u);
  EXPECT_EQ(S.metrics().cacheMissCount(), 1u);

  // Same payload under different ids: strip the envelope and compare.
  auto Payload = [](const std::string &Response) {
    size_t At = Response.find("\"result\":");
    EXPECT_NE(At, std::string::npos) << Response;
    return Response.substr(At);
  };
  EXPECT_EQ(Payload(First), Payload(Second));
  EXPECT_EQ(Payload(First), Payload(Third));

  // Coverage flag is part of the cache key, not a stale-hit source.
  S.handle(analyzeRequest(4, TinyProgram, /*Coverage=*/true));
  EXPECT_EQ(S.metrics().cacheMissCount(), 2u);
}

TEST(ServiceServer, RenamedProgramsGetTheirOwnAnalysis) {
  // Two programs identical up to renaming have one structural fingerprint:
  // it hashes per-request interner ids, assigned in first-occurrence order.
  // The original's JSONObject get/put specs apply; the renamed one's API is
  // unknown, so the two answers differ in their alias pairs.
  const std::string Original =
      "class Main { def main() { var o = new JSONObject(); var x = new Item(); "
      "o.put(\"k\", x); var a = o.get(\"k\"); var b = o.get(\"k\"); } }";
  const std::string Renamed =
      "class Main { def main() { var o = new Registry(); var x = new Item(); "
      "o.store(\"k\", x); var a = o.fetch(\"k\"); var b = o.fetch(\"k\"); } }";
  std::string Err;
  auto PO = parseProgram(Original, "", &Err);
  auto PR = parseProgram(Renamed, "", &Err);
  ASSERT_TRUE(PO && PR) << Err;
  ASSERT_EQ(PO->Fingerprint, PR->Fingerprint);

  ServiceSpecs Specs = learnSpecs(makeSources(12, 0xB17E));
  auto Fresh = [&](const std::string &Program) {
    ServerConfig Cfg;
    Cfg.Workers = 1;
    Server S(Cfg, Specs);
    return S.handle(analyzeRequest(1, Program));
  };
  ASSERT_NE(Fresh(Original), Fresh(Renamed));

  ServerConfig Cfg;
  Cfg.Workers = 1;
  Server S(Cfg, Specs);
  EXPECT_EQ(S.handle(analyzeRequest(1, Original)), Fresh(Original));
  EXPECT_EQ(S.handle(analyzeRequest(1, Renamed)), Fresh(Renamed));
  EXPECT_EQ(S.metrics().cacheMissCount(), 2u);

  // A whitespace/comment variant is still the same program to the cache.
  std::string Variant = std::string("// reformatted\n") + Original;
  EXPECT_EQ(S.handle(analyzeRequest(1, Variant)), Fresh(Original));
  EXPECT_EQ(S.metrics().cacheHitCount(), 1u);
  EXPECT_EQ(S.metrics().cacheMissCount(), 2u);
}

TEST(ServiceServer, QueryVerbsAnswer) {
  auto Sources = makeSources(20, 0x5E1);
  ServiceSpecs Specs = learnSpecs(Sources);
  ServerConfig Cfg;
  Cfg.Workers = 2;
  Server S(Cfg, Specs);

  std::string Req = "{\"verb\":\"alias\",\"program\":";
  appendJsonString(Req, TinyProgram);
  Req += ",\"a\":\"getIfPresent\",\"b\":\"getIfPresent\"}";
  std::string Alias = S.handle(Req);
  EXPECT_NE(Alias.find("\"ok\":true"), std::string::npos) << Alias;
  EXPECT_NE(Alias.find("\"may_alias\":"), std::string::npos) << Alias;

  std::string SpecsResp = S.handle("{\"verb\":\"specs\"}");
  EXPECT_NE(SpecsResp.find("\"count\":"), std::string::npos) << SpecsResp;

  std::string Stats = S.handle("{\"verb\":\"stats\"}");
  for (const char *Field :
       {"\"workers\":2", "\"queue_capacity\":", "\"completed\":",
        "\"hit_rate\":", "\"p50\":", "\"qps\":"})
    EXPECT_NE(Stats.find(Field), std::string::npos)
        << Field << " missing in " << Stats;

  std::string Ts = "{\"verb\":\"typestate\",\"program\":";
  appendJsonString(Ts, TinyProgram);
  Ts += ",\"check\":\"getIfPresent\",\"use\":\"put\"}";
  EXPECT_NE(S.handle(Ts).find("\"ok\":true"), std::string::npos);

  std::string Taint = "{\"verb\":\"taint\",\"program\":";
  appendJsonString(Taint, TinyProgram);
  Taint += ",\"sources\":[\"getIfPresent\"],\"sinks\":[\"put\"],"
           "\"sanitizers\":[]}";
  EXPECT_NE(S.handle(Taint).find("\"ok\":true"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Robustness: malformed input never crashes, errors are structured
//===----------------------------------------------------------------------===//

TEST(ServiceFuzz, MalformedLinesGetStructuredErrors) {
  ServerConfig Cfg;
  Cfg.Workers = 2;
  Server S(Cfg, ServiceSpecs());

  const char *Nasty[] = {
      "",
      "{",
      "}",
      "nul",
      "{\"verb\":}",
      "{\"verb\":\"analyze\",\"program\":\"class C {\"}", // parse_error
      "{\"verb\":\"analyze\",\"program\":\"\\ud800\"}",   // lone surrogate
      "\x01\x02\xff\xfe binary junk",
      "{\"verb\":\"analyze\",\"program\":\"x\",\"coverage\":\"yes\"}",
      "[[[[[[[[[[[[[[[[",
  };
  for (const char *Line : Nasty) {
    std::string Resp = S.handle(Line);
    EXPECT_NE(Resp.find("\"ok\":false"), std::string::npos)
        << "line: " << Line << " resp: " << Resp;
    EXPECT_NE(Resp.find("\"kind\":\""), std::string::npos) << Resp;
  }

  // The server is still healthy afterwards.
  std::string Resp = S.handle(analyzeRequest(9, TinyProgram));
  EXPECT_NE(Resp.find("\"ok\":true"), std::string::npos) << Resp;
}

TEST(ServiceFuzz, RandomBytesNeverCrash) {
  ServerConfig Cfg;
  Cfg.Workers = 2;
  Server S(Cfg, ServiceSpecs());
  Rng Rand(0xF022);
  for (int I = 0; I < 200; ++I) {
    std::string Line;
    size_t Len = Rand.below(120);
    for (size_t J = 0; J < Len; ++J) {
      // Mostly JSON-ish punctuation so some lines get deep into the parser.
      static const char Alphabet[] =
          "{}[]\",:0123456789.eE+-\\ \tabcdefverbanalyzprogm\xc3\xa9\x01";
      Line += Alphabet[Rand.below(sizeof(Alphabet) - 1)];
    }
    std::string Resp = S.handle(Line);
    EXPECT_NE(Resp.find("\"ok\":false"), std::string::npos)
        << "iteration " << I;
  }
}

TEST(ServiceFuzz, OversizedLinesRejectedUnparsed) {
  ServerConfig Cfg;
  Cfg.Workers = 1;
  Server S(Cfg, ServiceSpecs());
  std::string Huge = analyzeRequest(1, std::string(MaxRequestBytes, 'x'));
  std::string Resp = S.handle(Huge);
  EXPECT_NE(Resp.find("\"kind\":\"oversized\""), std::string::npos) << Resp;
  // No id: the line was never parsed.
  EXPECT_EQ(Resp.find("\"id\""), std::string::npos) << Resp;
}

//===----------------------------------------------------------------------===//
// Backpressure
//===----------------------------------------------------------------------===//

TEST(ServiceBackpressure, FullQueueAnswersOverloaded) {
  ServerConfig Cfg;
  Cfg.Workers = 2;
  Cfg.QueueCapacity = 2;
  Cfg.EnableTestVerbs = true;
  Server S(Cfg, ServiceSpecs());

  // Park both workers on the test gate...
  auto Blocked1 = S.submit("{\"verb\":\"test_block\"}");
  auto Blocked2 = S.submit("{\"verb\":\"test_block\"}");
  // ...wait until both are in flight (queue visibly empty again)...
  for (int Spin = 0; Spin < 2000; ++Spin) {
    if (S.statsJson().find("\"queue_depth\":0") != std::string::npos)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_NE(S.statsJson().find("\"queue_depth\":0"), std::string::npos);

  // ...fill the admission queue to its bound...
  auto Queued1 = S.submit("{\"id\":1,\"verb\":\"specs\"}");
  auto Queued2 = S.submit("{\"id\":2,\"verb\":\"specs\"}");

  // ...and the next submission is rejected immediately, fully formed.
  auto Rejected = S.submit("{\"id\":3,\"verb\":\"specs\"}");
  ASSERT_EQ(Rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  std::string Resp = Rejected.get();
  EXPECT_NE(Resp.find("\"kind\":\"overloaded\""), std::string::npos) << Resp;
  EXPECT_EQ(Resp.rfind("{\"id\":3,", 0), 0u) << Resp;
  EXPECT_GE(S.metrics().overloadedCount(), 1u);

  // Opening the gate lets everything admitted complete normally.
  S.releaseTestGate();
  EXPECT_NE(Blocked1.get().find("\"ok\":true"), std::string::npos);
  EXPECT_NE(Blocked2.get().find("\"ok\":true"), std::string::npos);
  EXPECT_NE(Queued1.get().find("\"ok\":true"), std::string::npos);
  EXPECT_NE(Queued2.get().find("\"ok\":true"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Drain
//===----------------------------------------------------------------------===//

TEST(ServiceDrain, ShutdownCompletesInFlightAndRejectsNew) {
  ServerConfig Cfg;
  Cfg.Workers = 2;
  Server S(Cfg, ServiceSpecs());

  // Some real work before the drain.
  auto Work = S.submit(analyzeRequest(1, TinyProgram));
  std::string Ack = S.handle("{\"id\":99,\"verb\":\"shutdown\"}");
  EXPECT_EQ(Ack, okResponse("99", "{\"draining\":true}"));

  // Admitted work still completes...
  EXPECT_NE(Work.get().find("\"ok\":true"), std::string::npos);
  // ...new work is refused with a structured error...
  std::string Late = S.handle("{\"id\":5,\"verb\":\"specs\"}");
  EXPECT_NE(Late.find("\"kind\":\"shutting_down\""), std::string::npos)
      << Late;
  // ...and the drain itself terminates.
  S.drain();
  EXPECT_TRUE(S.draining());
}

TEST(ServiceDrain, RejectionAfterDrainEchoesTheRequestId) {
  // A request refused at admission is never parsed; its answer still
  // carries the id it was sent with, numeric or string.
  ServerConfig Cfg;
  Cfg.Workers = 1;
  Server S(Cfg, ServiceSpecs());
  S.drain();
  const std::string Why = "server is draining; request rejected";
  EXPECT_EQ(S.handle("{\"id\":10,\"verb\":\"specs\"}"),
            errorResponse("10", "shutting_down", Why));
  EXPECT_EQ(S.handle("{\"verb\":\"specs\",\"id\":\"q-7\"}"),
            errorResponse("\"q-7\"", "shutting_down", Why));
  EXPECT_EQ(S.handle("{\"verb\":\"specs\"}"),
            errorResponse("", "shutting_down", Why));
}

TEST(ServiceDrain, StreamServesInOrderAndDrainsOnShutdown) {
  auto Sources = makeSources(3, 0xD1A);
  ServiceSpecs Specs = learnSpecs(makeSources(20, 0x5E1));

  std::string Input;
  std::vector<std::string> Expected;
  for (size_t I = 0; I < Sources.size(); ++I) {
    Input += analyzeRequest(static_cast<int>(I), Sources[I]);
    Input += '\n';
    std::string Err;
    auto PA = analyzeSource(Sources[I], "", Specs, false, &Err);
    ASSERT_TRUE(PA) << Err;
    Expected.push_back(okResponse(std::to_string(I), PA->AnalyzeJson));
  }
  Input += "{\"id\":9,\"verb\":\"shutdown\"}\n";
  // A line after shutdown races the drain flag: the reader may stop before
  // it (not served), admit it before the flag flips (served normally — a
  // graceful drain completes everything admitted), or get shutting_down.
  Input += "{\"id\":10,\"verb\":\"specs\"}\n";
  Expected.push_back(okResponse("9", "{\"draining\":true}"));

  ServerConfig Cfg;
  Cfg.Workers = 4;
  Server S(Cfg, Specs);
  std::istringstream In(Input);
  std::ostringstream Out;
  EXPECT_EQ(S.serveStream(In, Out), 0);

  std::vector<std::string> Lines;
  std::istringstream Parse(Out.str());
  std::string Line;
  while (std::getline(Parse, Line))
    Lines.push_back(Line);
  ASSERT_GE(Lines.size(), Expected.size());
  ASSERT_LE(Lines.size(), Expected.size() + 1);
  for (size_t I = 0; I < Expected.size(); ++I)
    EXPECT_EQ(Lines[I], Expected[I]) << "line " << I;
  if (Lines.size() == Expected.size() + 1)
    EXPECT_NE(Lines.back().find("\"id\":10"), std::string::npos)
        << Lines.back();
}

//===----------------------------------------------------------------------===//
// Concurrency: mixed verbs from many client threads
//===----------------------------------------------------------------------===//

TEST(ServiceConcurrent, MixedVerbClientsGetConsistentAnswers) {
  auto Sources = makeSources(6, 0xCAFE);
  ServiceSpecs Specs = learnSpecs(Sources);

  std::vector<std::string> Expected;
  for (const std::string &Src : Sources) {
    std::string Err;
    auto PA = analyzeSource(Src, "", Specs, false, &Err);
    ASSERT_TRUE(PA) << Err;
    Expected.push_back(PA->AnalyzeJson);
  }

  ServerConfig Cfg;
  Cfg.Workers = 4;
  Cfg.QueueCapacity = 1024; // roomy: this test is about answers, not limits
  Server S(Cfg, Specs);

  constexpr int ClientThreads = 8, PerClient = 24;
  std::vector<std::thread> Clients;
  std::vector<int> Failures(ClientThreads, 0);
  for (int T = 0; T < ClientThreads; ++T) {
    Clients.emplace_back([&, T] {
      for (int I = 0; I < PerClient; ++I) {
        int Kind = (T + I) % 4;
        std::string Resp;
        if (Kind == 0 || Kind == 1) {
          size_t P = static_cast<size_t>(T + I) % Sources.size();
          Resp = S.handle(analyzeRequest(static_cast<int>(P), Sources[P]));
          if (Resp !=
              okResponse(std::to_string(P), Expected[P]))
            ++Failures[T];
        } else if (Kind == 2) {
          Resp = S.handle("{\"verb\":\"stats\"}");
          if (Resp.find("\"ok\":true") == std::string::npos)
            ++Failures[T];
        } else {
          Resp = S.handle("{\"verb\":\"broken");
          if (Resp.find("\"ok\":false") == std::string::npos)
            ++Failures[T];
        }
      }
    });
  }
  for (std::thread &C : Clients)
    C.join();
  for (int T = 0; T < ClientThreads; ++T)
    EXPECT_EQ(Failures[T], 0) << "client " << T;
  EXPECT_GE(S.metrics().cacheHitCount(), 1u);
}

//===----------------------------------------------------------------------===//
// LineServer: the one socket transport under serve and route
//===----------------------------------------------------------------------===//

namespace {

std::string lineSocketPath(const std::string &Name) {
  return testing::TempDir() + "uspec_ls_" + Name + "_" +
         std::to_string(::getpid()) + ".sock";
}

bool waitForSocket(const std::string &Path) {
  for (int I = 0; I < 500 && ::access(Path.c_str(), F_OK) != 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  return ::access(Path.c_str(), F_OK) == 0;
}

/// A connected client socket with 10 s send/receive timeouts; -1 on error.
int connectClient(const std::string &Path) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  timeval Timeout{10, 0};
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Timeout, sizeof(Timeout));
  ::setsockopt(Fd, SOL_SOCKET, SO_SNDTIMEO, &Timeout, sizeof(Timeout));
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool sendBytes(int Fd, std::string_view Bytes) {
  while (!Bytes.empty()) {
    ssize_t N = ::send(Fd, Bytes.data(), Bytes.size(), MSG_NOSIGNAL);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Bytes.remove_prefix(static_cast<size_t>(N));
  }
  return true;
}

/// Reads \p Count newline-terminated lines (without their newlines); stops
/// early at EOF, an error or the receive timeout.
std::vector<std::string> readLines(int Fd, size_t Count) {
  std::vector<std::string> Lines;
  std::string Pending;
  char Buf[65536];
  while (Lines.size() < Count) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    for (ssize_t I = 0; I < N; ++I) {
      if (Buf[I] != '\n') {
        Pending += Buf[I];
        continue;
      }
      Lines.push_back(std::move(Pending));
      Pending.clear();
    }
  }
  return Lines;
}

/// Sends \p Burst on one connection to \p Path (from a second thread, so
/// neither side can block the other) and reads \p Count answers.
std::vector<std::string> pipelinedAnswers(const std::string &Path,
                                          const std::string &Burst,
                                          size_t Count) {
  int Fd = connectClient(Path);
  if (Fd < 0) {
    ADD_FAILURE() << "cannot connect to " << Path;
    return {};
  }
  std::thread Sender([&] { EXPECT_TRUE(sendBytes(Fd, Burst)); });
  std::vector<std::string> Answers = readLines(Fd, Count);
  Sender.join();
  ::close(Fd);
  return Answers;
}

/// A LineServer answering `[LINE]` on its own thread until destroyed.
struct EchoLineServer {
  std::string Path;
  LineServer Lines;
  std::atomic<bool> Stop{false};
  std::thread T;

  bool start(std::string SockPath, unsigned PollMs = 20) {
    Path = std::move(SockPath);
    if (!Lines.bind(Path))
      return false;
    T = std::thread([this, PollMs] {
      Lines.serve(
          PollMs, [this] { return Stop.load(); },
          [](std::string Line) { return "[" + Line + "]"; });
    });
    return true;
  }

  ~EchoLineServer() {
    Stop = true;
    if (T.joinable())
      T.join();
  }
};

} // namespace

// 500 requests in one burst on one connection: one in flight at a time,
// answered in request order, and `route` answers the same bytes as the
// `serve` replica behind it.
TEST(ServiceLineServer, PipelinedBurstAnsweredInOrderThroughServeAndRoute) {
  std::vector<std::string> Sources = makeSources(25, /*Seed=*/71);
  ServerConfig Cfg;
  Cfg.Workers = 2;
  Cfg.AcceptPollMs = 20;
  Server S(Cfg, learnSpecs(Sources));
  std::string ServePath = lineSocketPath("burst_serve");
  std::thread ServeThread([&] { S.serveUnixSocket(ServePath); });
  ASSERT_TRUE(waitForSocket(ServePath));

  distrib::RouterConfig RCfg;
  RCfg.Replicas = {ServePath};
  RCfg.AcceptPollMs = 20;
  distrib::Router R(RCfg);
  std::string RoutePath = lineSocketPath("burst_route");
  std::thread RouteThread([&] { R.serveUnixSocket(RoutePath, nullptr); });
  ASSERT_TRUE(waitForSocket(RoutePath));

  constexpr int Count = 500;
  std::string Burst;
  for (int I = 0; I < Count; ++I)
    Burst += (I % 2 ? "{\"id\":" + std::to_string(I) + ",\"verb\":\"specs\"}"
                    : analyzeRequest(I, Sources[I % Sources.size()])) +
             "\n";

  std::vector<std::string> Direct = pipelinedAnswers(ServePath, Burst, Count);
  ASSERT_EQ(Direct.size(), static_cast<size_t>(Count));
  for (int I = 0; I < Count; ++I) {
    EXPECT_EQ(Direct[I].rfind("{\"id\":" + std::to_string(I) + ",", 0), 0u)
        << "answer " << I << " out of order: " << Direct[I].substr(0, 80);
    EXPECT_NE(Direct[I].find("\"ok\":true"), std::string::npos) << Direct[I];
  }
  std::vector<std::string> Routed = pipelinedAnswers(RoutePath, Burst, Count);
  EXPECT_EQ(Routed, Direct);

  // A routed shutdown stops the router and drains the replica.
  std::string Resp, Err;
  EXPECT_TRUE(clientRoundTrip(RoutePath, "{\"verb\":\"shutdown\"}", Resp, &Err))
      << Err;
  RouteThread.join();
  ServeThread.join();
}

// `\r\n` endings lose their `\r`; blank lines (also `\r\n` alone) are
// skipped without an answer.
TEST(ServiceLineServer, CrlfEndingsAndBlankLinesAreFramed) {
  EchoLineServer Echo;
  ASSERT_TRUE(Echo.start(lineSocketPath("crlf")));
  std::vector<std::string> Answers =
      pipelinedAnswers(Echo.Path, "a\r\n\r\n\nb\n\r\nc\rd\r\n", 3);
  EXPECT_EQ(Answers, (std::vector<std::string>{"[a]", "[b]", "[c\rd]"}));
}

TEST(ServiceLineServer, RequestDeliveredOneBytePerWrite) {
  EchoLineServer Echo;
  ASSERT_TRUE(Echo.start(lineSocketPath("bytewise")));
  int Fd = connectClient(Echo.Path);
  ASSERT_GE(Fd, 0);
  for (char C : std::string("{\"verb\":\"stats\"}\nsecond\n")) {
    ASSERT_TRUE(sendBytes(Fd, std::string_view(&C, 1)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(readLines(Fd, 2),
            (std::vector<std::string>{"[{\"verb\":\"stats\"}]", "[second]"}));
  ::close(Fd);
}

// Stopping does not wait for an idle client: its reader is woken, and the
// socket file goes with the listener.
TEST(ServiceLineServer, StopWithAnIdleClientIsPromptAndRemovesTheSocket) {
  constexpr unsigned PollMs = 50;
  auto Echo = std::make_unique<EchoLineServer>();
  ASSERT_TRUE(Echo->start(lineSocketPath("stop"), PollMs));
  std::string Path = Echo->Path;
  int Fd = connectClient(Path);
  ASSERT_GE(Fd, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2 * PollMs));

  auto Start = std::chrono::steady_clock::now();
  Echo.reset();
  auto Took = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - Start);
  EXPECT_LT(Took.count(), 10 * PollMs) << "stop took " << Took.count()
                                       << " ms";
  EXPECT_NE(::access(Path.c_str(), F_OK), 0) << "socket file left behind";
  char C;
  EXPECT_EQ(::recv(Fd, &C, 1, 0), 0) << "the idle client was not hung up on";
  ::close(Fd);
}
