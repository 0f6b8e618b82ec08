//===- obs_test.cpp - Fleet observability ---------------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
// Pins the DESIGN.md §16 contracts:
//
//   - The structured event log writes schema-versioned JSONL with a
//     gap-free per-process sequence, rotates at the size cap, and costs
//     one relaxed atomic load when disarmed.
//   - `uspec obs stitch` merges per-process trace shards onto the shared
//     steady-clock timeline, names every pid, and links router forwards to
//     replica request spans by trace id (flow events).
//   - Hedged routed responses echo the client's trace_id byte-identically
//     to a direct replica answer — observability never perturbs payloads.
//   - The Prometheus exposition stays valid at the edges: empty
//     histograms, metric-name grammar, and counters too large for a float
//     mantissa all round-trip.
//
//===----------------------------------------------------------------------===//

#include "distrib/Router.h"
#include "service/LineServer.h"
#include "service/Metrics.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "support/EventLog.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace uspec;

namespace {

std::string readWholeFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

void writeWholeFile(const std::string &Path, const std::string &Content) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Content;
}

std::string scratchDir(const std::string &Name) {
  std::string Dir = testing::TempDir() + "uspec_obs_" + Name + "_" +
                    std::to_string(getpid());
  std::string Cmd = "rm -rf " + Dir + " && mkdir -p " + Dir;
  if (std::system(Cmd.c_str()) != 0)
    ADD_FAILURE() << "cannot create scratch dir " << Dir;
  return Dir;
}

struct RunResult {
  int ExitCode = -1;
  std::string Output;
};

RunResult runCli(const std::string &ArgString) {
  std::string Full = std::string(USPEC_CLI_PATH) + " " + ArgString + " 2>&1";
  RunResult R;
  FILE *Pipe = popen(Full.c_str(), "r");
  if (!Pipe) {
    ADD_FAILURE() << "popen failed for: " << Full;
    return R;
  }
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    R.Output.append(Buf, N);
  int Status = pclose(Pipe);
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

/// Parses every line of a JSONL event log (skipping blanks), failing the
/// test on any line that is not one JSON object.
std::vector<service::JsonValue> parseEventLog(const std::string &Path) {
  std::vector<service::JsonValue> Events;
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    service::JsonValue Doc;
    std::string Err;
    EXPECT_TRUE(service::parseJson(Line, Doc, &Err))
        << "bad event line: " << Line << ": " << Err;
    Events.push_back(std::move(Doc));
  }
  return Events;
}

double numberOf(const service::JsonValue &Doc, const char *Key) {
  const service::JsonValue *V = Doc.find(Key);
  if (!V || V->TheKind != service::JsonValue::Kind::Number) {
    ADD_FAILURE() << "missing number member " << Key;
    return -1;
  }
  return V->NumberValue;
}

std::string stringOf(const service::JsonValue &Doc, const char *Key) {
  const service::JsonValue *V = Doc.find(Key);
  return V && V->isString() ? V->StringValue : std::string();
}

} // namespace

//===----------------------------------------------------------------------===//
// ObsEventLog: JSONL schema, sequencing, rotation, disarmed cost
//===----------------------------------------------------------------------===//

TEST(ObsEventLog, DisarmedEmitIsANoOp) {
  ASSERT_FALSE(events::enabled());
  events::emit("ignored", {{"k", "v"}}); // must not crash or write anywhere
  ASSERT_FALSE(events::enabled());
}

TEST(ObsEventLog, SchemaVersionSeqPidAndFieldsRoundTrip) {
  std::string Dir = scratchDir("schema");
  std::string Path = Dir + "/events.jsonl";
  std::string Err;
  ASSERT_TRUE(events::startToFile(Path, 0, &Err)) << Err;
  ASSERT_TRUE(events::enabled());
  events::emit("replica_down", {{"replica", "0"}, {"cause", "probe"}});
  events::emit("respawn", {{"replica", "0"}, {"attempt", "1"}});
  events::emit("rejoin",
               {{"via", "supervisor"}, {"note", "quote\" and \nnewline"}});
  events::finish();
  ASSERT_FALSE(events::enabled());

  std::vector<service::JsonValue> Events = parseEventLog(Path);
  ASSERT_EQ(Events.size(), 3u);
  for (size_t I = 0; I < Events.size(); ++I) {
    EXPECT_EQ(numberOf(Events[I], "v"),
              static_cast<double>(events::SchemaVersion));
    EXPECT_EQ(numberOf(Events[I], "seq"), static_cast<double>(I))
        << "seq must be gap-free from 0";
    EXPECT_EQ(numberOf(Events[I], "pid"), static_cast<double>(getpid()));
    EXPECT_GT(numberOf(Events[I], "ts_ms"), 1e12) << "wall-clock ms epoch";
  }
  EXPECT_EQ(stringOf(Events[0], "type"), "replica_down");
  EXPECT_EQ(stringOf(Events[0], "cause"), "probe");
  EXPECT_EQ(stringOf(Events[1], "attempt"), "1");
  // Escaping survives the round trip.
  EXPECT_EQ(stringOf(Events[2], "note"), "quote\" and \nnewline");
}

TEST(ObsEventLog, RotatesAtTheSizeCapKeepingOneGeneration) {
  std::string Dir = scratchDir("rotate");
  std::string Path = Dir + "/events.jsonl";
  std::string Err;
  ASSERT_TRUE(events::startToFile(Path, /*MaxBytes=*/512, &Err)) << Err;
  for (int I = 0; I < 40; ++I)
    events::emit("hedge_fired", {{"primary", std::to_string(I)}});
  events::finish();

  std::string Live = readWholeFile(Path);
  std::string Rotated = readWholeFile(Path + ".1");
  EXPECT_FALSE(Rotated.empty()) << "cap of 512 bytes must have rotated";
  EXPECT_LE(Live.size(), 512u + 256u) << "live file respects the cap";
  // Every line in both generations still parses; seq stays monotonic
  // across the rotation boundary.
  std::vector<service::JsonValue> Old = parseEventLog(Path + ".1");
  std::vector<service::JsonValue> New = parseEventLog(Path);
  ASSERT_FALSE(Old.empty());
  ASSERT_FALSE(New.empty());
  double LastOld = numberOf(Old.back(), "seq");
  double FirstNew = numberOf(New.front(), "seq");
  EXPECT_EQ(FirstNew, LastOld + 1) << "rotation must not drop or repeat seq";
}

TEST(ObsEventLog, RestartedSessionAppendsToAnExistingFile) {
  std::string Dir = scratchDir("append");
  std::string Path = Dir + "/events.jsonl";
  ASSERT_TRUE(events::startToFile(Path, 0, nullptr));
  events::emit("reload", {});
  events::finish();
  ASSERT_TRUE(events::startToFile(Path, 0, nullptr));
  events::emit("reload", {});
  events::finish();
  EXPECT_EQ(parseEventLog(Path).size(), 2u)
      << "O_APPEND sessions extend the log, never truncate it";
}

//===----------------------------------------------------------------------===//
// ObsStitch: shard merging via the real CLI
//===----------------------------------------------------------------------===//

namespace {

/// Finds the first traceEvents entry with the given ph (and name, when
/// non-null); returns nullptr when absent.
const service::JsonValue *findEvent(const service::JsonValue &Doc,
                                    const char *Ph, const char *Name) {
  const service::JsonValue *Events = Doc.find("traceEvents");
  if (!Events || !Events->isArray())
    return nullptr;
  for (const service::JsonValue &E : Events->Items) {
    if (!E.isObject())
      continue;
    const service::JsonValue *P = E.find("ph");
    if (!P || !P->isString() || P->StringValue != Ph)
      continue;
    if (Name) {
      const service::JsonValue *N = E.find("name");
      if (!N || !N->isString() || N->StringValue != Name)
        continue;
    }
    return &E;
  }
  return nullptr;
}

} // namespace

TEST(ObsStitch, AlignsShardsNamesProcessesAndLinksFlows) {
  std::string Dir = scratchDir("stitch");
  // Two hand-built shards: a router process (session epoch 1 ms) and a
  // replica process (epoch 2 ms). The replica span carries the same
  // trace_id the router forward does.
  writeWholeFile(Dir + "/router.json",
                 "{\"uspecBaseNs\":1000000,\"traceEvents\":["
                 "{\"name\":\"router.forward\",\"cat\":\"uspec\",\"ph\":"
                 "\"X\",\"pid\":100,\"tid\":1,\"ts\":5.000,\"dur\":10.000,"
                 "\"args\":{\"replica\":\"0\",\"trace_id\":\"t-1\"}}]}");
  writeWholeFile(Dir + "/replica.json",
                 "{\"uspecBaseNs\":2000000,\"traceEvents\":["
                 "{\"name\":\"service.request\",\"cat\":\"uspec\",\"ph\":"
                 "\"X\",\"pid\":200,\"tid\":3,\"ts\":1.000,\"dur\":4.000,"
                 "\"args\":{\"verb\":\"analyze\",\"trace_id\":\"t-1\"}}]}");

  RunResult R = runCli("obs stitch " + Dir + "/merged.json " + Dir +
                       "/router.json " + Dir + "/replica.json");
  ASSERT_EQ(R.ExitCode, 0) << R.Output;

  service::JsonValue Doc;
  std::string Err;
  ASSERT_TRUE(service::parseJson(readWholeFile(Dir + "/merged.json"), Doc,
                                 &Err))
      << Err;

  // Timeline alignment: the replica shard's epoch is 1 ms after the
  // router's, so its span shifts from ts=1.0 to ts=1001.0 µs while the
  // router span keeps ts=5.0.
  const service::JsonValue *Fwd = findEvent(Doc, "X", "router.forward");
  const service::JsonValue *Req = findEvent(Doc, "X", "service.request");
  ASSERT_TRUE(Fwd && Req);
  EXPECT_DOUBLE_EQ(numberOf(*Fwd, "ts"), 5.0);
  EXPECT_DOUBLE_EQ(numberOf(*Req, "ts"), 1001.0);

  // Both pids get role-named process metadata.
  std::string Merged = readWholeFile(Dir + "/merged.json");
  EXPECT_NE(Merged.find("\"process_name\""), std::string::npos);
  EXPECT_NE(Merged.find("uspec route"), std::string::npos);
  EXPECT_NE(Merged.find("uspec serve"), std::string::npos);

  // One flow pair links the forward (pid 100) to the request (pid 200).
  const service::JsonValue *Start = findEvent(Doc, "s", nullptr);
  const service::JsonValue *Finish = findEvent(Doc, "f", nullptr);
  ASSERT_TRUE(Start && Finish) << "stitch must emit s/f flow events";
  EXPECT_EQ(numberOf(*Start, "pid"), 100);
  EXPECT_EQ(numberOf(*Finish, "pid"), 200);
  EXPECT_EQ(numberOf(*Start, "id"), numberOf(*Finish, "id"));
}

TEST(ObsStitch, ShardWithoutTraceEventsIsAnError) {
  std::string Dir = scratchDir("stitch_bad");
  writeWholeFile(Dir + "/bad.json", "{\"hello\":1}");
  RunResult R = runCli("obs stitch " + Dir + "/out.json " + Dir +
                       "/bad.json");
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Output.find("traceEvents"), std::string::npos) << R.Output;
}

TEST(ObsStitch, EventsSubcommandFiltersByTypeAndSkipsTornLines) {
  std::string Dir = scratchDir("events_cli");
  writeWholeFile(Dir + "/ev.jsonl",
                 "{\"v\":1,\"seq\":0,\"type\":\"respawn\",\"replica\":\"0\"}\n"
                 "{\"v\":1,\"seq\":1,\"type\":\"rejoin\",\"replica\":\"0\"}\n"
                 "{\"v\":1,\"seq\":2,\"ty"); // torn tail write
  RunResult R = runCli("obs events " + Dir + "/ev.jsonl --type rejoin");
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("\"rejoin\""), std::string::npos);
  EXPECT_EQ(R.Output.find("\"respawn\""), std::string::npos);
  EXPECT_EQ(R.Output.find("seq\":2"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// ObsFleet: trace_id echo through the hedged router path
//===----------------------------------------------------------------------===//

namespace {

struct TestReplica {
  service::ServerConfig Cfg;
  std::unique_ptr<service::Server> S;
  volatile int Stop = 0;
  volatile int Reload = 0;
  std::thread T;
  std::string Path;

  bool start(const std::string &SockPath, const std::string &ModelPath) {
    Path = SockPath;
    Cfg.Workers = 2;
    Cfg.AcceptPollMs = 20;
    Cfg.ModelPath = ModelPath;
    std::string Err;
    auto M = service::loadModelState(ModelPath, &Err);
    if (!M) {
      ADD_FAILURE() << "loadModelState(" << ModelPath << "): " << Err;
      return false;
    }
    S = std::make_unique<service::Server>(Cfg, std::move(*M));
    T = std::thread([this] { S->serveUnixSocket(Path, &Stop, &Reload); });
    for (int I = 0; I < 200 && access(Path.c_str(), F_OK) != 0; ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    return access(Path.c_str(), F_OK) == 0;
  }

  ~TestReplica() {
    // beginDrain() is mutex-synchronized with the accept loop's draining()
    // check; writing the volatile Stop flag from this thread would be a
    // data race (the flag exists for signal handlers, not cross-thread
    // shutdown).
    if (S)
      S->beginDrain();
    if (T.joinable())
      T.join();
  }
};

std::string obsMiniProgram(unsigned Salt) {
  std::string K = "k" + std::to_string(Salt);
  return "class Main { def main() { var m = new Map(); m.put(\"" + K +
         "\", 1); var a = m.get(\"" + K + "\"); var b = m.get(\"" + K +
         "\"); } }";
}

std::string tracedAnalyzeRequest(const std::string &Id,
                                 const std::string &TraceId,
                                 const std::string &Prog) {
  std::string Line = "{\"id\":\"" + Id + "\",\"trace_id\":\"" + TraceId +
                     "\",\"verb\":\"analyze\",\"program\":\"";
  for (char C : Prog) {
    if (C == '"' || C == '\\')
      Line += '\\';
    Line += C;
  }
  Line += "\"}";
  return Line;
}

} // namespace

TEST(ObsFleet, HedgedResponseEchoesTraceIdByteIdentically) {
  std::string Dir = scratchDir("hedge_trace");
  std::string SpecPath = Dir + "/specs.txt";
  writeWholeFile(SpecPath, "RetSame(Map.get/1)\n");

  TestReplica RA, RB;
  RA.Cfg.EnableTestVerbs = true;
  RB.Cfg.EnableTestVerbs = true;
  ASSERT_TRUE(RA.start(Dir + "/ra.sock", SpecPath));
  ASSERT_TRUE(RB.start(Dir + "/rb.sock", SpecPath));

  distrib::RouterConfig Cfg;
  Cfg.Replicas = {RA.Path, RB.Path};
  Cfg.HedgeMs = 25;
  distrib::Router R(Cfg);

  std::string Prog;
  for (unsigned I = 0; I < 200; ++I)
    if (R.ownerOf(obsMiniProgram(I)) == 0) {
      Prog = obsMiniProgram(I);
      break;
    }
  ASSERT_FALSE(Prog.empty());
  std::string Line = tracedAnalyzeRequest("h1", "trace-obs-77", Prog);

  // The non-owner computes the reference answer directly.
  std::string Direct, Err;
  ASSERT_TRUE(service::clientRoundTrip(RB.Path, Line, Direct, &Err)) << Err;
  ASSERT_NE(Direct.find("\"trace_id\":\"trace-obs-77\""), std::string::npos)
      << Direct;

  // Park both of the owner's workers so the hedge leg must answer.
  service::Server *PrimaryServer = RA.S.get();
  std::thread Block1([&] {
    std::string Resp, E;
    service::clientRoundTrip(RA.Path, "{\"verb\":\"test_block\"}", Resp, &E);
  });
  std::thread Block2([&] {
    std::string Resp, E;
    service::clientRoundTrip(RA.Path, "{\"verb\":\"test_block\"}", Resp, &E);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::string Routed = R.handleLine(Line);
  EXPECT_EQ(Routed, Direct)
      << "hedged response (trace_id envelope included) must be "
         "byte-identical to a direct replica answer";
  EXPECT_GE(R.hedgedCount(), 1u);

  PrimaryServer->releaseTestGate();
  Block1.join();
  Block2.join();
}

TEST(ObsFleet, StatsCarryUptimeAndStartTime) {
  service::ServiceMetrics M;
  service::AnalysisCache::Stats CS;
  std::string Json = M.json(2, 0, 8, CS);
  EXPECT_NE(Json.find("\"uptime_s\":"), std::string::npos);
  EXPECT_NE(Json.find("\"start_time_unix\":"), std::string::npos);
  EXPECT_GT(M.startTimeUnixSeconds(), 1e9) << "Unix-epoch seconds";
  std::string Prom = M.prometheus(2, 0, 8, CS);
  EXPECT_NE(Prom.find("uspec_process_start_time_seconds"),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// ObsProm: exposition edge cases
//===----------------------------------------------------------------------===//

namespace {

/// Checks one exposition document line-by-line against the text-format
/// grammar subset this codebase emits: comment lines, and
/// `name[{labels}] value` samples with a valid metric name and a value
/// strtod can consume fully.
void expectValidExposition(const std::string &Text) {
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Space = Line.find(' ');
    ASSERT_NE(Space, std::string::npos) << "sample without value: " << Line;
    std::string Series = Line.substr(0, Space);
    std::string Name = Series.substr(0, Series.find('{'));
    ASSERT_FALSE(Name.empty()) << Line;
    EXPECT_TRUE(std::isalpha(static_cast<unsigned char>(Name[0])) ||
                Name[0] == '_' || Name[0] == ':')
        << "invalid metric name start: " << Line;
    for (char C : Name)
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
                  C == ':')
          << "invalid metric name char '" << C << "': " << Line;
    std::string Value = Line.substr(Space + 1);
    char *End = nullptr;
    std::strtod(Value.c_str(), &End);
    EXPECT_TRUE(End && *End == '\0')
        << "unparseable sample value: " << Line;
  }
}

} // namespace

TEST(ObsProm, EmptyHistogramRendersAValidExposition) {
  telemetry::MetricsRegistry Reg;
  Reg.histogram("uspec_obs_empty_seconds", "never recorded");
  std::string Text = Reg.renderPrometheus();
  expectValidExposition(Text);
  // An empty histogram still exposes the +Inf bucket, sum and count.
  EXPECT_NE(Text.find("uspec_obs_empty_seconds_bucket{le=\"+Inf\"} 0"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("uspec_obs_empty_seconds_sum 0"), std::string::npos);
  EXPECT_NE(Text.find("uspec_obs_empty_seconds_count 0"),
            std::string::npos);
}

TEST(ObsProm, EveryServiceSeriesNameIsValid) {
  service::ServiceMetrics M;
  M.recordAdmitted();
  M.recordCompleted(0.001, true);
  M.recordAnalyze(0.002);
  service::AnalysisCache::Stats CS;
  expectValidExposition(M.prometheus(2, 1, 8, CS));
}

TEST(ObsProm, LargeCounterRoundTripsWithoutTruncation) {
  // 2^50 + 3 does not survive a %.9g float render; the exposition must
  // print integral values exactly.
  constexpr uint64_t Big = (1ull << 50) + 3;
  telemetry::MetricsRegistry Reg;
  Reg.counter("uspec_obs_big_total").inc(Big);
  std::string Text = Reg.renderPrometheus();
  expectValidExposition(Text);
  std::string Expect = "uspec_obs_big_total " + std::to_string(Big);
  EXPECT_NE(Text.find(Expect), std::string::npos) << Text;

  std::string Out;
  telemetry::appendPromValue(Out, static_cast<double>(Big));
  EXPECT_EQ(Out, std::to_string(Big));
  // Fractions keep the compact float rendering.
  Out.clear();
  telemetry::appendPromValue(Out, 0.125);
  EXPECT_EQ(Out, "0.125");
}

//===----------------------------------------------------------------------===//
// ObsQuery: the request bytes `uspec query` sends for each verb
//===----------------------------------------------------------------------===//

TEST(ObsQuery, VerbRequestBytesArePinned) {
  // An in-process line server answers every request with the request line
  // itself as the result (echoing its trace id, if any), so `uspec query`
  // prints exactly the bytes it sent.
  std::string Dir = scratchDir("query_bytes");
  std::string Sock = Dir + "/echo.sock";
  std::string Prog = Dir + "/p.mini";
  writeWholeFile(Prog, "var m = new Map();\nm.put(\"k\", 1);\n");
  service::LineServer Echo;
  ASSERT_TRUE(Echo.bind(Sock));
  std::atomic<bool> Stop{false};
  std::thread Server([&] {
    Echo.serve(
        20, [&] { return Stop.load(); },
        [](std::string Line) {
          service::JsonValue Doc;
          std::string TraceId;
          if (service::parseJson(Line, Doc, nullptr))
            TraceId = stringOf(Doc, "trace_id");
          return service::okResponse("", Line, TraceId);
        });
  });

  const std::string P =
      "\"program\":\"var m = new Map();\\nm.put(\\\"k\\\", 1);\\n\"";
  const std::string Q = "query --socket " + Sock + " ";
  struct Case {
    std::string Args, Request;
  } Cases[] = {
      {"analyze " + Prog, "{\"verb\":\"analyze\"," + P + "}"},
      {"analyze " + Prog + " --coverage",
       "{\"verb\":\"analyze\"," + P + ",\"coverage\":true}"},
      {"alias " + Prog + " Map.get/1 Map.put/2",
       "{\"verb\":\"alias\"," + P +
           ",\"a\":\"Map.get/1\",\"b\":\"Map.put/2\"}"},
      {"alias " + Prog + " a b --coverage",
       "{\"verb\":\"alias\"," + P + ",\"a\":\"a\",\"b\":\"b\"}"},
      {"typestate " + Prog + " hasNext next",
       "{\"verb\":\"typestate\"," + P + ",\"check\":\"hasNext\",\"use\":"
       "\"next\"}"},
      {"taint " + Prog,
       "{\"verb\":\"taint\"," + P +
           ",\"sources\":[],\"sinks\":[],\"sanitizers\":[]}"},
      {"taint " + Prog + " --source s1 --sink k1 --source s2 --sanitizer z "
                         "--coverage",
       "{\"verb\":\"taint\"," + P +
           ",\"sources\":[\"s1\",\"s2\"],\"sinks\":[\"k1\"],\"sanitizers\":"
           "[\"z\"]}"},
      {"reload", "{\"verb\":\"reload\"}"},
      {"reload /m.uspb", "{\"verb\":\"reload\",\"path\":\"/m.uspb\"}"},
      {"specs", "{\"verb\":\"specs\"}"},
      {"cachekeys", "{\"verb\":\"cachekeys\"}"},
      {"stats", "{\"verb\":\"stats\"}"},
      {"metrics", "{\"verb\":\"metrics\"}"},
      {"shutdown", "{\"verb\":\"shutdown\"}"},
  };
  for (const Case &C : Cases) {
    RunResult R = runCli(Q + C.Args);
    EXPECT_EQ(R.ExitCode, 0) << C.Args << "\n" << R.Output;
    EXPECT_EQ(R.Output, C.Request + "\n") << C.Args;
    // --trace-id appends one member, and the answer's trace-id envelope
    // still yields the bare payload.
    std::string Traced = C.Request;
    Traced.insert(Traced.size() - 1, ",\"trace_id\":\"t-9\"");
    R = runCli(Q + "--trace-id t-9 " + C.Args);
    EXPECT_EQ(R.ExitCode, 0) << C.Args << "\n" << R.Output;
    EXPECT_EQ(R.Output, Traced + "\n") << C.Args;
  }

  // Usage and unknown-verb errors: exit 2, nothing sent.
  struct Bad {
    std::string Args, FirstLine;
  } Bads[] = {
      {"", "error: query requires a verb (analyze, alias, typestate, taint, "
           "specs, cachekeys, stats, metrics, reload, shutdown) or --json "
           "REQUEST"},
      {"analyze", "error: usage: uspec query --socket PATH analyze FILE "
                  "[--coverage]"},
      {"alias " + Prog + " a", "error: usage: uspec query --socket PATH alias "
                               "FILE A B"},
      {"typestate " + Prog + " a b c",
       "error: usage: uspec query --socket PATH typestate FILE CHECK USE"},
      {"taint", "error: usage: uspec query --socket PATH taint FILE "
                "[--source M]... [--sink M]... [--sanitizer M]..."},
      {"stats extra", "error: usage: uspec query --socket PATH stats"},
      {"reload a b", "error: unknown argument 'b' for 'uspec query'"},
      {"zap", "error: unknown argument 'zap' for 'uspec query'"},
  };
  for (const Bad &B : Bads) {
    RunResult R = runCli(Q + B.Args);
    EXPECT_EQ(R.ExitCode, 2) << B.Args << "\n" << R.Output;
    EXPECT_EQ(R.Output.substr(0, R.Output.find('\n')), B.FirstLine)
        << B.Args;
  }
  // An unreadable program file fails before anything is sent.
  RunResult R = runCli(Q + "alias " + Dir + "/missing.mini a b");
  EXPECT_EQ(R.ExitCode, 1) << R.Output;

  Stop = true;
  Server.join();
}
