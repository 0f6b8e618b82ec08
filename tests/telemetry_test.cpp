//===- telemetry_test.cpp - Tests for metrics registry + span tracer ------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
// Covers support/Telemetry.h (log2 histograms, shard merging, percentile
// exactness against uspec::percentile, the registry and its Prometheus
// renderer), support/Trace.h (trace JSON well-formedness, span nesting at 1
// and 8 threads, the disarmed zero-allocation fast path, artifact
// bit-identity with tracing on/off), and the service surface (stats JSON on
// large counters, the `metrics` verb, trace_id echo, the slow-request log).
// All suite names start with "Telemetry" so the TSan CI job picks them up.
//
//===----------------------------------------------------------------------===//

#include "artifact/Checkpoint.h"
#include "core/USpec.h"
#include "corpus/Generator.h"
#include "corpus/Profiles.h"
#include "incremental/Trainer.h"
#include "service/Server.h"
#include "support/EventLog.h"
#include "support/Random.h"
#include "support/Stats.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <new>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace uspec;
using namespace uspec::telemetry;

//===----------------------------------------------------------------------===//
// Allocation counting (for the disarmed zero-allocation contract)
//===----------------------------------------------------------------------===//

// Per-thread allocation tally: replacement global operator new bumps the
// calling thread's counter, so measurements are immune to background-thread
// allocations (gtest, other workers).
namespace {
thread_local size_t TlAllocs = 0;
} // namespace

void *operator new(std::size_t Size) {
  ++TlAllocs;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) {
  ++TlAllocs;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
// The nothrow forms must be replaced too: libstdc++'s stable_sort temporary
// buffer allocates through operator new(size_t, nothrow). Leaving that one to
// the default (ASan-intercepted) implementation while our operator delete
// frees with std::free trips ASan's alloc-dealloc-mismatch check.
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  ++TlAllocs;
  return std::malloc(Size ? Size : 1);
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  ++TlAllocs;
  return std::malloc(Size ? Size : 1);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

//===----------------------------------------------------------------------===//
// Shared corpus helpers
//===----------------------------------------------------------------------===//

namespace {

std::vector<IRProgram> makeCorpus(size_t N, uint64_t Seed,
                                  StringInterner &Strings) {
  LanguageProfile Profile = javaProfile();
  GeneratorConfig Cfg;
  Rng Rand(Seed);
  std::vector<IRProgram> Corpus;
  for (size_t I = 0; I < N; ++I) {
    std::string Src = generateProgramSource(Profile, Cfg, Rand);
    DiagnosticSink Diags;
    auto P = parseAndLower(Src, "p" + std::to_string(I), Strings, Diags);
    EXPECT_TRUE(P.has_value()) << Diags.render();
    if (P)
      Corpus.push_back(std::move(*P));
  }
  return Corpus;
}

/// Runs the full pipeline at \p Threads and returns the artifact bytes.
std::string learnArtifactBytes(unsigned Threads) {
  StringInterner Strings;
  std::vector<IRProgram> Corpus = makeCorpus(8, /*Seed=*/17, Strings);
  LearnerConfig Cfg;
  Cfg.Threads = Threads;
  USpecLearner Learner(Strings, Cfg);
  LearnResult Result = Learner.learn(Corpus);
  return saveLearnArtifacts(Result, Cfg, Strings, CorpusManifest());
}

} // namespace

//===----------------------------------------------------------------------===//
// Histogram buckets and percentiles
//===----------------------------------------------------------------------===//

TEST(TelemetryHistogram, BucketBoundaries) {
  EXPECT_EQ(histogramBucketFor(0), 0u);
  EXPECT_EQ(histogramBucketFor(1), 1u);
  EXPECT_EQ(histogramBucketFor(2), 2u);
  EXPECT_EQ(histogramBucketFor(3), 2u);
  EXPECT_EQ(histogramBucketFor(4), 3u);
  EXPECT_EQ(histogramBucketFor((1ull << 20) - 1), 20u);
  EXPECT_EQ(histogramBucketFor(1ull << 20), 21u);
  EXPECT_EQ(histogramBucketFor(~0ull), HistogramBuckets - 1);

  EXPECT_EQ(histogramBucketUpperBound(0), 0u);
  EXPECT_EQ(histogramBucketUpperBound(1), 1u);
  EXPECT_EQ(histogramBucketUpperBound(2), 3u);
  EXPECT_EQ(histogramBucketUpperBound(20), (1ull << 20) - 1);
  EXPECT_EQ(histogramBucketUpperBound(HistogramBuckets - 1), ~0ull);

  // Every value lands in the bucket whose range contains it.
  for (uint64_t V : {0ull, 1ull, 2ull, 7ull, 1000ull, 123456789ull}) {
    unsigned B = histogramBucketFor(V);
    EXPECT_LE(V, histogramBucketUpperBound(B));
    if (B > 0) {
      EXPECT_GT(V, histogramBucketUpperBound(B - 1));
    }
  }
}

TEST(TelemetryHistogram, CountSumMaxExact) {
  Histogram H;
  H.record(0);
  H.record(5);
  H.record(1000);
  HistogramSnapshot S;
  H.accumulate(S);
  EXPECT_EQ(S.Count, 3u);
  EXPECT_EQ(S.Sum, 1005u);
  EXPECT_EQ(S.Max, 1000u); // exact, not bucket-quantized
}

TEST(TelemetryHistogram, PercentileMatchesStatsNearestRank) {
  // The snapshot percentile (nearest rank over bucket upper bounds) must
  // agree exactly with uspec::percentile applied to the quantized samples.
  Rng Rand(42);
  Histogram H;
  std::vector<double> Quantized;
  for (int I = 0; I < 500; ++I) {
    uint64_t V = Rand.next() >> static_cast<unsigned>(Rand.range(0, 50));
    H.record(V);
    Quantized.push_back(static_cast<double>(
        histogramBucketUpperBound(histogramBucketFor(V))));
  }
  HistogramSnapshot S;
  H.accumulate(S);
  for (double Q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(static_cast<double>(S.percentileNs(Q)),
              percentile(Quantized, Q))
        << "Q=" << Q;
  }
}

TEST(TelemetryHistogram, SnapshotMergeAddsEverything) {
  Histogram A, B;
  A.record(1);
  A.record(100);
  B.record(7);
  B.record(1u << 30);
  HistogramSnapshot SA, SB;
  A.accumulate(SA);
  B.accumulate(SB);
  SA.merge(SB);

  HistogramSnapshot All;
  A.accumulate(All);
  B.accumulate(All);
  EXPECT_EQ(SA.Count, All.Count);
  EXPECT_EQ(SA.Sum, All.Sum);
  EXPECT_EQ(SA.Max, All.Max);
  EXPECT_EQ(SA.Buckets, All.Buckets);
}

TEST(TelemetryHistogram, ShardedRecordingFromManyThreads) {
  ShardedHistogram H;
  constexpr int ThreadCount = 8, PerThread = 10000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < ThreadCount; ++T)
    Threads.emplace_back([&H, T] {
      for (int I = 0; I < PerThread; ++I)
        H.record(static_cast<uint64_t>(T * PerThread + I));
    });
  for (std::thread &T : Threads)
    T.join();
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, static_cast<uint64_t>(ThreadCount * PerThread));
  EXPECT_EQ(S.Max, static_cast<uint64_t>(ThreadCount * PerThread - 1));
  uint64_t ExpectSum = 0;
  for (uint64_t V = 0; V < ThreadCount * PerThread; ++V)
    ExpectSum += V;
  EXPECT_EQ(S.Sum, ExpectSum);
}

TEST(TelemetryHistogram, RecordSecondsClampsNegativeToZero) {
  ShardedHistogram H;
  H.recordSeconds(-1.0);
  H.recordSeconds(0.0);
  HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 2u);
  EXPECT_EQ(S.Buckets[0], 2u);
  EXPECT_EQ(S.Max, 0u);
}

//===----------------------------------------------------------------------===//
// Registry + Prometheus exposition
//===----------------------------------------------------------------------===//

TEST(TelemetryRegistry, ReRegistrationReturnsSameMetric) {
  MetricsRegistry R;
  Counter &A = R.counter("x_total", "help");
  Counter &B = R.counter("x_total");
  EXPECT_EQ(&A, &B);
  A.inc(3);
  EXPECT_EQ(B.value(), 3u);

  Gauge &G1 = R.gauge("g");
  Gauge &G2 = R.gauge("g");
  EXPECT_EQ(&G1, &G2);

  ShardedHistogram &H1 = R.histogram("h_seconds");
  ShardedHistogram &H2 = R.histogram("h_seconds");
  EXPECT_EQ(&H1, &H2);
}

TEST(TelemetryRegistry, RendersPrometheusExposition) {
  MetricsRegistry R;
  R.counter("uspec_test_total", "A test counter").inc(42);
  R.gauge("uspec_depth", "A level").set(-3);
  R.gaugeFn("uspec_computed", "Computed at render time", [] { return 2.5; });
  ShardedHistogram &H = R.histogram("uspec_lat_seconds", "A latency");
  H.record(1500); // 1.5us -> bucket 11, upper bound 2047ns
  std::string Text = R.renderPrometheus();

  EXPECT_NE(Text.find("# HELP uspec_test_total A test counter\n"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("# TYPE uspec_test_total counter\n"), std::string::npos);
  EXPECT_NE(Text.find("uspec_test_total 42\n"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE uspec_depth gauge\n"), std::string::npos);
  EXPECT_NE(Text.find("uspec_depth -3\n"), std::string::npos);
  EXPECT_NE(Text.find("uspec_computed 2.5\n"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE uspec_lat_seconds histogram\n"),
            std::string::npos);
  // Cumulative buckets in seconds, then +Inf, _sum, _count.
  EXPECT_NE(Text.find("uspec_lat_seconds_bucket{le=\""), std::string::npos);
  EXPECT_NE(Text.find("uspec_lat_seconds_bucket{le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(Text.find("uspec_lat_seconds_count 1\n"), std::string::npos);
  EXPECT_NE(Text.find("uspec_lat_seconds_sum 1.5e-06\n"), std::string::npos)
      << Text;
  // Exposition ends with a newline (scrapers require it).
  ASSERT_FALSE(Text.empty());
  EXPECT_EQ(Text.back(), '\n');
}

TEST(TelemetryRegistry, HistogramBucketsAreCumulative) {
  MetricsRegistry R;
  ShardedHistogram &H = R.histogram("h_seconds");
  H.record(1); // bucket 1
  H.record(3); // bucket 2
  H.record(3); // bucket 2
  std::string Text = R.renderPrometheus();
  // Bucket for le=1ns holds 1 sample; le=3ns holds all 3 cumulatively.
  EXPECT_NE(Text.find("h_seconds_bucket{le=\"1e-09\"} 1\n"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("h_seconds_bucket{le=\"3e-09\"} 3\n"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("h_seconds_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// ServiceMetrics: stats JSON on large counters (regression: the old
// fixed-896-byte snprintf build truncated and produced invalid JSON)
//===----------------------------------------------------------------------===//

TEST(TelemetryServiceMetrics, StatsJsonSurvivesLargeCounters) {
  service::ServiceMetrics M;
  // Drive every counter to a 16-digit value straight through the registry.
  constexpr uint64_t Big = 1234567890123456ull;
  for (const char *Name :
       {"uspec_requests_admitted_total", "uspec_requests_completed_total",
        "uspec_requests_errored_total", "uspec_requests_overloaded_total",
        "uspec_requests_rejected_draining_total",
        "uspec_requests_deadline_exceeded_total", "uspec_worker_deaths_total",
        "uspec_cache_hits_total", "uspec_cache_misses_total"})
    M.registry().counter(Name).inc(Big);
  for (int I = 0; I < 200; ++I)
    M.recordCompleted(0.001 * I, /*Ok=*/true);

  service::AnalysisCache::Stats Cache;
  Cache.Entries = 123456789;
  Cache.Capacity = 987654321;
  Cache.Evictions = Big;
  std::string Json = M.json(64, 999999, 888888, Cache);

  service::JsonValue V;
  std::string Err;
  ASSERT_TRUE(service::parseJson(Json, V, &Err)) << Err << "\n" << Json;
  const service::JsonValue *Requests = V.find("requests");
  ASSERT_NE(Requests, nullptr);
  const service::JsonValue *Admitted = Requests->find("admitted");
  ASSERT_NE(Admitted, nullptr);
  EXPECT_EQ(Admitted->NumberValue, static_cast<double>(Big));
  const service::JsonValue *Lat = V.find("latency_ms");
  ASSERT_NE(Lat, nullptr);
  const service::JsonValue *Samples = Lat->find("samples");
  ASSERT_NE(Samples, nullptr);
  EXPECT_EQ(Samples->NumberValue, 200.0);
}

TEST(TelemetryServiceMetrics, P50ComesFromHistogram) {
  service::ServiceMetrics M;
  for (int I = 1; I <= 100; ++I)
    M.recordCompleted(0.001 * I, /*Ok=*/true);
  // Median ~50ms; the log2 quantization keeps it within its bucket's
  // [lower, upper] range, i.e. within a factor of 2.
  double P50 = M.p50LatencySeconds();
  EXPECT_GE(P50, 0.050);
  EXPECT_LE(P50, 0.100);
}

//===----------------------------------------------------------------------===//
// Trace sessions
//===----------------------------------------------------------------------===//

namespace {

/// Runs learn() under an in-memory trace session and returns the parsed
/// trace document.
service::JsonValue tracedLearnDoc(unsigned Threads) {
  trace::start();
  {
    StringInterner Strings;
    std::vector<IRProgram> Corpus = makeCorpus(8, /*Seed=*/17, Strings);
    LearnerConfig Cfg;
    Cfg.Threads = Threads;
    USpecLearner Learner(Strings, Cfg);
    Learner.learn(Corpus);
  }
  std::string Json = trace::stop();
  service::JsonValue Doc;
  std::string Err;
  EXPECT_TRUE(service::parseJson(Json, Doc, &Err)) << Err;
  return Doc;
}

const service::JsonValue *findEvent(const service::JsonValue &Doc,
                                    const std::string &Name) {
  const service::JsonValue *Events = Doc.find("traceEvents");
  if (!Events)
    return nullptr;
  for (const service::JsonValue &E : Events->Items) {
    const service::JsonValue *N = E.find("name");
    if (N && N->StringValue == Name)
      return &E;
  }
  return nullptr;
}

double numField(const service::JsonValue &E, const char *Key) {
  const service::JsonValue *V = E.find(Key);
  EXPECT_NE(V, nullptr) << Key;
  return V ? V->NumberValue : 0;
}

/// The five phase spans nest inside \p Root (same thread, contained
/// interval; 0.01us slack for the microsecond rounding).
void expectPhasesNestedIn(const service::JsonValue &Doc,
                          const service::JsonValue &Root) {
  for (const char *Phase :
       {"learn.phase1_analyze", "learn.phase2_train", "learn.phase3_extract",
        "learn.phase4_score", "learn.phase5_select"}) {
    const service::JsonValue *E = findEvent(Doc, Phase);
    ASSERT_NE(E, nullptr) << Phase;
    EXPECT_EQ(numField(*E, "tid"), numField(Root, "tid")) << Phase;
    EXPECT_GE(numField(*E, "ts") + 0.01, numField(Root, "ts")) << Phase;
    EXPECT_LE(numField(*E, "ts") + numField(*E, "dur"),
              numField(Root, "ts") + numField(Root, "dur") + 0.01)
        << Phase;
  }
}

} // namespace

TEST(TelemetryTrace, LearnTraceIsWellFormedAndNested) {
  service::JsonValue Doc = tracedLearnDoc(/*Threads=*/2);
  const service::JsonValue *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  ASSERT_FALSE(Events->Items.empty());

  // Every event is a complete ("ph":"X") event with the required fields.
  for (const service::JsonValue &E : Events->Items) {
    const service::JsonValue *Ph = E.find("ph");
    ASSERT_NE(Ph, nullptr);
    EXPECT_EQ(Ph->StringValue, "X");
    EXPECT_NE(E.find("name"), nullptr);
    EXPECT_NE(E.find("pid"), nullptr);
    EXPECT_NE(E.find("tid"), nullptr);
    EXPECT_GE(numField(E, "ts"), 0.0);
    EXPECT_GE(numField(E, "dur"), 0.0);
  }

  // The phase spans nest inside the top-level learn span.
  const service::JsonValue *Learn = findEvent(Doc, "learn");
  ASSERT_NE(Learn, nullptr);
  expectPhasesNestedIn(Doc, *Learn);

  // Per-program spans exist and carry their index argument.
  const service::JsonValue *Program = findEvent(Doc, "learn.program");
  ASSERT_NE(Program, nullptr);
  const service::JsonValue *Args = Program->find("args");
  ASSERT_NE(Args, nullptr);
  EXPECT_NE(Args->find("index"), nullptr);
}

TEST(TelemetryTrace, WarmIncrementTraceIsRootedAndNested) {
  // A warm learnIncrement runs the same phase driver as learn but under a
  // `learn.increment` root (perfbench's learn.increment_s reads it).
  StringInterner Strings;
  std::vector<IRProgram> Corpus = makeCorpus(12, /*Seed=*/17, Strings);
  std::vector<IRProgram> Delta;
  for (size_t I = 8; I < Corpus.size(); ++I)
    Delta.push_back(std::move(Corpus[I]));
  Corpus.resize(8);
  LearnerConfig Cfg;
  Cfg.Threads = 2;
  USpecLearner Learner(Strings, Cfg);
  LearnResult Base = Learner.learn(Corpus);
  WarmStart Prev;
  Prev.Model = std::move(Base.Model);
  Prev.Ledger = std::move(Base.Ledger);
  Prev.BasePrograms = Corpus.size();
  Prev.BaseTrainingSamples = Base.NumTrainingSamples;

  trace::start();
  Learner.learnIncrement(Delta, std::move(Prev));
  service::JsonValue Doc;
  {
    std::string Json = trace::stop();
    std::string Err;
    ASSERT_TRUE(service::parseJson(Json, Doc, &Err)) << Err;
  }
  EXPECT_EQ(findEvent(Doc, "learn"), nullptr);
  const service::JsonValue *Root = findEvent(Doc, "learn.increment");
  ASSERT_NE(Root, nullptr);
  const service::JsonValue *RootArgs = Root->find("args");
  ASSERT_NE(RootArgs, nullptr);
  const service::JsonValue *BaseArg = RootArgs->find("base_programs");
  ASSERT_NE(BaseArg, nullptr);
  EXPECT_EQ(BaseArg->StringValue, "8");

  // The root is not nested in any other span of its thread.
  for (const service::JsonValue &E : Doc.find("traceEvents")->Items) {
    if (&E == Root || numField(E, "tid") != numField(*Root, "tid"))
      continue;
    bool Encloses =
        numField(E, "ts") <= numField(*Root, "ts") + 0.01 &&
        numField(E, "ts") + numField(E, "dur") + 0.01 >=
            numField(*Root, "ts") + numField(*Root, "dur");
    EXPECT_FALSE(Encloses) << E.find("name")->StringValue;
  }
  expectPhasesNestedIn(Doc, *Root);

  // Per-program spans carry global corpus indices: the delta starts at 8.
  for (const service::JsonValue &E : Doc.find("traceEvents")->Items) {
    const service::JsonValue *N = E.find("name");
    if (!N || N->StringValue != "learn.program")
      continue;
    const service::JsonValue *Index = E.find("args")->find("index");
    ASSERT_NE(Index, nullptr);
    EXPECT_GE(std::stoul(Index->StringValue), 8u);
  }
}

TEST(TelemetryTrace, FullTrainSpansTheCorpusParseOnce) {
  // The journal's parse + lower is one `ir.parse_lower` span inside
  // `incremental.train`; it ends before learning starts.
  LanguageProfile Profile = javaProfile();
  GeneratorConfig GenCfg;
  Rng Rand(23);
  incremental::CorpusJournal J;
  size_t Bytes = 0;
  for (int I = 0; I < 10; ++I) {
    std::string Source = generateProgramSource(Profile, GenCfg, Rand);
    Bytes += Source.size();
    J.append(1, "p" + std::to_string(I), Source);
  }
  StringInterner Strings;
  LearnerConfig Cfg;
  Cfg.Threads = 1;
  trace::start();
  auto Outcome = incremental::trainFromJournal(J, Cfg, Strings, "", false);
  service::JsonValue Doc;
  {
    std::string Json = trace::stop();
    std::string Err;
    ASSERT_TRUE(service::parseJson(Json, Doc, &Err)) << Err;
  }
  ASSERT_TRUE(Outcome.has_value());
  EXPECT_EQ(Outcome->Mode, incremental::TrainMode::Full);

  const service::JsonValue *Parse = nullptr;
  for (const service::JsonValue &E : Doc.find("traceEvents")->Items)
    if (E.find("name")->StringValue == "ir.parse_lower") {
      EXPECT_EQ(Parse, nullptr) << "more than one ir.parse_lower span";
      Parse = &E;
    }
  ASSERT_NE(Parse, nullptr);
  const service::JsonValue *Args = Parse->find("args");
  ASSERT_NE(Args, nullptr);
  EXPECT_EQ(Args->find("programs")->StringValue, "10");
  EXPECT_EQ(Args->find("bytes")->StringValue, std::to_string(Bytes));

  const service::JsonValue *Train = findEvent(Doc, "incremental.train");
  const service::JsonValue *Learn = findEvent(Doc, "learn");
  ASSERT_NE(Train, nullptr);
  ASSERT_NE(Learn, nullptr);
  EXPECT_EQ(numField(*Parse, "tid"), numField(*Train, "tid"));
  EXPECT_GE(numField(*Parse, "ts") + 0.01, numField(*Train, "ts"));
  EXPECT_LE(numField(*Parse, "ts") + numField(*Parse, "dur"),
            numField(*Train, "ts") + numField(*Train, "dur") + 0.01);
  EXPECT_LE(numField(*Parse, "ts") + numField(*Parse, "dur"),
            numField(*Learn, "ts") + 0.01);
}

TEST(TelemetryTrace, ThreadFanOutShowsInTids) {
  // One thread: every event carries the same tid.
  service::JsonValue Serial = tracedLearnDoc(/*Threads=*/1);
  std::set<double> SerialTids;
  for (const service::JsonValue &E :
       Serial.find("traceEvents")->Items)
    SerialTids.insert(numField(E, "tid"));
  EXPECT_EQ(SerialTids.size(), 1u);

  // Eight real threads recording concurrently: every thread gets its own
  // tid in the document. (learn() itself hands work out through an atomic
  // counter, so with a tiny corpus one fast worker may legally take every
  // program — spawning threads directly makes the fan-out deterministic.)
  trace::start();
  {
    std::vector<std::thread> Threads;
    for (int T = 0; T < 8; ++T)
      Threads.emplace_back([] { TraceSpan Span("telemetry.worker"); });
    for (std::thread &T : Threads)
      T.join();
  }
  service::JsonValue Parallel;
  {
    std::string Json = trace::stop();
    std::string Err;
    ASSERT_TRUE(service::parseJson(Json, Parallel, &Err)) << Err;
  }
  std::set<double> WorkerTids;
  for (const service::JsonValue &E :
       Parallel.find("traceEvents")->Items) {
    const service::JsonValue *N = E.find("name");
    if (N && N->StringValue == "telemetry.worker")
      WorkerTids.insert(numField(E, "tid"));
  }
  EXPECT_EQ(WorkerTids.size(), 8u);
}

TEST(TelemetryTrace, EventsSortedByStartTime) {
  service::JsonValue Doc = tracedLearnDoc(/*Threads=*/2);
  const service::JsonValue *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  double Prev = -1;
  for (const service::JsonValue &E : Events->Items) {
    double Ts = numField(E, "ts");
    EXPECT_GE(Ts, Prev);
    Prev = Ts;
  }
}

TEST(TelemetryTrace, StopWithoutSessionYieldsEmptyDocument) {
  ASSERT_FALSE(trace::enabled());
  std::string Json = trace::stop();
  service::JsonValue Doc;
  std::string Err;
  ASSERT_TRUE(service::parseJson(Json, Doc, &Err)) << Err;
  const service::JsonValue *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  EXPECT_TRUE(Events->Items.empty());
}

TEST(TelemetryTrace, RestartedSessionDropsOldEvents) {
  trace::start();
  { TraceSpan Span("telemetry.first"); }
  trace::stop();
  trace::start();
  { TraceSpan Span("telemetry.second"); }
  std::string Json = trace::stop();
  EXPECT_EQ(Json.find("telemetry.first"), std::string::npos);
  EXPECT_NE(Json.find("telemetry.second"), std::string::npos);
}

TEST(TelemetryTrace, DisarmedSpanAllocatesNothing) {
  ASSERT_FALSE(trace::enabled());
  size_t Before = TlAllocs;
  for (int I = 0; I < 1000; ++I) {
    TraceSpan Span("telemetry.disarmed");
    if (Span.active())
      Span.arg("k", std::to_string(I)); // never taken: guard keeps it free
  }
  EXPECT_EQ(TlAllocs, Before);
}

TEST(TelemetryAlloc, FreshStringInternerAllocatesNothing) {
  // Every service request and every ingested program parses into a fresh
  // interner; until something is interned it costs no heap allocation,
  // neither to build, nor to move, nor to destroy.
  size_t Before = TlAllocs;
  {
    StringInterner Strings;
    EXPECT_EQ(Strings.size(), 1u);
    EXPECT_EQ(Strings.str(Symbol()), "");
    EXPECT_EQ(Strings.intern(""), Symbol());
    StringInterner Moved = std::move(Strings);
    EXPECT_EQ(Moved.size(), 1u);
  }
  EXPECT_EQ(TlAllocs, Before);
}

namespace {

const std::string &nameOf(const service::JsonValue &E) {
  return E.find("name")->StringValue;
}

/// Whether span \p Inner lies inside span \p Outer (same thread, contained
/// interval; 0.01us slack for the microsecond rounding).
bool encloses(const service::JsonValue &Outer,
              const service::JsonValue &Inner) {
  return numField(Inner, "tid") == numField(Outer, "tid") &&
         numField(Inner, "ts") + 0.01 >= numField(Outer, "ts") &&
         numField(Inner, "ts") + numField(Inner, "dur") <=
             numField(Outer, "ts") + numField(Outer, "dur") + 0.01;
}

/// For each span named \p Outer in \p Events, how many spans named
/// \p Inner it holds; and, in \p Total, how many \p Inner spans there are.
std::vector<size_t> countInside(const std::vector<service::JsonValue> &Events,
                                const std::string &Outer,
                                const std::string &Inner, size_t &Total) {
  std::vector<const service::JsonValue *> Outers;
  for (const service::JsonValue &E : Events)
    if (nameOf(E) == Outer)
      Outers.push_back(&E);
  std::vector<size_t> Inside(Outers.size(), 0);
  Total = 0;
  for (const service::JsonValue &E : Events) {
    if (nameOf(E) != Inner)
      continue;
    ++Total;
    for (size_t O = 0; O < Outers.size(); ++O)
      Inside[O] += encloses(*Outers[O], E);
  }
  return Inside;
}

} // namespace

TEST(TelemetryTrace, EveryProgramSpansItsGraphAndSamples) {
  // Phase 1's layers below analysis.run: each learn.program span holds
  // exactly one eventgraph.build, one learn.samples and one learn.match
  // span.
  service::JsonValue Doc = tracedLearnDoc(/*Threads=*/2);
  const std::vector<service::JsonValue> &Events =
      Doc.find("traceEvents")->Items;
  for (const char *Layer :
       {"eventgraph.build", "learn.samples", "learn.match"}) {
    size_t Count = 0;
    std::vector<size_t> Inside =
        countInside(Events, "learn.program", Layer, Count);
    ASSERT_EQ(Inside.size(), 8u);
    EXPECT_EQ(Count, Inside.size()) << Layer;
    for (size_t P = 0; P < Inside.size(); ++P)
      EXPECT_EQ(Inside[P], 1u) << Layer << " in learn.program #" << P;
  }
}

TEST(TelemetryTrace, EverySgdEpochSpansInsidePhase2) {
  // ϕ's training: each learn.phase2_train span holds one model.sgd_epoch
  // span per epoch, and no epoch runs outside it.
  for (unsigned Threads : {1u, 2u}) {
    service::JsonValue Doc = tracedLearnDoc(Threads);
    const std::vector<service::JsonValue> &Events =
        Doc.find("traceEvents")->Items;
    size_t Count = 0;
    std::vector<size_t> Inside =
        countInside(Events, "learn.phase2_train", "model.sgd_epoch", Count);
    ASSERT_EQ(Inside.size(), 1u) << Threads;
    EXPECT_EQ(Inside[0], EdgeModelConfig().Epochs) << Threads;
    EXPECT_EQ(Count, Inside[0]) << Threads;
  }
}

TEST(TelemetryDeterminism, ArtifactsBitIdenticalWithTracingOnOrOff) {
  // The determinism contract: tracing and the event log observe, never
  // perturb. The learned artifact must be byte-identical with either armed
  // or not, serial or parallel.
  std::string Plain1 = learnArtifactBytes(/*Threads=*/1);
  std::string Plain8 = learnArtifactBytes(/*Threads=*/8);
  trace::start();
  std::string Traced1 = learnArtifactBytes(/*Threads=*/1);
  trace::stop();
  trace::start();
  std::string Traced8 = learnArtifactBytes(/*Threads=*/8);
  trace::stop();
  ASSERT_FALSE(Plain1.empty());
  EXPECT_EQ(Plain1, Plain8);
  EXPECT_EQ(Plain1, Traced1);
  EXPECT_EQ(Plain1, Traced8);

  // An armed event log costs learn() nothing: only the router and the
  // server emit events, so the log must not grow across a learn().
  std::string LogPath = testing::TempDir() + "telemetry_events_" +
                        std::to_string(getpid()) + ".jsonl";
  std::string Err;
  ASSERT_TRUE(events::startToFile(LogPath, 0, &Err)) << Err;
  for (unsigned Threads : {1u, 8u}) {
    auto Before = std::filesystem::file_size(LogPath);
    EXPECT_EQ(learnArtifactBytes(Threads), Plain1)
        << "event log armed, " << Threads << " threads";
    EXPECT_EQ(std::filesystem::file_size(LogPath), Before)
        << "learn() wrote events at " << Threads << " threads";
  }
  events::finish();
  std::remove(LogPath.c_str());
}

//===----------------------------------------------------------------------===//
// Service surface: metrics verb, trace_id echo, slow-request log
//===----------------------------------------------------------------------===//

namespace {
const char *SpecsRequest = "{\"verb\":\"specs\"}";
} // namespace

TEST(TelemetryService, MetricsVerbRendersPrometheus) {
  service::ServerConfig Cfg;
  Cfg.Workers = 1;
  service::Server S(Cfg, service::ServiceSpecs());
  S.handle(SpecsRequest); // complete one request so the histograms have data

  std::string R = S.handle("{\"id\":1,\"verb\":\"metrics\"}");
  service::JsonValue V;
  std::string Err;
  ASSERT_TRUE(service::parseJson(R, V, &Err)) << Err << "\n" << R;
  const service::JsonValue *Ok = V.find("ok");
  ASSERT_NE(Ok, nullptr);
  EXPECT_TRUE(Ok->BoolValue);
  const service::JsonValue *Result = V.find("result");
  ASSERT_NE(Result, nullptr);
  ASSERT_TRUE(Result->isString());
  const std::string &Text = Result->StringValue;
  EXPECT_NE(Text.find("# TYPE uspec_request_latency_seconds histogram"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("# TYPE uspec_queue_wait_seconds histogram"),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE uspec_analyze_seconds histogram"),
            std::string::npos);
  EXPECT_NE(Text.find("uspec_requests_admitted_total "), std::string::npos);
  EXPECT_NE(Text.find("uspec_queue_wait_seconds_count "), std::string::npos);
  EXPECT_NE(Text.find("uspec_workers 1"), std::string::npos);
  EXPECT_NE(Text.find("uspec_queue_capacity "), std::string::npos);
  S.drain();
}

TEST(TelemetryService, QueueWaitAndLatencyHistogramsRecord) {
  service::ServerConfig Cfg;
  Cfg.Workers = 2;
  service::Server S(Cfg, service::ServiceSpecs());
  for (int I = 0; I < 5; ++I)
    S.handle(SpecsRequest);
  // Workers record the latency sample after answering the client, so only
  // drain() (which joins them) makes all five samples visible.
  S.drain();
  telemetry::MetricsRegistry &R = S.metrics().registry();
  EXPECT_GE(R.histogram("uspec_queue_wait_seconds").snapshot().Count, 5u);
  EXPECT_GE(R.histogram("uspec_request_latency_seconds").snapshot().Count,
            5u);
}

TEST(TelemetryService, TraceIdEchoedVerbatim) {
  service::ServerConfig Cfg;
  Cfg.Workers = 1;
  service::Server S(Cfg, service::ServiceSpecs());

  std::string R =
      S.handle("{\"id\":5,\"verb\":\"specs\",\"trace_id\":\"abc-123\"}");
  EXPECT_EQ(R.rfind("{\"id\":5,\"trace_id\":\"abc-123\",\"ok\":true,", 0), 0u)
      << R;

  // Requests without a trace_id keep the exact pre-PR envelope bytes (the
  // service_test byte-identity suite depends on this).
  std::string Plain = S.handle("{\"id\":6,\"verb\":\"specs\"}");
  EXPECT_EQ(Plain.find("trace_id"), std::string::npos);
  EXPECT_EQ(Plain.rfind("{\"id\":6,\"ok\":true,", 0), 0u) << Plain;
  S.drain();
}

TEST(TelemetryService, SlowRequestLogTriggers) {
  service::ServerConfig Cfg;
  Cfg.Workers = 1;
  Cfg.EnableTestVerbs = true;
  Cfg.SlowRequestMs = 1;
  std::ostringstream Log;
  Cfg.SlowLog = &Log;
  service::Server S(Cfg, service::ServiceSpecs());

  auto Parked =
      S.submit("{\"id\":3,\"verb\":\"test_block\",\"trace_id\":\"t1\"}");
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  S.releaseTestGate();
  EXPECT_NE(Parked.get().find("\"ok\":true"), std::string::npos);
  S.drain();

  std::string Line = Log.str();
  EXPECT_NE(Line.find("uspec-slow verb=test_block"), std::string::npos)
      << Line;
  EXPECT_NE(Line.find("total_ms="), std::string::npos);
  EXPECT_NE(Line.find("queue_ms="), std::string::npos);
  EXPECT_NE(Line.find("ok=true"), std::string::npos);
  EXPECT_NE(Line.find("id=3"), std::string::npos);
  EXPECT_NE(Line.find("trace_id=t1"), std::string::npos);
}

TEST(TelemetryService, SlowLogDisabledByDefault) {
  service::ServerConfig Cfg;
  Cfg.Workers = 1;
  Cfg.EnableTestVerbs = true; // SlowRequestMs stays 0 (disabled)
  std::ostringstream Log;
  Cfg.SlowLog = &Log;
  service::Server S(Cfg, service::ServiceSpecs());

  auto Parked = S.submit("{\"verb\":\"test_block\"}");
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  S.releaseTestGate();
  Parked.get();
  S.drain();
  EXPECT_TRUE(Log.str().empty()) << Log.str();
}

TEST(TelemetryService, StatsShapeUnchangedByMetricsRefactor) {
  // The stats verb keeps its exact field set (clients parse it).
  service::ServerConfig Cfg;
  Cfg.Workers = 1;
  service::Server S(Cfg, service::ServiceSpecs());
  S.handle(SpecsRequest);
  std::string R = S.handle("{\"verb\":\"stats\"}");
  service::JsonValue V;
  std::string Err;
  ASSERT_TRUE(service::parseJson(R, V, &Err)) << Err;
  const service::JsonValue *Result = V.find("result");
  ASSERT_NE(Result, nullptr);
  for (const char *Key : {"uptime_seconds", "workers", "queue_depth",
                          "queue_capacity", "requests", "worker_deaths",
                          "qps", "cache", "model", "latency_ms"})
    EXPECT_NE(Result->find(Key), nullptr) << Key;
  const service::JsonValue *Model = Result->find("model");
  ASSERT_NE(Model, nullptr);
  for (const char *Key : {"generation", "checksum", "specs", "reloads"})
    EXPECT_NE(Model->find(Key), nullptr) << Key;
  const service::JsonValue *Lat = Result->find("latency_ms");
  ASSERT_NE(Lat, nullptr);
  EXPECT_NE(Lat->find("p50"), nullptr);
  EXPECT_NE(Lat->find("p95"), nullptr);
  EXPECT_NE(Lat->find("samples"), nullptr);
  S.drain();
}
