//===- distrib_test.cpp - Distributed training + routed serving ----------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
// Pins the DESIGN.md §14 contracts:
//
//   - Wire codecs round-trip every message type, and frames survive a real
//     socket (length-prefixed, binary-safe).
//   - `train --distributed N` is byte-identical to single-process `train`
//     at any worker count, for both file-list and --journal (full and warm)
//     runs — the flagship determinism claim.
//   - Worker death (injected SIGKILL via USPEC_FAULT) converges to the same
//     bytes through reassignment/demotion.
//   - The consistent-hash router keeps ownership stable when a replica is
//     removed from the ring, fails over deterministically when one is
//     marked down, and broadcast reload swaps every replica's model with
//     no stale cache bleed-through.
//
// CLI-driven suites use the real `uspec` binary (USPEC_CLI_PATH, injected
// by CMake); router suites run distrib::Router and service::Server
// in-process on Unix sockets under testing::TempDir().
//
//===----------------------------------------------------------------------===//

#include "artifact/Binary.h"
#include "artifact/Container.h"
#include "distrib/Router.h"
#include "distrib/Wire.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "support/FaultInject.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace uspec;
using namespace uspec::distrib;

namespace {

struct RunResult {
  int ExitCode = -1;
  std::string Output; ///< stdout + stderr interleaved.
};

/// Runs a full shell command (so `USPEC_FAULT=... uspec ...` env prefixes
/// work), merging stderr into the captured output.
RunResult runShell(const std::string &Command) {
  std::string Full = Command + " 2>&1";
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

RunResult runCli(const std::string &ArgString) {
  return runShell(std::string(USPEC_CLI_PATH) + " " + ArgString);
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

void writeFile(const std::string &Path, const std::string &Content) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Content;
}

/// A per-test scratch directory under TempDir (tests in one binary run
/// sequentially, so a name per test suffices).
std::string scratchDir(const std::string &Name) {
  std::string Dir = testing::TempDir() + "uspec_distrib_" + Name + "_" +
                    std::to_string(getpid());
  std::string Cmd = "rm -rf " + Dir + " && mkdir -p " + Dir;
  if (std::system(Cmd.c_str()) != 0)
    ADD_FAILURE() << "cannot create scratch dir " << Dir;
  return Dir;
}

/// Byte-level artifact comparison without dumping binary on failure.
void expectSameBytes(const std::string &PathA, const std::string &PathB,
                     const char *What) {
  std::string A = readFile(PathA), B = readFile(PathB);
  ASSERT_FALSE(A.empty()) << PathA << " is empty/missing (" << What << ")";
  EXPECT_EQ(A.size(), B.size()) << What;
  EXPECT_TRUE(A == B) << What << ": " << PathA << " and " << PathB
                      << " differ";
}

/// A small MiniLang program whose text varies with \p Salt — used to find
/// programs landing on specific ring owners.
std::string miniProgram(unsigned Salt) {
  std::string K = "k" + std::to_string(Salt);
  return "class Main { def main() { var m = new Map(); m.put(\"" + K +
         "\", 1); var a = m.get(\"" + K + "\"); var b = m.get(\"" + K +
         "\"); } }";
}

const std::vector<uint32_t> S1Hashes = {1u, 0xFFFFFFFFu, 42u};
const std::vector<uint32_t> S2Hashes = {7u};

/// A two-program shard reply: two samples for the first program, none for
/// the quarantined second.
AnalyzedResult twoProgramResult() {
  AnalyzedResult Result;
  Result.Shard = 5;
  Result.Graphs = 2;
  Result.Samples.add(0x0102, 1.0f, S1Hashes);
  Result.Samples.add(0x0201, 0.0f, S2Hashes);
  Result.ProgramSamples = {2, 0};
  Result.QReason = {"", "parse: boom"};
  return Result;
}

std::vector<uint32_t> hashesOf(const SampleSet &Set, size_t I) {
  std::span<const uint32_t> H = Set.hashes(I);
  return {H.begin(), H.end()};
}

std::string analyzeRequest(const std::string &Id, const std::string &Prog) {
  std::string Line = "{\"id\":\"" + Id + "\",\"verb\":\"analyze\","
                     "\"program\":";
  // Programs here contain no characters needing JSON escaping.
  Line += "\"";
  for (char C : Prog) {
    if (C == '"' || C == '\\')
      Line += '\\';
    Line += C;
  }
  Line += "\"}";
  return Line;
}

} // namespace

//===----------------------------------------------------------------------===//
// DistribWire: addresses, frames, message codecs
//===----------------------------------------------------------------------===//

TEST(DistribWire, ParseAddressForms) {
  std::string Err;
  auto A = parseAddress("unix:/tmp/x.sock", &Err);
  ASSERT_TRUE(A) << Err;
  EXPECT_FALSE(A->Tcp);
  EXPECT_EQ(A->Path, "/tmp/x.sock");
  EXPECT_EQ(A->str(), "unix:/tmp/x.sock");

  auto Bare = parseAddress("/tmp/y.sock", &Err);
  ASSERT_TRUE(Bare) << Err;
  EXPECT_FALSE(Bare->Tcp);
  EXPECT_EQ(Bare->Path, "/tmp/y.sock");

  auto T = parseAddress("tcp:127.0.0.1:7070", &Err);
  ASSERT_TRUE(T) << Err;
  EXPECT_TRUE(T->Tcp);
  EXPECT_EQ(T->Path, "127.0.0.1");
  EXPECT_EQ(T->Port, 7070);
  EXPECT_EQ(T->str(), "tcp:127.0.0.1:7070");

  // A bare token is a (relative) Unix socket path, matching serve --socket.
  auto Rel = parseAddress("nonsense", &Err);
  ASSERT_TRUE(Rel) << Err;
  EXPECT_FALSE(Rel->Tcp);

  EXPECT_FALSE(parseAddress("tcp:hostonly", &Err));
  EXPECT_FALSE(parseAddress("tcp:h:99999", &Err));
  EXPECT_FALSE(parseAddress("", &Err));
}

TEST(DistribWire, FramesSurviveASocketBinarySafe) {
  int Fds[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);

  // Arbitrary bytes, embedded NULs included: the frame layer is oblivious
  // to payload contents.
  std::string Payload = "abc";
  Payload.push_back('\0');
  Payload += "def\xff\x01";
  std::string Err;
  ASSERT_TRUE(sendFrame(Fds[0], Payload, &Err)) << Err;
  std::string Got;
  ASSERT_TRUE(recvFrame(Fds[1], Got, &Err)) << Err;
  EXPECT_EQ(Got, Payload);

  // A second frame queued behind the first is framed independently.
  ASSERT_TRUE(sendFrame(Fds[0], "second", &Err)) << Err;
  ASSERT_TRUE(sendFrame(Fds[0], "", &Err)) << Err;
  ASSERT_TRUE(recvFrame(Fds[1], Got, &Err)) << Err;
  EXPECT_EQ(Got, "second");
  ASSERT_TRUE(recvFrame(Fds[1], Got, &Err)) << Err;
  EXPECT_EQ(Got, "");

  // Peer close = clean EOF, not garbage.
  close(Fds[0]);
  EXPECT_FALSE(recvFrame(Fds[1], Got, &Err));
  close(Fds[1]);

  // Garbage bytes are not a USPB container.
  EXPECT_FALSE(peekType(Payload, &Err));
}

TEST(DistribWire, ControlMessagesRoundTrip) {
  std::string Frame = encodeControl(MsgType::Hello, "pid 1234");
  auto Type = peekType(Frame);
  ASSERT_TRUE(Type);
  EXPECT_EQ(*Type, MsgType::Hello);

  MsgType T;
  std::string Text, Err;
  ASSERT_TRUE(decodeControl(Frame, T, Text, &Err)) << Err;
  EXPECT_EQ(T, MsgType::Hello);
  EXPECT_EQ(Text, "pid 1234");

  Frame = encodeControl(MsgType::Error, "shard 3 exploded");
  ASSERT_TRUE(decodeControl(Frame, T, Text, &Err)) << Err;
  EXPECT_EQ(T, MsgType::Error);
  EXPECT_EQ(Text, "shard 3 exploded");
}

TEST(DistribWire, InitRoundTripsConfigAndInternerSnapshot) {
  InitMsg Msg;
  Msg.Config.Seed = 0xDEADBEEF12345678ull;
  Msg.Config.DistanceBound = 7;
  Msg.Config.ProgramStepBudget = 100000;
  Msg.Config.Threads = 3;
  Msg.Config.ExperimentalPatterns = true;
  Msg.Symbols = {"Map", "get", "", "put", "a string with spaces"};
  Msg.WorkerId = 42;

  std::string Frame = encodeInit(Msg);
  auto Type = peekType(Frame);
  ASSERT_TRUE(Type);
  EXPECT_EQ(*Type, MsgType::Init);

  InitMsg Out;
  std::string Err;
  ASSERT_TRUE(decodeInit(Frame, Out, &Err)) << Err;
  EXPECT_EQ(Out.Config.Seed, Msg.Config.Seed);
  EXPECT_EQ(Out.Config.DistanceBound, Msg.Config.DistanceBound);
  EXPECT_EQ(Out.Config.ProgramStepBudget, Msg.Config.ProgramStepBudget);
  EXPECT_EQ(Out.Config.Threads, Msg.Config.Threads);
  EXPECT_EQ(Out.Config.ExperimentalPatterns, Msg.Config.ExperimentalPatterns);
  EXPECT_EQ(Out.Symbols, Msg.Symbols);
  EXPECT_EQ(Out.WorkerId, Msg.WorkerId);
}

TEST(DistribWire, AnalyzeTaskAndResultRoundTrip) {
  AnalyzeTask Task;
  Task.Shard = 5;
  Task.Base = 17;
  Task.Programs = {{"a.mini", "class A {}"}, {"b.mini", "class B {}"}};

  std::string Frame = encodeAnalyzeTask(Task);
  AnalyzeTask TOut;
  std::string Err;
  ASSERT_TRUE(decodeAnalyzeTask(Frame, TOut, &Err)) << Err;
  EXPECT_EQ(TOut.Shard, 5u);
  EXPECT_EQ(TOut.Base, 17u);
  ASSERT_EQ(TOut.Programs.size(), 2u);
  EXPECT_EQ(TOut.Programs[0].Name, "a.mini");
  EXPECT_EQ(TOut.Programs[1].Source, "class B {}");

  Frame = encodeAnalyzedResult(twoProgramResult());
  AnalyzedResult ROut;
  ASSERT_TRUE(decodeAnalyzedResult(Frame, ROut, &Err)) << Err;
  EXPECT_EQ(ROut.Shard, 5u);
  EXPECT_EQ(ROut.Graphs, 2u);
  ASSERT_EQ(ROut.ProgramSamples.size(), 2u);
  ASSERT_EQ(ROut.ProgramSamples[0], 2u);
  EXPECT_EQ(ROut.ProgramSamples[1], 0u);
  ASSERT_EQ(ROut.Samples.size(), 2u);
  EXPECT_EQ(ROut.Samples.posKey(0), 0x0102);
  EXPECT_EQ(hashesOf(ROut.Samples, 0), S1Hashes);
  EXPECT_EQ(ROut.Samples.label(0), 1.0f);
  EXPECT_EQ(hashesOf(ROut.Samples, 1), S2Hashes);
  ASSERT_EQ(ROut.QReason.size(), 2u);
  EXPECT_EQ(ROut.QReason[1], "parse: boom");
}

TEST(DistribWire, AnalyzedFrameBytesArePinned) {
  // The flat sample layout is an in-memory change only: the frame a worker
  // sends is byte-for-byte the per-sample encoding, so mixed-version fleets
  // and recorded frames keep decoding.
  static const char Pinned[] =
      "\x55\x53\x50\x42\x01\x00\x00\x00\x01\x04\x64\x6d\x73\x67\x00"
      "\x31\x53\x1c\xba\x54\x38\xe2\xfc\x24\x04\x05\x02\x02\x00\x02"
      "\x02\x01\x00\x00\x80\x3f\x03\x01\x00\x00\x00\xff\xff\xff\xff"
      "\x2a\x00\x00\x00\x01\x02\x00\x00\x00\x00\x01\x07\x00\x00\x00"
      "\x0b\x70\x61\x72\x73\x65\x3a\x20\x62\x6f\x6f\x6d\x00";
  EXPECT_EQ(encodeAnalyzedResult(twoProgramResult()),
            std::string(Pinned, sizeof(Pinned) - 1));
}

TEST(DistribWireFuzz, AnalyzedFrameMutationsFailCleanly) {
  // A realistic shard reply: several programs, some without samples.
  Rng Rand(0xA11A);
  AnalyzedResult Result;
  Result.Shard = 3;
  Result.Graphs = 6;
  for (int P = 0; P < 8; ++P) {
    uint64_t Samples = P % 3 == 1 ? 0 : 1 + Rand.below(12);
    for (uint64_t I = 0; I < Samples; ++I) {
      std::vector<uint32_t> Hashes(1 + Rand.below(10));
      for (uint32_t &H : Hashes)
        H = static_cast<uint32_t>(Rand.next());
      Result.Samples.add(static_cast<uint16_t>(Rand.below(36)),
                         static_cast<float>(I % 2), Hashes);
    }
    Result.ProgramSamples.push_back(Samples);
    Result.QReason.push_back(P == 4 ? "analysis:steps" : "");
  }
  const std::string Frame = encodeAnalyzedResult(Result);
  std::string Err;
  AnalyzedResult Out;
  ASSERT_TRUE(decodeAnalyzedResult(Frame, Out, &Err)) << Err;

  auto ExpectRejected = [&](const std::string &Bad, const std::string &What) {
    std::string E;
    AnalyzedResult O;
    EXPECT_FALSE(decodeAnalyzedResult(Bad, O, &E)) << What;
    EXPECT_FALSE(E.empty()) << What << ": no error message";
  };
  for (int Case = 0; Case < 300; ++Case) {
    std::string Bad = Frame;
    size_t At = Rand.below(Bad.size());
    Bad[At] = static_cast<char>(Bad[At] ^ (1u << Rand.below(8)));
    ExpectRejected(Bad, "bit flip at " + std::to_string(At));
  }
  for (size_t Len = 0; Len < Frame.size(); ++Len)
    ExpectRejected(Frame.substr(0, Len), "truncated to " + std::to_string(Len));
  for (size_t Extra : {1u, 7u, 64u})
    ExpectRejected(Frame + std::string(Extra, '\x01'),
                   "extended by " + std::to_string(Extra));
}

TEST(DistribWireFuzz, AnalyzedCountLiesInsideAValidContainer) {
  // Each payload sits in a well-formed, correctly checksummed container, so
  // only the decoder's own bounds stand between a lying count and an
  // allocation sized by it. Each count must fit in the bytes that remain.
  auto FrameOf = [](std::initializer_list<uint64_t> Varints,
                    const std::string &Tail = "") {
    BinaryWriter W;
    W.writeU8(static_cast<uint8_t>(MsgType::Analyzed));
    for (uint64_t V : Varints)
      W.writeVarint(V);
    std::string Bytes = W.take() + Tail;
    ArtifactWriter Art;
    Art.addSection("dmsg", std::move(Bytes));
    return Art.finish();
  };
  // One sample: PosKey 0, label 1.0f, one hash.
  const std::string OneSample =
      std::string("\x00\x00\x00\x00\x80\x3f\x01", 7) +
      std::string("\x2a\x00\x00\x00", 4);
  struct Lie {
    const char *What;
    std::string Frame;
  };
  std::vector<Lie> Lies = {
      // shard, graphs, programs, then per program: reason, samples, ...
      {"2^28-1 samples, none sent", FrameOf({0, 0, 1, 0, (1u << 28) - 1})},
      {"2^24 samples, none sent", FrameOf({0, 0, 1, 0, 1u << 24})},
      {"2^24 programs, none sent", FrameOf({0, 0, 1u << 24})},
      {"one more program than sent", FrameOf({0, 0, 2, 0, 1}, OneSample)},
      {"one more sample than sent", FrameOf({0, 0, 1, 0, 2}, OneSample)},
      {"2^20 hashes, one sent",
       FrameOf({0, 0, 1, 0, 1},
               std::string("\x00\x00\x00\x00\x80\x3f\x80\x80\x40", 9) +
                   std::string("\x2a\x00\x00\x00", 4))},
      {"over the program limit", FrameOf({0, 0, (1u << 24) + 1})},
      {"trailing bytes", FrameOf({0, 0, 1, 0, 1}, OneSample + "x")},
  };
  for (const Lie &L : Lies) {
    std::string Err;
    AnalyzedResult Out;
    EXPECT_FALSE(decodeAnalyzedResult(L.Frame, Out, &Err)) << L.What;
    EXPECT_FALSE(Err.empty()) << L.What;
  }
  // The honest version of the same container decodes.
  std::string Err;
  AnalyzedResult Out;
  ASSERT_TRUE(decodeAnalyzedResult(FrameOf({0, 0, 1, 0, 1}, OneSample), Out,
                                   &Err))
      << Err;
  EXPECT_EQ(Out.Samples.size(), 1u);
  EXPECT_EQ(hashesOf(Out.Samples, 0), std::vector<uint32_t>{42});
}

TEST(DistribWire, ExtractTaskAndResultRoundTrip) {
  ExtractTask Task;
  Task.Shard = 9;
  Task.Base = 3;
  // Empty Programs = "use your cached shard state".
  std::string Frame = encodeExtractTask(Task);
  ExtractTask TOut;
  std::string Err;
  ASSERT_TRUE(decodeExtractTask(Frame, TOut, &Err)) << Err;
  EXPECT_EQ(TOut.Shard, 9u);
  EXPECT_EQ(TOut.Base, 3u);
  EXPECT_TRUE(TOut.Programs.empty());

  StringInterner Strings;
  ExtractedResult Result;
  Result.Shard = 9;
  Result.QUpdates = {{2, "extract:steps"}};
  Result.ReceiverPairs = 100;
  Result.Matches = 40;
  Result.PeakCandidates = 12;

  Frame = encodeExtractedResult(Result, Strings);
  StringInterner Fresh;
  ExtractedResult ROut;
  ASSERT_TRUE(decodeExtractedResult(Frame, ROut, Fresh, &Err)) << Err;
  EXPECT_EQ(ROut.Shard, 9u);
  ASSERT_EQ(ROut.QUpdates.size(), 1u);
  EXPECT_EQ(ROut.QUpdates[0].first, 2u);
  EXPECT_EQ(ROut.QUpdates[0].second, "extract:steps");
  EXPECT_EQ(ROut.ReceiverPairs, 100u);
  EXPECT_EQ(ROut.Matches, 40u);
  EXPECT_EQ(ROut.PeakCandidates, 12u);
  EXPECT_TRUE(ROut.Ledger.Entries.empty());
}

TEST(DistribWire, ModelMessageRoundTrip) {
  EdgeModelConfig Cfg;
  Cfg.DimBits = 10;
  Cfg.Epochs = 2;
  EdgeModel Model(Cfg);
  std::string Frame = encodeModelMsg(Model);
  auto Type = peekType(Frame);
  ASSERT_TRUE(Type);
  EXPECT_EQ(*Type, MsgType::Model);
  EdgeModel Out;
  std::string Err;
  ASSERT_TRUE(decodeModelMsg(Frame, Out, &Err)) << Err;
  EXPECT_EQ(encodeModelMsg(Out), Frame);
}

//===----------------------------------------------------------------------===//
// DistribTrain: byte-identity against single-process training (CLI)
//===----------------------------------------------------------------------===//

TEST(DistribTrain, FileListByteIdenticalAt1_2_4Workers) {
  std::string Dir = scratchDir("filelist");
  RunResult Gen =
      runCli("gen --profile java -n 12 -o " + Dir + "/corpus --seed 3");
  ASSERT_EQ(Gen.ExitCode, 0) << Gen.Output;

  RunResult Single = runCli("train " + Dir + "/corpus/*.mini -o " + Dir +
                            "/single.uspb --seed 7");
  ASSERT_EQ(Single.ExitCode, 0) << Single.Output;

  for (unsigned W : {1u, 2u, 4u}) {
    std::string Out = Dir + "/dist" + std::to_string(W) + ".uspb";
    RunResult Dist = runCli("train " + Dir + "/corpus/*.mini -o " + Out +
                            " --seed 7 --distributed " + std::to_string(W));
    ASSERT_EQ(Dist.ExitCode, 0) << Dist.Output;
    EXPECT_NE(Dist.Output.find("distributed:"), std::string::npos)
        << Dist.Output;
    expectSameBytes(Dir + "/single.uspb", Out,
                    ("file-list, " + std::to_string(W) + " workers").c_str());
  }
}

TEST(DistribTrain, WorkCountersMatchInProcess) {
  // The deterministic --stats counters of a distributed run equal the
  // in-process run's: the coordinator trains on the same samples, so the
  // same number of feature hashes (ROADMAP 1(a) counters).
  std::string Dir = scratchDir("counters");
  ASSERT_EQ(runCli("gen --profile java -n 12 -o " + Dir + "/corpus --seed 4")
                .ExitCode, 0);
  auto Counter = [](const std::string &Output, const std::string &Key) {
    size_t At = Output.find("\"" + Key + "\": ");
    EXPECT_NE(At, std::string::npos) << Key << " missing in " << Output;
    return At == std::string::npos
               ? std::string()
               : Output.substr(At, Output.find(',', At) - At);
  };
  RunResult Single = runCli("train " + Dir + "/corpus/*.mini -o " + Dir +
                            "/single.uspb --seed 7 --stats");
  ASSERT_EQ(Single.ExitCode, 0) << Single.Output;
  RunResult Dist = runCli("train " + Dir + "/corpus/*.mini -o " + Dir +
                          "/dist.uspb --seed 7 --stats --distributed 2");
  ASSERT_EQ(Dist.ExitCode, 0) << Dist.Output;
  EXPECT_NE(Counter(Single.Output, "feature_hashes"), "\"feature_hashes\": 0");
  for (const char *Key : {"training_samples", "feature_hashes", "graphs",
                          "matches", "receiver_pairs", "candidates"})
    EXPECT_EQ(Counter(Single.Output, Key), Counter(Dist.Output, Key));
}

TEST(DistribTrain, JournalFullAndWarmByteIdentical) {
  std::string Dir = scratchDir("journal");
  ASSERT_EQ(runCli("gen --profile java -n 10 -o " + Dir + "/c1 --seed 5")
                .ExitCode, 0);
  ASSERT_EQ(runCli("ingest " + Dir + "/c1/*.mini -j " + Dir + "/c.uspj")
                .ExitCode, 0);

  // Full journal run, single vs 2 workers.
  RunResult Single = runCli("train --journal " + Dir + "/c.uspj -o " + Dir +
                            "/single.uspb --seed 11");
  ASSERT_EQ(Single.ExitCode, 0) << Single.Output;
  RunResult Dist = runCli("train --journal " + Dir + "/c.uspj -o " + Dir +
                          "/dist.uspb --seed 11 --distributed 2");
  ASSERT_EQ(Dist.ExitCode, 0) << Dist.Output;
  expectSameBytes(Dir + "/single.uspb", Dir + "/dist.uspb", "journal full");

  // Grow the journal; both sides warm-start from their (identical) priors.
  ASSERT_EQ(runCli("gen --profile python -n 4 -o " + Dir + "/c2 --seed 6")
                .ExitCode, 0);
  ASSERT_EQ(runCli("ingest " + Dir + "/c2/*.mini -j " + Dir + "/c.uspj")
                .ExitCode, 0);
  Single = runCli("train --journal " + Dir + "/c.uspj -o " + Dir +
                  "/single.uspb --seed 11");
  ASSERT_EQ(Single.ExitCode, 0) << Single.Output;
  EXPECT_NE(Single.Output.find("warm"), std::string::npos) << Single.Output;
  Dist = runCli("train --journal " + Dir + "/c.uspj -o " + Dir +
                "/dist.uspb --seed 11 --distributed 3");
  ASSERT_EQ(Dist.ExitCode, 0) << Dist.Output;
  EXPECT_NE(Dist.Output.find("warm"), std::string::npos) << Dist.Output;
  expectSameBytes(Dir + "/single.uspb", Dir + "/dist.uspb", "journal warm");
}

TEST(DistribTrain, ProvenanceIsOptInAndPlainArtifactsUnchanged) {
  std::string Dir = scratchDir("provenance");
  ASSERT_EQ(runCli("gen --profile java -n 8 -o " + Dir + "/corpus --seed 9")
                .ExitCode, 0);
  ASSERT_EQ(runCli("train " + Dir + "/corpus/*.mini -o " + Dir +
                   "/single.uspb --seed 2").ExitCode, 0);

  // Without --provenance the distributed artifact is byte-identical.
  ASSERT_EQ(runCli("train " + Dir + "/corpus/*.mini -o " + Dir +
                   "/plain.uspb --seed 2 --distributed 2").ExitCode, 0);
  expectSameBytes(Dir + "/single.uspb", Dir + "/plain.uspb",
                  "no-provenance distributed");
  RunResult InfoPlain = runCli("info " + Dir + "/plain.uspb");
  ASSERT_EQ(InfoPlain.ExitCode, 0) << InfoPlain.Output;
  EXPECT_EQ(InfoPlain.Output.find("distributed training:"),
            std::string::npos) << InfoPlain.Output;

  // With --provenance the manifest records worker count + shard map, and
  // `uspec info` surfaces it.
  ASSERT_EQ(runCli("train " + Dir + "/corpus/*.mini -o " + Dir +
                   "/prov.uspb --seed 2 --distributed 2 --provenance")
                .ExitCode, 0);
  EXPECT_NE(readFile(Dir + "/prov.uspb"), readFile(Dir + "/single.uspb"));
  RunResult Info = runCli("info " + Dir + "/prov.uspb");
  ASSERT_EQ(Info.ExitCode, 0) << Info.Output;
  EXPECT_NE(Info.Output.find("distributed training: 2 worker(s)"),
            std::string::npos) << Info.Output;
}

//===----------------------------------------------------------------------===//
// DistribFault: injected worker death converges to identical bytes
//===----------------------------------------------------------------------===//

namespace {

/// Trains the fault-free baseline once per suite run.
std::string faultBaseline(const std::string &Dir) {
  EXPECT_EQ(runCli("gen --profile java -n 10 -o " + Dir + "/corpus --seed 4")
                .ExitCode, 0);
  RunResult R = runCli("train " + Dir + "/corpus/*.mini -o " + Dir +
                       "/single.uspb --seed 13");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  return Dir + "/single.uspb";
}

} // namespace

TEST(DistribFault, WorkerKilledMidAnalyzeConvergesByteIdentical) {
  std::string Dir = scratchDir("fault_analyze");
  std::string Baseline = faultBaseline(Dir);
  RunResult R = runShell("USPEC_FAULT=distrib.worker.analyze:0:kill " +
                         std::string(USPEC_CLI_PATH) + " train " + Dir +
                         "/corpus/*.mini -o " + Dir +
                         "/dist.uspb --seed 13 --distributed 2");
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("died"), std::string::npos) << R.Output;
  expectSameBytes(Baseline, Dir + "/dist.uspb", "kill mid-analyze");
}

TEST(DistribFault, WorkerKilledMidExtractConvergesByteIdentical) {
  std::string Dir = scratchDir("fault_extract");
  std::string Baseline = faultBaseline(Dir);
  RunResult R = runShell("USPEC_FAULT=distrib.worker.extract:0:kill " +
                         std::string(USPEC_CLI_PATH) + " train " + Dir +
                         "/corpus/*.mini -o " + Dir +
                         "/dist.uspb --seed 13 --distributed 2");
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  expectSameBytes(Baseline, Dir + "/dist.uspb", "kill mid-extract");
}

TEST(DistribFault, SpawnFailureDegradesButStaysByteIdentical) {
  std::string Dir = scratchDir("fault_spawn");
  std::string Baseline = faultBaseline(Dir);
  RunResult R = runShell("USPEC_FAULT=distrib.spawn:0:throw " +
                         std::string(USPEC_CLI_PATH) + " train " + Dir +
                         "/corpus/*.mini -o " + Dir +
                         "/dist.uspb --seed 13 --distributed 2");
  ASSERT_EQ(R.ExitCode, 0) << R.Output;
  expectSameBytes(Baseline, Dir + "/dist.uspb", "spawn fault");
}

//===----------------------------------------------------------------------===//
// DistribRouter: ring math (pure, in-process)
//===----------------------------------------------------------------------===//

namespace {

RouterConfig ringConfig(std::vector<std::string> Replicas) {
  RouterConfig Cfg;
  Cfg.Replicas = std::move(Replicas);
  return Cfg;
}

} // namespace

TEST(DistribRouter, OwnershipIsDeterministicAndCoversAllReplicas) {
  Router R(ringConfig({"/tmp/a.sock", "/tmp/b.sock", "/tmp/c.sock"}));
  Router R2(ringConfig({"/tmp/a.sock", "/tmp/b.sock", "/tmp/c.sock"}));
  std::vector<size_t> Hits(3, 0);
  for (unsigned I = 0; I < 300; ++I) {
    std::string P = miniProgram(I);
    size_t Owner = R.ownerOf(P);
    ASSERT_LT(Owner, 3u);
    EXPECT_EQ(Owner, R2.ownerOf(P)) << "ring must be a pure function of "
                                       "the replica list";
    ++Hits[Owner];
  }
  for (size_t I = 0; I < 3; ++I)
    EXPECT_GT(Hits[I], 0u) << "replica " << I << " owns no keys";
}

TEST(DistribRouter, RemovingAReplicaOnlyMovesItsOwnKeys) {
  std::vector<std::string> Three = {"/tmp/a.sock", "/tmp/b.sock",
                                    "/tmp/c.sock"};
  Router R3(ringConfig(Three));
  Router R2(ringConfig({"/tmp/a.sock", "/tmp/b.sock"}));
  size_t Moved = 0, Kept = 0;
  for (unsigned I = 0; I < 300; ++I) {
    std::string P = miniProgram(I);
    size_t Owner3 = R3.ownerOf(P);
    if (Owner3 == 2) {
      ++Moved; // keys of the removed replica must redistribute
      continue;
    }
    // Consistent hashing: every other key keeps its owner (replica indices
    // 0/1 name the same addresses in both rings).
    EXPECT_EQ(R2.ownerOf(P), Owner3) << "key " << I << " moved although its "
                                        "owner stayed in the ring";
    ++Kept;
  }
  EXPECT_GT(Moved, 0u);
  EXPECT_GT(Kept, 0u);
}

TEST(DistribRouter, DownReplicaFailoverIsDeterministic) {
  std::vector<std::string> Addrs = {"/tmp/a.sock", "/tmp/b.sock",
                                    "/tmp/c.sock"};
  Router A(ringConfig(Addrs));
  Router B(ringConfig(Addrs));
  A.markDown(2);
  B.markDown(2);
  for (unsigned I = 0; I < 200; ++I) {
    std::string P = miniProgram(I);
    size_t Live = A.liveOwnerOf(P);
    ASSERT_LT(Live, 3u);
    EXPECT_NE(Live, 2u);
    EXPECT_EQ(Live, B.liveOwnerOf(P)) << "failover must be deterministic";
    if (A.ownerOf(P) != 2)
      EXPECT_EQ(Live, A.ownerOf(P)) << "healthy owners must not move";
  }
  A.markUp(2);
  for (unsigned I = 0; I < 200; ++I) {
    std::string P = miniProgram(I);
    EXPECT_EQ(A.liveOwnerOf(P), A.ownerOf(P));
  }
  // All down: no live owner.
  A.markDown(0);
  A.markDown(1);
  A.markDown(2);
  EXPECT_EQ(A.liveOwnerOf("x"), 3u);
}

TEST(DistribRouter, BadRequestAndAllReplicasDownErrors) {
  // Replicas that do not exist: the first forward attempt marks each down.
  Router R(ringConfig({"/tmp/uspec_nope_a.sock", "/tmp/uspec_nope_b.sock"}));

  std::string Resp = R.handleLine("this is not json");
  EXPECT_NE(Resp.find("\"kind\":\"bad_request\""), std::string::npos)
      << Resp;

  // Each failed forward marks one replica down (structured replica_down,
  // the transient kind `uspec query --retries` retries).
  std::string Prog = miniProgram(1);
  Resp = R.handleLine(analyzeRequest("q1", Prog));
  EXPECT_NE(Resp.find("\"kind\":\"replica_down\""), std::string::npos)
      << Resp;
  EXPECT_NE(Resp.find("marked down"), std::string::npos) << Resp;
  Resp = R.handleLine(analyzeRequest("q2", Prog));
  EXPECT_NE(Resp.find("\"kind\":\"replica_down\""), std::string::npos)
      << Resp;
  // Both replicas are now down: the router answers without a socket.
  Resp = R.handleLine(analyzeRequest("q3", Prog));
  EXPECT_NE(Resp.find("all 2 replicas down"), std::string::npos) << Resp;
  EXPECT_TRUE(R.isDown(0));
  EXPECT_TRUE(R.isDown(1));
  EXPECT_NE(R.statsJson().find("\"replica_down_errors\":3"),
            std::string::npos) << R.statsJson();
}

//===----------------------------------------------------------------------===//
// DistribRouter: live replicas (in-process service::Server on Unix sockets)
//===----------------------------------------------------------------------===//

namespace {

/// One in-process serve replica on a Unix socket, driven from a background
/// thread exactly like `uspec serve --socket`.
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
    // Wait for the socket to be bound.
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

} // namespace

TEST(DistribRouter, ForwardsVerbatimAndAggregatesFanOut) {
  std::string Dir = scratchDir("router_live");
  std::string SpecPath = Dir + "/specs.txt";
  writeFile(SpecPath, "RetSame(Map.get/1)\n");

  TestReplica RA, RB;
  ASSERT_TRUE(RA.start(Dir + "/ra.sock", SpecPath));
  ASSERT_TRUE(RB.start(Dir + "/rb.sock", SpecPath));

  Router R(ringConfig({RA.Path, RB.Path}));
  std::string Prog = miniProgram(0);
  std::string Line = analyzeRequest("fwd1", Prog);

  // The routed response is the replica's response, byte for byte.
  std::string Routed = R.handleLine(Line);
  size_t Owner = R.ownerOf(Prog);
  std::string Direct, Err;
  ASSERT_TRUE(clientRoundTrip(Owner == 0 ? RA.Path : RB.Path, Line, Direct,
                              &Err)) << Err;
  EXPECT_EQ(Routed, Direct);
  EXPECT_NE(Routed.find("\"ok\":true"), std::string::npos) << Routed;

  // stats fans out to every replica and nests their payloads.
  std::string Stats = R.handleLine("{\"id\":\"s1\",\"verb\":\"stats\"}");
  EXPECT_NE(Stats.find("\"router\""), std::string::npos) << Stats;
  EXPECT_NE(Stats.find(RA.Path), std::string::npos) << Stats;
  EXPECT_NE(Stats.find(RB.Path), std::string::npos) << Stats;
  EXPECT_NE(Stats.find("\"ok\":true"), std::string::npos) << Stats;

  // metrics aggregates router counters with each replica's exposition.
  std::string Metrics = R.handleLine("{\"id\":\"m1\",\"verb\":\"metrics\"}");
  EXPECT_NE(Metrics.find("uspec_router_requests_total"), std::string::npos)
      << Metrics;
  EXPECT_NE(Metrics.find("uspec_requests_admitted_total"), std::string::npos)
      << Metrics;
}

TEST(DistribRouter, BroadcastReloadSwapsEveryReplicaNoCacheBleed) {
  std::string Dir = scratchDir("router_reload");
  std::string SpecPath = Dir + "/specs.txt";
  writeFile(SpecPath, "RetSame(Map.get/1)\n");

  TestReplica RA, RB;
  ASSERT_TRUE(RA.start(Dir + "/ra.sock", SpecPath));
  ASSERT_TRUE(RB.start(Dir + "/rb.sock", SpecPath));
  Router R(ringConfig({RA.Path, RB.Path}));

  // Find one program owned by each replica so the assertions below prove
  // the broadcast reached the whole fleet.
  std::string ProgA, ProgB;
  for (unsigned I = 0; I < 1000 && (ProgA.empty() || ProgB.empty()); ++I) {
    std::string P = miniProgram(I);
    (R.ownerOf(P) == 0 ? ProgA : ProgB) = P;
  }
  ASSERT_FALSE(ProgA.empty());
  ASSERT_FALSE(ProgB.empty());

  // Both replicas answer (and cache) under the 1-spec model.
  std::string RespA = R.handleLine(analyzeRequest("a1", ProgA));
  std::string RespB = R.handleLine(analyzeRequest("b1", ProgB));
  EXPECT_NE(RespA.find("\"specs\":1"), std::string::npos) << RespA;
  EXPECT_NE(RespB.find("\"specs\":1"), std::string::npos) << RespB;

  // Swap the model file and broadcast a reload through the router.
  writeFile(SpecPath, "RetSame(Map.get/1)\nRetSame(List.get/1)\n");
  std::string Reload = R.handleLine("{\"id\":\"r1\",\"verb\":\"reload\"}");
  EXPECT_NE(Reload.find("\"reloaded\":2"), std::string::npos) << Reload;

  // The same programs now answer under the 2-spec model on BOTH replicas:
  // the old generation's cache entries (keyed by the old checksum) cannot
  // bleed into the new generation.
  RespA = R.handleLine(analyzeRequest("a2", ProgA));
  RespB = R.handleLine(analyzeRequest("b2", ProgB));
  EXPECT_NE(RespA.find("\"specs\":2"), std::string::npos) << RespA;
  EXPECT_NE(RespB.find("\"specs\":2"), std::string::npos) << RespB;
}

TEST(DistribRouter, DeadReplicaFailsOverAndRecovers) {
  std::string Dir = scratchDir("router_failover");
  std::string SpecPath = Dir + "/specs.txt";
  writeFile(SpecPath, "RetSame(Map.get/1)\n");

  TestReplica RA;
  ASSERT_TRUE(RA.start(Dir + "/ra.sock", SpecPath));
  // Replica B never starts: its socket path is dead.
  Router R(ringConfig({RA.Path, Dir + "/rb.sock"}));

  // A program owned by the dead replica: first attempt returns the
  // structured transient error and marks it down; the retry (exactly what
  // `uspec query --retries` does) deterministically lands on the live one.
  std::string Prog;
  for (unsigned I = 0; I < 1000; ++I)
    if (R.ownerOf(miniProgram(I)) == 1) {
      Prog = miniProgram(I);
      break;
    }
  ASSERT_FALSE(Prog.empty());

  std::string First = R.handleLine(analyzeRequest("f1", Prog));
  EXPECT_NE(First.find("\"kind\":\"replica_down\""), std::string::npos)
      << First;
  std::string Retry = R.handleLine(analyzeRequest("f2", Prog));
  EXPECT_NE(Retry.find("\"ok\":true"), std::string::npos) << Retry;
  EXPECT_EQ(R.liveOwnerOf(Prog), 0u);

  // A stats fan-out re-probes the dead replica (still down) and reports it.
  std::string Stats = R.handleLine("{\"id\":\"s\",\"verb\":\"stats\"}");
  EXPECT_NE(Stats.find("\"down\":[1]"), std::string::npos) << Stats;
  EXPECT_NE(Stats.find("\"ok\":false"), std::string::npos) << Stats;
}

//===----------------------------------------------------------------------===//
// DistribSelfHeal: supervisor, ring rejoin, hedging, warm-cache handoff
//===----------------------------------------------------------------------===//

namespace {

/// Directly queries a replica for its resident cache keys (the `cachekeys`
/// verb) and returns the raw payload.
std::string cacheKeysOf(const std::string &SockPath) {
  std::string Response, Err;
  if (!clientRoundTrip(SockPath, "{\"verb\":\"cachekeys\"}", Response, &Err)) {
    ADD_FAILURE() << "cachekeys round trip failed: " << Err;
    return "";
  }
  return Response;
}

} // namespace

// The pure-function claim behind the rejoin discipline: removing a replica
// from the ring and re-adding it restores the EXACT original key→replica
// assignment — no key that stayed moves, every key that moved comes back.
TEST(DistribSelfHeal, RingRemoveThenReaddRestoresExactAssignment) {
  std::vector<std::string> Addrs = {"/tmp/a.sock", "/tmp/b.sock",
                                    "/tmp/c.sock", "/tmp/d.sock"};
  Router R(ringConfig(Addrs));
  const unsigned Keys = 400;
  std::vector<size_t> Original(Keys);
  for (unsigned I = 0; I < Keys; ++I) {
    Original[I] = R.liveOwnerOf(miniProgram(I));
    ASSERT_LT(Original[I], Addrs.size());
  }
  for (size_t Dead = 0; Dead < Addrs.size(); ++Dead) {
    R.markDown(Dead);
    size_t Moved = 0;
    for (unsigned I = 0; I < Keys; ++I) {
      size_t Now = R.liveOwnerOf(miniProgram(I));
      ASSERT_NE(Now, Dead) << "down replica still owns keys";
      if (Original[I] == Dead)
        ++Moved; // its keys must land elsewhere...
      else
        EXPECT_EQ(Now, Original[I]) << "removal moved a foreign key";
    }
    EXPECT_GT(Moved, 0u) << "replica " << Dead << " owned nothing";
    R.markUp(Dead); // ...and come back exactly where they were.
    for (unsigned I = 0; I < Keys; ++I)
      ASSERT_EQ(R.liveOwnerOf(miniProgram(I)), Original[I])
          << "re-add did not restore the original assignment (key " << I
          << ", replica " << Dead << ")";
  }
}

// Satellite: a replica marked down must be reported `"down":true` in the
// stats aggregate (not silently listed as healthy), and the metrics
// exposition must carry the `uspec_router_replicas_up` gauge.
TEST(DistribSelfHeal, FanOutReportsPerReplicaDownAndUpGauge) {
  std::string Dir = scratchDir("selfheal_downflag");
  std::string SpecPath = Dir + "/specs.txt";
  writeFile(SpecPath, "RetSame(Map.get/1)\n");

  TestReplica RA;
  ASSERT_TRUE(RA.start(Dir + "/ra.sock", SpecPath));
  // Replica B is a dead socket path.
  Router R(ringConfig({RA.Path, Dir + "/rb.sock"}));

  std::string Stats = R.handleLine("{\"id\":\"s\",\"verb\":\"stats\"}");
  // Entry order follows the replica list: RA first (up), RB second (down).
  EXPECT_NE(Stats.find("\"down\":false,\"ok\":true"), std::string::npos)
      << Stats;
  EXPECT_NE(Stats.find("\"down\":true,\"ok\":false"), std::string::npos)
      << Stats;

  std::string Metrics = R.handleLine("{\"id\":\"m\",\"verb\":\"metrics\"}");
  EXPECT_NE(Metrics.find("uspec_router_replicas_up 1"), std::string::npos)
      << Metrics;
  EXPECT_NE(Metrics.find("uspec_router_replicas_down 1"), std::string::npos)
      << Metrics;
}

// The hedging dedup rule end to end: a request with `"no_cache":true` is
// answered byte-identically but never inserts into the replica's cache.
TEST(DistribSelfHeal, NoCacheRequestAnswersWithoutInserting) {
  std::string Dir = scratchDir("selfheal_nocache");
  std::string SpecPath = Dir + "/specs.txt";
  writeFile(SpecPath, "RetSame(Map.get/1)\n");

  TestReplica RA;
  ASSERT_TRUE(RA.start(Dir + "/ra.sock", SpecPath));

  EXPECT_NE(cacheKeysOf(RA.Path).find("\"count\":0"), std::string::npos);

  std::string Prog = miniProgram(7);
  std::string Plain = analyzeRequest("n1", Prog);
  std::string Hedge = Plain;
  Hedge.insert(Hedge.size() - 1, ",\"no_cache\":true");

  std::string HedgeResp, PlainResp, Err;
  ASSERT_TRUE(clientRoundTrip(RA.Path, Hedge, HedgeResp, &Err)) << Err;
  EXPECT_NE(HedgeResp.find("\"ok\":true"), std::string::npos) << HedgeResp;
  // Computed, answered — and the cache is still empty.
  EXPECT_NE(cacheKeysOf(RA.Path).find("\"count\":0"), std::string::npos);

  ASSERT_TRUE(clientRoundTrip(RA.Path, Plain, PlainResp, &Err)) << Err;
  // Identical id → identical bytes: no_cache changes caching, not answers.
  EXPECT_NE(Plain.find("n1"), std::string::npos);
  std::string HedgeBody = HedgeResp, PlainBody = PlainResp;
  EXPECT_EQ(HedgeBody, PlainBody);
  EXPECT_NE(cacheKeysOf(RA.Path).find("\"count\":1"), std::string::npos);
}

// Warm-cache handoff: after a replica dies and comes back cold, the router
// replays its hot request lines before marking it up, so the rejoined
// replica holds the exact fingerprint keys it served before the incident.
TEST(DistribSelfHeal, RejoinReplaysWarmKeysBeforeTakingTraffic) {
  std::string Dir = scratchDir("selfheal_warm");
  std::string SpecPath = Dir + "/specs.txt";
  writeFile(SpecPath, "RetSame(Map.get/1)\n");

  auto RA = std::make_unique<TestReplica>();
  ASSERT_TRUE(RA->start(Dir + "/ra.sock", SpecPath));
  TestReplica RB;
  ASSERT_TRUE(RB.start(Dir + "/rb.sock", SpecPath));

  RouterConfig Cfg = ringConfig({Dir + "/ra.sock", RB.Path});
  Cfg.WarmKeys = 8;
  Router R(Cfg);

  // Serve a few programs owned by replica 0 through the router: each
  // successful forward records the line in replica 0's warm set.
  unsigned ServedByA = 0;
  for (unsigned I = 0; I < 200 && ServedByA < 3; ++I) {
    std::string P = miniProgram(I);
    if (R.ownerOf(P) != 0)
      continue;
    std::string Resp =
        R.handleLine(analyzeRequest("w" + std::to_string(I), P));
    ASSERT_NE(Resp.find("\"ok\":true"), std::string::npos) << Resp;
    ++ServedByA;
  }
  ASSERT_EQ(ServedByA, 3u);
  // The salted programs are structurally identical but differ in a string
  // literal, so the replica's cache holds one entry per program.
  std::string HotKeys = cacheKeysOf(Dir + "/ra.sock");
  EXPECT_NE(HotKeys.find("\"count\":3"), std::string::npos) << HotKeys;

  // Replica 0 dies; a forward notices and marks it down.
  RA.reset();
  std::string P0;
  for (unsigned I = 0; I < 200; ++I)
    if (R.ownerOf(miniProgram(I)) == 0) {
      P0 = miniProgram(I);
      break;
    }
  (void)R.handleLine(analyzeRequest("dead", P0));
  ASSERT_TRUE(R.isDown(0));

  // It comes back with a cold cache...
  RA = std::make_unique<TestReplica>();
  ASSERT_TRUE(RA->start(Dir + "/ra.sock", SpecPath));
  EXPECT_NE(cacheKeysOf(Dir + "/ra.sock").find("\"count\":0"),
            std::string::npos);

  // ...and recoverReplica probes, replays the warm set, then marks up.
  ASSERT_TRUE(R.recoverReplica(0));
  EXPECT_FALSE(R.isDown(0));
  EXPECT_GE(R.rejoinsCount(), 1u);
  EXPECT_GE(R.warmReplaysCount(), 3u);
  // The rejoined replica holds the exact keys it served before the death.
  std::string Warmed = cacheKeysOf(Dir + "/ra.sock");
  EXPECT_EQ(Warmed, HotKeys);
}

// Hedging: when the primary owner is wedged, the hedge fires at the next
// ring owner after the delay and the answer is byte-identical to a direct
// query — the determinism contract makes the two replicas interchangeable.
TEST(DistribSelfHeal, HedgeWinsByteIdenticalWhenPrimaryIsWedged) {
  std::string Dir = scratchDir("selfheal_hedge");
  std::string SpecPath = Dir + "/specs.txt";
  writeFile(SpecPath, "RetSame(Map.get/1)\n");

  TestReplica RA, RB;
  RA.Cfg.EnableTestVerbs = true;
  RB.Cfg.EnableTestVerbs = true;
  ASSERT_TRUE(RA.start(Dir + "/ra.sock", SpecPath));
  ASSERT_TRUE(RB.start(Dir + "/rb.sock", SpecPath));

  RouterConfig Cfg = ringConfig({RA.Path, RB.Path});
  Cfg.HedgeMs = 25;
  Router R(Cfg);

  std::string Prog;
  for (unsigned I = 0; I < 200; ++I)
    if (R.ownerOf(miniProgram(I)) == 0) {
      Prog = miniProgram(I);
      break;
    }
  ASSERT_FALSE(Prog.empty());
  std::string Line = analyzeRequest("h1", Prog);
  std::string Direct, Err;
  ASSERT_TRUE(clientRoundTrip(RB.Path, Line + "", Direct, &Err)) << Err;
  // RB computed it with no_cache absent — clear its cache effect is fine;
  // byte-identity holds regardless of hit/miss.

  // Park BOTH of the primary's workers so the routed request cannot be
  // answered there within the hedge delay.
  service::Server *PrimaryServer =
      R.ownerOf(Prog) == 0 ? RA.S.get() : RB.S.get();
  TestReplica &Primary = R.ownerOf(Prog) == 0 ? RA : RB;
  std::thread Block1([&] {
    std::string Resp, E;
    clientRoundTrip(Primary.Path, "{\"verb\":\"test_block\"}", Resp, &E);
  });
  std::thread Block2([&] {
    std::string Resp, E;
    clientRoundTrip(Primary.Path, "{\"verb\":\"test_block\"}", Resp, &E);
  });
  // Give the blockers time to occupy both workers.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::string Routed = R.handleLine(Line);
  EXPECT_EQ(Routed, Direct) << "hedged answer must be byte-identical";
  EXPECT_GE(R.hedgedCount(), 1u);
  EXPECT_GE(R.hedgedWinsCount(), 1u);

  PrimaryServer->releaseTestGate();
  Block1.join();
  Block2.join();
}

// Fault sites: `router.probe` makes a healthy replica look dead for one
// tick (throw handled as probe failure, not thread death); `router.respawn`
// suppresses one spawn attempt while the backoff schedule advances.
TEST(DistribSelfHeal, ProbeAndRespawnFaultSitesAreDeterministic) {
  std::string Dir = scratchDir("selfheal_fault");
  std::string SpecPath = Dir + "/specs.txt";
  writeFile(SpecPath, "RetSame(Map.get/1)\n");

  TestReplica RA;
  ASSERT_TRUE(RA.start(Dir + "/ra.sock", SpecPath));
  Router R(ringConfig({RA.Path}));

  // First probe hits the armed throw → treated as a failed probe.
  armFault("router.probe", 1, FaultAction::Throw);
  R.superviseTick();
  EXPECT_TRUE(R.isDown(0));
  // Fault exhausted: the next tick probes for real and rejoins.
  R.superviseTick();
  EXPECT_FALSE(R.isDown(0));
  EXPECT_GE(R.rejoinsCount(), 1u);
  disarmFaults();

  // A dead replica with a respawn command: the armed soft fault eats the
  // first spawn attempt (attempt counted, nothing spawned).
  RouterConfig Cfg2 = ringConfig({Dir + "/never.sock"});
  Cfg2.RespawnCmd = "true"; // a no-op command; must not even run
  Router R2(Cfg2);
  armFault("router.respawn", 1, FaultAction::Soft);
  R2.superviseTick();
  EXPECT_EQ(R2.respawnsCount(), 1u);
  EXPECT_TRUE(R2.isDown(0));
  disarmFaults();
}

// End to end: kill -9 a real `uspec serve` replica; a supervising router
// detects the death, respawns it via the {socket} command template, rejoins
// it after a successful probe, and answers byte-identically throughout.
TEST(DistribSelfHeal, SupervisorRespawnsKilledReplicaEndToEnd) {
  std::string Dir = scratchDir("selfheal_respawn");
  std::string SpecPath = Dir + "/specs.txt";
  writeFile(SpecPath, "RetSame(Map.get/1)\n");
  std::string Sock = Dir + "/replica.sock";
  std::string PidFile = Dir + "/replica.pid";

  std::string ServeCmd = std::string(USPEC_CLI_PATH) + " serve --socket " +
                         Sock + " --specs " + SpecPath;
  RunResult Launch = runShell(ServeCmd + " >/dev/null 2>&1 & echo $! > " +
                              PidFile);
  ASSERT_EQ(Launch.ExitCode, 0);
  for (int I = 0; I < 200 && access(Sock.c_str(), F_OK) != 0; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(access(Sock.c_str(), F_OK), 0) << "replica never bound";

  RouterConfig Cfg = ringConfig({Sock});
  Cfg.RespawnCmd = ServeCmd; // {socket}-free: the path is fixed here
  Cfg.RespawnSeed = 42;
  Router R(Cfg);

  std::string Prog = miniProgram(3);
  std::string Line = analyzeRequest("e2e", Prog);
  std::string Before = R.handleLine(Line);
  ASSERT_NE(Before.find("\"ok\":true"), std::string::npos) << Before;

  // kill -9 the replica process.
  std::string Pid = readFile(PidFile);
  ASSERT_FALSE(Pid.empty());
  RunResult Kill = runShell("kill -9 " + Pid);
  ASSERT_EQ(Kill.ExitCode, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  // The supervisor notices, respawns, and rejoins once the probe succeeds.
  bool Recovered = false;
  for (int TickNo = 0; TickNo < 100 && !Recovered; ++TickNo) {
    R.superviseTick();
    Recovered = !R.isDown(0);
    if (!Recovered)
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_TRUE(Recovered) << "supervisor never recovered the replica";
  EXPECT_GE(R.respawnsCount(), 1u);
  EXPECT_GE(R.rejoinsCount(), 1u);

  // Byte-identical service after the incident.
  std::string After = R.handleLine(Line);
  EXPECT_EQ(After, Before);

  // Drain the respawned replica (it is orphaned to init, not our child).
  std::string Resp, Err;
  clientRoundTrip(Sock, "{\"verb\":\"shutdown\"}", Resp, &Err);
}
