//===- cli_test.cpp - Regression tests for uspec CLI arg handling --------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
// Drives the real `uspec` binary (path injected by CMake as USPEC_CLI_PATH)
// and pins the argument-handling contract: unknown subcommands and unknown
// flags name the offending token on stderr and exit with status 2; valid
// invocations keep working. Also covers `analyze --json` end to end.
//
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>

namespace {

struct RunResult {
  int ExitCode = -1;
  std::string Output; ///< stdout + stderr interleaved.
};

/// Runs `uspec <args>` through the shell, merging stderr into the captured
/// output.
RunResult runCli(const std::string &ArgString) {
  std::string Command = std::string(USPEC_CLI_PATH) + " " + ArgString + " 2>&1";
  RunResult R;
  FILE *Pipe = popen(Command.c_str(), "r");
  if (!Pipe) {
    ADD_FAILURE() << "popen failed for: " << Command;
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

/// Writes a small valid MiniLang program and returns its path.
std::string writeTinyProgram() {
  std::string Path = testing::TempDir() + "cli_test_prog.mini";
  std::ofstream Out(Path);
  Out << "class Main { def main() { var m = new Map(); m.put(\"k\", 1); "
         "var a = m.get(\"k\"); var b = m.get(\"k\"); } }\n";
  return Path;
}

std::string readAll(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Runs `uspec <args>` and expects exit status 2 with \p Message in the
/// output.
void expectRejected(const std::string &Args, const char *Message) {
  RunResult R = runCli(Args);
  EXPECT_EQ(R.ExitCode, 2) << Args << ": " << R.Output;
  EXPECT_NE(R.Output.find(Message), std::string::npos)
      << Args << ": " << R.Output;
}

} // namespace

TEST(Cli, UnknownSubcommandNamesTokenAndExits2) {
  struct Case {
    const char *Args;
    const char *Message;
  } Cases[] = {
      {"frobnicate", "unknown subcommand 'frobnicate'"},
      // The distributed-training worker was removed with its feature.
      {"worker --connect x", "unknown subcommand 'worker'"},
  };
  for (const Case &C : Cases) {
    RunResult R = runCli(C.Args);
    EXPECT_EQ(R.ExitCode, 2) << C.Args << ": " << R.Output;
    EXPECT_NE(R.Output.find(C.Message), std::string::npos)
        << C.Args << ": " << R.Output;
  }
}

TEST(Cli, UnknownFlagsNameTokenAndExit2) {
  struct Case {
    const char *Args;
    const char *Token;
  } Cases[] = {
      {"gen --bogus", "'--bogus'"},
      {"learn a.mini --frob", "'--frob'"},
      {"train a.mini --frob", "'--frob'"},
      // Flags of the removed distributed trainer.
      {"train a.mini -o r.uspb --distributed 2", "'--distributed'"},
      {"train a.mini -o r.uspb --listen x", "'--listen'"},
      {"train a.mini -o r.uspb --worker-threads 2", "'--worker-threads'"},
      {"train a.mini -o r.uspb --provenance", "'--provenance'"},
      {"select run.uspb --nope", "'--nope'"},
      {"analyze a.mini --wat", "'--wat'"},
      {"serve --listen", "'--listen'"},
      {"query --socket s --zap", "'--zap'"},
      {"check --strict", "'--strict'"},
  };
  for (const Case &C : Cases) {
    RunResult R = runCli(C.Args);
    EXPECT_EQ(R.ExitCode, 2) << C.Args << ": " << R.Output;
    EXPECT_NE(R.Output.find(C.Token), std::string::npos)
        << C.Args << ": " << R.Output;
  }
}

TEST(Cli, StrayPositionalsAreErrors) {
  RunResult R = runCli("select a.uspb extra.uspb");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("'extra.uspb'"), std::string::npos) << R.Output;

  R = runCli("analyze a.mini b.mini");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("'b.mini'"), std::string::npos) << R.Output;

  R = runCli("info a.uspb b.uspb");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("'b.uspb'"), std::string::npos) << R.Output;
}

TEST(Cli, MissingOptionValuesAreNamed) {
  struct Case {
    const char *Args;
    const char *Option;
  } Cases[] = {
      {"gen --seed", "'--seed'"},
      {"learn a.mini -o", "'-o'"},
      {"analyze --specs", "'--specs'"},
      {"serve --workers", "'--workers'"},
      {"query --socket", "'--socket'"},
  };
  for (const Case &C : Cases) {
    RunResult R = runCli(C.Args);
    EXPECT_EQ(R.ExitCode, 2) << C.Args << ": " << R.Output;
    EXPECT_NE(R.Output.find(C.Option), std::string::npos)
        << C.Args << ": " << R.Output;
    EXPECT_NE(R.Output.find("requires a value"), std::string::npos)
        << C.Args << ": " << R.Output;
  }
}

// A negative value does not wrap to 2^64-1.
TEST(Cli, NegativeSeedIsRejected) {
  std::string Artifact = testing::TempDir() + "cli_test_negative_seed.uspb";
  std::filesystem::remove(Artifact);
  expectRejected("train " + writeTinyProgram() + " -o " + Artifact +
                     " --seed -1",
                 "error: --seed expects an unsigned integer, got '-1'");
  EXPECT_FALSE(std::filesystem::exists(Artifact));
}

// A value past the target's width is not truncated (to 1 thread here).
TEST(Cli, ThreadsPastTheirWidthAreRejected) {
  expectRejected("learn " + writeTinyProgram() + " --threads 4294967297",
                 "error: --threads must be at most 4294967295");
}

// Truncated, 2^32 vnodes would pass the lower bound and become 0.
TEST(Cli, VnodesPastTheirWidthAreRejected) {
  expectRejected("route --socket /nonexistent/dir/r.sock --replicas "
                 "/nonexistent/dir/a.sock --vnodes 4294967296",
                 "error: --vnodes must be at most 4294967295");
}

// No threshold is NaN: it would select nothing and never compare equal.
TEST(Cli, TauMustBeFinite) {
  expectRejected("learn " + writeTinyProgram() + " --tau nan",
                 "error: --tau expects a finite number, got 'nan'");
}

// An unknown profile is an error, not the Java profile.
TEST(Cli, GenProfileIsJavaOrPython) {
  std::string Dir = testing::TempDir() + "cli_test_rust";
  std::filesystem::remove_all(Dir);
  expectRejected("gen --profile rust -n 2 -o " + Dir,
                 "error: --profile expects java|python, got 'rust'");
  EXPECT_FALSE(std::filesystem::exists(Dir));
}

// The lower bound is named before any connect.
TEST(Cli, ObsTopIntervalMustBeAtLeastOne) {
  expectRejected("obs top --socket /nonexistent/dir/o.sock --interval-ms 0",
                 "error: --interval-ms must be at least 1");
}

TEST(Cli, NoArgumentsPrintsUsage) {
  RunResult R = runCli("");
  EXPECT_EQ(R.ExitCode, 2);
  EXPECT_NE(R.Output.find("usage:"), std::string::npos) << R.Output;
}

// A socket that cannot be bound is named with the OS reason, and nothing
// claims to be listening on it.
TEST(Cli, ServeBindFailureNamesPathAndReason) {
  RunResult Missing = runCli("serve --socket /nonexistent/dir/x.sock");
  EXPECT_EQ(Missing.ExitCode, 1) << Missing.Output;
  EXPECT_NE(Missing.Output.find("error: cannot listen on "
                                "unix:/nonexistent/dir/x.sock: No such file "
                                "or directory"),
            std::string::npos)
      << Missing.Output;
  EXPECT_EQ(Missing.Output.find("listening on"), std::string::npos)
      << Missing.Output;

  std::string Long = "/tmp/" + std::string(114, 'a') + ".sock"; // 124 chars
  RunResult TooLong = runCli("serve --socket " + Long);
  EXPECT_EQ(TooLong.ExitCode, 1) << TooLong.Output;
  EXPECT_NE(TooLong.Output.find("error: socket path too long: " + Long),
            std::string::npos)
      << TooLong.Output;
  EXPECT_EQ(TooLong.Output.find("listening on"), std::string::npos)
      << TooLong.Output;
}

TEST(Cli, RouteBindFailureNamesPathAndReason) {
  RunResult Missing = runCli("route --socket /nonexistent/dir/r.sock "
                             "--replicas /nonexistent/dir/a.sock");
  EXPECT_EQ(Missing.ExitCode, 1) << Missing.Output;
  EXPECT_NE(Missing.Output.find("error: cannot listen on "
                                "unix:/nonexistent/dir/r.sock: No such file "
                                "or directory"),
            std::string::npos)
      << Missing.Output;
  EXPECT_EQ(Missing.Output.find("listening on"), std::string::npos)
      << Missing.Output;

  std::string Long = "/tmp/" + std::string(114, 'r') + ".sock"; // 124 chars
  RunResult TooLong =
      runCli("route --socket " + Long + " --replicas /nonexistent/dir/a.sock");
  EXPECT_EQ(TooLong.ExitCode, 1) << TooLong.Output;
  EXPECT_NE(TooLong.Output.find("error: socket path too long: " + Long),
            std::string::npos)
      << TooLong.Output;
  EXPECT_EQ(TooLong.Output.find("listening on"), std::string::npos)
      << TooLong.Output;
}

TEST(Cli, ValidInvocationsStillWork) {
  std::string Prog = writeTinyProgram();

  RunResult Check = runCli("check " + Prog);
  EXPECT_EQ(Check.ExitCode, 0) << Check.Output;
  EXPECT_NE(Check.Output.find("ok"), std::string::npos) << Check.Output;

  RunResult Analyze = runCli("analyze " + Prog);
  EXPECT_EQ(Analyze.ExitCode, 0) << Analyze.Output;
  EXPECT_NE(Analyze.Output.find("aliasing pairs"), std::string::npos)
      << Analyze.Output;
}

TEST(Cli, AnalyzeJsonEmitsOneJsonLine) {
  std::string Prog = writeTinyProgram();
  RunResult R = runCli("analyze " + Prog + " --json");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  ASSERT_FALSE(R.Output.empty());
  // One line, a JSON object with the analyze payload fields.
  EXPECT_EQ(R.Output.find('\n'), R.Output.size() - 1) << R.Output;
  EXPECT_EQ(R.Output.front(), '{');
  for (const char *Field : {"\"specs\":", "\"fingerprint\":",
                            "\"alias_pairs\":", "\"alias_count\":"})
    EXPECT_NE(R.Output.find(Field), std::string::npos)
        << Field << " missing in " << R.Output;

  // Deterministic across runs.
  EXPECT_EQ(runCli("analyze " + Prog + " --json").Output, R.Output);
}

TEST(Cli, AnalyzeJsonReportsParseErrorsAsJson) {
  std::string Path = testing::TempDir() + "cli_test_broken.mini";
  std::ofstream(Path) << "class {";
  RunResult R = runCli("analyze " + Path + " --json");
  EXPECT_EQ(R.ExitCode, 1);
  EXPECT_NE(R.Output.find("\"error\":{\"kind\":\"parse_error\""),
            std::string::npos)
      << R.Output;
}

// `--specs S` and `--model M` of the same selection print the same pairs
// and write the same event graph: both run the service engine on the
// canonical spec text.
TEST(Cli, AnalyzeSpecsAndModelOfOneSelectionAgree) {
  std::string Dir = testing::TempDir() + "cli_test_select";
  std::filesystem::remove_all(Dir);
  std::string Model = Dir + "/run.uspb", Specs = Dir + "/specs.txt",
              Dot = Dir + "/g.dot", Prog = Dir + "/corpus/prog1.mini";
  ASSERT_EQ(runCli("gen --profile java -n 30 --seed 3 -o " + Dir + "/corpus")
                .ExitCode,
            0);
  ASSERT_EQ(runCli("train " + Dir + "/corpus/*.mini -o " + Model).ExitCode, 0);
  ASSERT_EQ(runCli("select " + Model + " -o " + Specs).ExitCode, 0);

  RunResult FromSpecs = runCli("analyze " + Prog + " --specs " + Specs +
                               " --dot " + Dot);
  ASSERT_EQ(FromSpecs.ExitCode, 0) << FromSpecs.Output;
  std::string SpecsDot = readAll(Dot);
  RunResult FromModel = runCli("analyze " + Prog + " --model " + Model +
                               " --dot " + Dot);
  ASSERT_EQ(FromModel.ExitCode, 0) << FromModel.Output;
  EXPECT_EQ(FromSpecs.Output.find("loaded 0 "), std::string::npos)
      << FromSpecs.Output;
  // Only the first line differs: it names where the specs came from.
  auto Body = [](const std::string &Out) { return Out.substr(Out.find('\n')); };
  EXPECT_EQ(Body(FromSpecs.Output), Body(FromModel.Output));
  EXPECT_FALSE(SpecsDot.empty());
  EXPECT_EQ(SpecsDot, readAll(Dot));
}
