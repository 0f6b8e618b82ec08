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
#include <fstream>
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
