//===- uspec.cpp - The USpec command-line tool ----------------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
// One binary, one subcommand per step of the workflow: gen, learn, train,
// ingest, select, info, analyze, check, serve, route, query and obs. Each
// subcommand's options are its option table below, and `uspec` with no
// arguments prints every table as usage text. README "Command-line tool"
// and the sections after it describe what each subcommand does.
//
//===----------------------------------------------------------------------===//

#include "artifact/Checkpoint.h"
#include "artifact/Container.h"
#include "core/USpec.h"
#include "corpus/Dedup.h"
#include "corpus/Generator.h"
#include "corpus/Profiles.h"
#include "distrib/Router.h"
#include "eventgraph/Dot.h"
#include "incremental/Journal.h"
#include "incremental/Trainer.h"
#include "service/LineServer.h"
#include "service/Server.h"
#include "specs/SpecIO.h"
#include "support/EventLog.h"
#include "support/Trace.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string_view>
#include <thread>
#include <variant>

#include <unistd.h>

using namespace uspec;

namespace {

//===----------------------------------------------------------------------===//
// Command lines: one option table per subcommand, one parse loop
//===----------------------------------------------------------------------===//

/// Argument cursor over argv after the subcommand. In usage mode a
/// subcommand does no work: Command::parse prints its usage line instead.
struct Args {
  int Argc;
  char **Argv;
  int Pos = 2;
  bool UsageOnly = false;

  const char *next() { return Pos < Argc ? Argv[Pos++] : nullptr; }
};

/// Prints the usage of subcommand \p Only (every subcommand when null),
/// each line generated from its option table. Returns exit status 2.
int usage(const char *Only = nullptr);

/// Unknown flag / stray positional: name the offending token, print the
/// subcommand's usage and exit 2.
int unknownToken(const char *Cmd, const char *Token) {
  std::fprintf(stderr, "error: unknown %s '%s' for 'uspec %s'\n",
               Token[0] == '-' ? "option" : "argument", Token, Cmd);
  return usage(Cmd);
}

/// A value from a fixed set: one of the '|'-separated words of the row's
/// metavariable (`--profile java|python`).
struct Choice {
  std::string *Out;
};

/// One row of an option table: the flag (an alias gets its own row), what it
/// sets, and the value's name in the usage text. A bool target is a bare
/// flag; every other target takes the next token verbatim as its value. An
/// unsigned target takes digits only, within its own width and at least
/// Min; a double must be finite; a vector collects a repeated option.
struct Opt {
  const char *Flag;
  std::variant<bool *, std::string *, std::vector<std::string> *, Choice,
               unsigned *, unsigned long *, unsigned long long *, double *>
      Target;
  const char *Meta = "";
  uint64_t Min = 0;

  bool takesValue() const { return !std::holds_alternative<bool *>(Target); }
  /// Stores \p V (null for a bare flag); false after printing why not.
  bool set(const char *V) const;
};

template <class... Fs> struct Overload : Fs... {
  using Fs::operator()...;
};

/// Parses digits into \p Out, checked against T's range and \p O.Min.
template <class T> bool parseUnsigned(const Opt &O, const char *V, T &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long Val = std::strtoull(V, &End, 10);
  // strtoull skips blanks and negates after a '-': demand digits only.
  if (!std::isdigit(static_cast<unsigned char>(*V)) || *End) {
    std::fprintf(stderr, "error: %s expects an unsigned integer, got '%s'\n",
                 O.Flag, V);
    return false;
  }
  constexpr unsigned long long Max = std::numeric_limits<T>::max();
  if (errno == ERANGE || Val > Max) {
    std::fprintf(stderr, "error: %s must be at most %llu\n", O.Flag, Max);
    return false;
  }
  if (Val < O.Min) {
    std::fprintf(stderr, "error: %s must be at least %llu\n", O.Flag,
                 static_cast<unsigned long long>(O.Min));
    return false;
  }
  Out = static_cast<T>(Val);
  return true;
}

/// Rejects empty or partial parses, so `--tau banana` errors instead of
/// silently becoming 0, and NaN or infinity, which no threshold means.
bool parseFinite(const Opt &O, const char *V, double &Out) {
  char *End = nullptr;
  double Val = std::strtod(V, &End);
  if (End == V || *End) {
    std::fprintf(stderr, "error: %s expects a number, got '%s'\n", O.Flag, V);
    return false;
  }
  if (!std::isfinite(Val)) {
    std::fprintf(stderr, "error: %s expects a finite number, got '%s'\n",
                 O.Flag, V);
    return false;
  }
  Out = Val;
  return true;
}

bool parseChoice(const Opt &O, const char *V, std::string &Out) {
  for (std::string_view Words = O.Meta;;) {
    size_t Bar = Words.find('|');
    if (Words.substr(0, Bar) == V) {
      Out = V;
      return true;
    }
    if (Bar == std::string_view::npos)
      break;
    Words.remove_prefix(Bar + 1);
  }
  std::fprintf(stderr, "error: %s expects %s, got '%s'\n", O.Flag, O.Meta, V);
  return false;
}

bool Opt::set(const char *V) const {
  return std::visit(
      Overload{
          [](bool *Out) {
            *Out = true;
            return true;
          },
          [&](std::string *Out) {
            *Out = V;
            return true;
          },
          [&](std::vector<std::string> *Out) {
            Out->push_back(V);
            return true;
          },
          [&](Choice C) { return parseChoice(*this, V, *C.Out); },
          [&](double *Out) { return parseFinite(*this, V, *Out); },
          [&](auto *Out) { return parseUnsigned(*this, V, *Out); }},
      Target);
}

/// A subcommand's command line: its name in messages, the positionals of
/// its usage line, and its option table.
struct Command {
  const char *Name;
  const char *Synopsis;
  std::vector<Opt> Opts;

  /// Prints `uspec NAME SYNOPSIS [FLAG META]...`, one item per row.
  void printUsage() const {
    std::string Line = std::string("  uspec ") + Name;
    const size_t Indent = Line.size();
    if (*Synopsis)
      Line += std::string(" ") + Synopsis;
    for (const Opt &O : Opts) {
      std::string Item = std::string("[") + O.Flag;
      if (O.takesValue())
        Item += std::string(" ") + O.Meta;
      Item += std::holds_alternative<std::vector<std::string> *>(O.Target)
                  ? "]..."
                  : "]";
      if (Line.size() + 1 + Item.size() > 79 && Line.size() > Indent) {
        std::fprintf(stderr, "%s\n", Line.c_str());
        Line.assign(Indent, ' ');
      }
      Line += " " + Item;
    }
    std::fprintf(stderr, "%s\n", Line.c_str());
  }

  /// Reads the rest of \p A: sets each option's target and appends up to
  /// \p MaxPos positionals to \p Pos (none without \p Pos). False after
  /// printing the error, or in usage mode after printing the usage line.
  bool parse(Args &A, std::vector<std::string> *Pos = nullptr,
             size_t MaxPos = SIZE_MAX) const {
    if (A.UsageOnly) {
      printUsage();
      return false;
    }
    while (const char *Arg = A.next()) {
      const Opt *O = nullptr;
      for (const Opt &Row : Opts)
        if (std::string_view(Row.Flag) == Arg) {
          O = &Row;
          break;
        }
      if (!O) {
        if ((Arg[0] == '-' && Arg[1] != '\0') || !Pos ||
            Pos->size() >= MaxPos) {
          unknownToken(Name, Arg);
          return false;
        }
        Pos->push_back(Arg);
        continue;
      }
      const char *V = O->takesValue() ? A.next() : nullptr;
      if (O->takesValue() && !V) {
        std::fprintf(stderr,
                     "error: option '%s' for 'uspec %s' requires a value\n",
                     Arg, Name);
        return false;
      }
      if (!O->set(V))
        return false;
    }
    return true;
  }
};

/// Reads a whole file (binary-safe); on failure prints the path and the OS
/// error and returns nullopt.
std::optional<std::string> readFile(const std::string &Path) {
  errno = 0;
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "error: cannot read %s: %s\n", Path.c_str(),
                 errno ? std::strerror(errno) : "unknown error");
    return std::nullopt;
  }
  std::ostringstream Out;
  Out << In.rdbuf();
  if (In.bad()) {
    std::fprintf(stderr, "error: cannot read %s: %s\n", Path.c_str(),
                 errno ? std::strerror(errno) : "I/O error");
    return std::nullopt;
  }
  return Out.str();
}

/// Writes a whole file (binary-safe); on failure prints the path and the OS
/// error.
bool writeFile(const std::string &Path, const std::string &Content) {
  errno = 0;
  std::ofstream Out(Path, std::ios::binary);
  if (Out)
    Out << Content;
  if (Out)
    Out.flush();
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s: %s\n", Path.c_str(),
                 errno ? std::strerror(errno) : "I/O error");
    return false;
  }
  return true;
}

/// Starts the --trace and --events sinks that were asked for ("" = not).
/// False, with the reason printed, when one cannot be opened.
bool startTelemetry(const std::string &TracePath,
                    const std::string &EventsPath) {
  std::string Err;
  if ((TracePath.empty() || trace::startToFile(TracePath, &Err)) &&
      (EventsPath.empty() ||
       events::startToFile(EventsPath, /*MaxBytes=*/0, &Err)))
    return true;
  std::fprintf(stderr, "error: %s\n", Err.c_str());
  return false;
}

int cmdGen(Args &A) {
  std::string ProfileName = "java", OutDir;
  size_t N = 100;
  uint64_t Seed = 1;
  const Command C{"gen",
                  "",
                  {{"--profile", Choice{&ProfileName}, "java|python"},
                   {"-n", &N, "N"},
                   {"-o", &OutDir, "DIR"},
                   {"--seed", &Seed, "S"}}};
  if (!C.parse(A))
    return 2;
  if (OutDir.empty()) {
    std::fprintf(stderr, "error: gen requires -o DIR\n");
    return usage("gen");
  }
  LanguageProfile Profile =
      ProfileName == "python" ? pythonProfile() : javaProfile();
  std::filesystem::create_directories(OutDir);
  GeneratorConfig Cfg;
  Rng Rand(Seed);
  for (size_t I = 0; I < N; ++I) {
    std::string Source = generateProgramSource(Profile, Cfg, Rand);
    std::string Path =
        OutDir + "/prog" + std::to_string(I) + ".mini";
    if (!writeFile(Path, Source))
      return 1;
  }
  std::fprintf(stderr, "wrote %zu %s programs to %s\n", N,
               Profile.Name.c_str(), OutDir.c_str());
  return 0;
}

/// Parses + lowers \p Files; also records one manifest entry per program.
/// By default a file that cannot be read or parsed is *quarantined*: it is
/// reported on stderr, recorded in \p Quarantined (by its index in \p Files)
/// and never enters the corpus or manifest, so one rotten file cannot sink
/// a whole training run. \p Strict restores the old abort-on-first-error
/// behavior (`learn/train --strict`).
bool loadCorpus(const std::vector<std::string> &Files, StringInterner &Strings,
                std::vector<IRProgram> &Corpus, CorpusManifest &Manifest,
                bool Strict, std::vector<QuarantineRecord> &Quarantined) {
  // One span for the whole loop (file reads included), none per program.
  TraceSpan Span("ir.parse_lower");
  size_t Bytes = 0;
  for (size_t I = 0; I < Files.size(); ++I) {
    const std::string &Path = Files[I];
    auto Source = readFile(Path);
    if (!Source) {
      if (Strict)
        return false;
      std::fprintf(stderr, "warning: quarantined %s (unreadable)\n",
                   Path.c_str());
      Quarantined.push_back({I, Path, "read"});
      continue;
    }
    Bytes += Source->size();
    DiagnosticSink Diags;
    auto P = parseAndLower(*Source, Path, Strings, Diags);
    if (!P) {
      std::fprintf(stderr, "%s:\n%s", Path.c_str(), Diags.render().c_str());
      if (Strict)
        return false;
      std::fprintf(stderr, "warning: quarantined %s (parse error)\n",
                   Path.c_str());
      Quarantined.push_back({I, Path, "parse"});
      continue;
    }
    Manifest.Entries.push_back({Path, programFingerprint(*P)});
    Corpus.push_back(std::move(*P));
  }
  if (Span.active()) {
    Span.arg("programs", std::to_string(Files.size()));
    Span.arg("bytes", std::to_string(Bytes));
  }
  if (Corpus.empty()) {
    std::fprintf(stderr, "error: no loadable programs in the corpus\n");
    return false;
  }
  return true;
}

/// Prints the per-run summary + candidate table to stderr (shared by
/// learn/train/select so their diagnostics line up).
void printCandidates(const StringInterner &Strings, size_t NumPrograms,
                     const std::vector<ScoredCandidate> &Candidates,
                     size_t NumSelected, double Tau) {
  std::fprintf(stderr, "%zu programs, %zu candidates, %zu selected "
               "(tau=%.2f)\n",
               NumPrograms, Candidates.size(), NumSelected, Tau);
  for (const ScoredCandidate &C : Candidates)
    std::fprintf(stderr, "  %-55s %.3f (%zu matches)\n",
                 C.S.str(Strings).c_str(), C.Score, C.Matches);
}

/// Shared implementation of `learn` (text specs out) and `train` (USPB
/// artifact out).
int cmdLearnOrTrain(Args &A, bool Train) {
  std::vector<std::string> Files;
  std::string OutPath, TracePath, EventsPath, JournalPath;
  LearnerConfig Cfg; // --threads 0 = hardware concurrency
  bool Dedup = false, Stats = false, Strict = false, Resume = false;
  bool Replay = false;
  const char *Cmd = Train ? "train" : "learn";
  Command C{Cmd,
            "FILES...",
            {{"-o", &OutPath, Train ? "run.uspb" : "specs.txt"},
             {"--tau", &Cfg.Tau, "X"},
             {"--seed", &Cfg.Seed, "S"},
             {"--dedup", &Dedup},
             {"--threads", &Cfg.Threads, "N"},
             {"--stats", &Stats},
             {"--strict", &Strict},
             {"--step-budget", &Cfg.ProgramStepBudget, "N"},
             {"--trace", &TracePath, "t.json"},
             {"--events", &EventsPath, "e.jsonl"}}};
  if (Train)
    C.Opts.insert(C.Opts.end(), {{"--resume", &Resume},
                                 {"--journal", &JournalPath, "corpus.uspj"},
                                 {"--replay", &Replay}});
  if (!C.parse(A, &Files))
    return 2;
  if (Files.empty() && JournalPath.empty())
    return usage(Cmd);
  if (Train && OutPath.empty()) {
    std::fprintf(stderr, "error: train requires -o ARTIFACT\n");
    return usage(Cmd);
  }
  if (!JournalPath.empty()) {
    if (!Files.empty())
      return unknownToken(Cmd, Files.front().c_str());
    if (Dedup || Strict || Resume) {
      std::fprintf(stderr, "error: --journal is incompatible with --dedup, "
                           "--strict and --resume (entries are validated at "
                           "ingest; lineage replaces --resume)\n");
      return 2;
    }
  } else if (Replay) {
    std::fprintf(stderr, "error: --replay requires --journal\n");
    return 2;
  }
  if (!startTelemetry(TracePath, EventsPath))
    return 2;

  if (!JournalPath.empty()) {
    incremental::CorpusJournal J;
    std::string Err;
    if (!incremental::loadJournal(JournalPath, J, /*MissingOk=*/false,
                                  &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    // The artifact at -o anchors the lineage: its "jrnl" section records how
    // far a previous run trained. Absent just means a full run; unreadable
    // bytes demote to full inside trainFromJournal.
    std::string PrevBytes;
    std::error_code Ec;
    if (std::filesystem::exists(OutPath, Ec)) {
      auto Bytes = readFile(OutPath);
      if (!Bytes)
        return 1;
      PrevBytes = std::move(*Bytes);
    }
    StringInterner Strings;
    auto Outcome = incremental::trainFromJournal(J, Cfg, Strings, PrevBytes,
                                                 Replay, &Err);
    if (!Outcome) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    for (const std::string &Note : Outcome->Notes)
      std::fprintf(stderr, "note: %s\n", Note.c_str());
    if (Outcome->Mode == incremental::TrainMode::UpToDate) {
      std::fprintf(stderr,
                   "%s is up to date with %s (generation %llu, %zu entries); "
                   "nothing to train\n",
                   OutPath.c_str(), JournalPath.c_str(),
                   static_cast<unsigned long long>(J.lastGeneration()),
                   J.Entries.size());
      return 0;
    }
    printCandidates(Strings, J.Entries.size(), Outcome->Result.Candidates,
                    Outcome->Result.Selected.size(), Cfg.Tau);
    if (Stats)
      std::fprintf(stderr, "%s\n", Outcome->Result.Stats.json().c_str());
    // Warm runs quantify the spec-level change against the prior artifact
    // (the byte-identity contract belongs to --replay, not warm-start).
    if (!Outcome->DiffJson.empty())
      std::fprintf(stderr, "diff: %s\n", Outcome->DiffJson.c_str());
    std::string WriteErr;
    if (!writeFileAtomic(OutPath,
                         saveLearnArtifacts(Outcome->Result, Cfg, Strings,
                                            Outcome->Manifest,
                                            &Outcome->Lineage,
                                            &Outcome->Result.Ledger),
                         &WriteErr)) {
      std::fprintf(stderr, "error: %s\n", WriteErr.c_str());
      return 1;
    }
    std::fprintf(
        stderr,
        "wrote artifact %s (%s, %zu of %zu journal entries trained this "
        "run, generation %llu)\n",
        OutPath.c_str(),
        std::string(incremental::trainModeName(Outcome->Mode)).c_str(),
        Outcome->ProgramsTrained, J.Entries.size(),
        static_cast<unsigned long long>(Outcome->Lineage.Generation));
    return 0;
  }

  StringInterner Strings;
  std::vector<IRProgram> Corpus;
  CorpusManifest Manifest;
  std::vector<QuarantineRecord> ParseQuarantine;
  if (!loadCorpus(Files, Strings, Corpus, Manifest, Strict, ParseQuarantine))
    return 1;

  if (Dedup) {
    std::vector<size_t> Dups = duplicateIndices(Corpus);
    for (size_t I = Dups.size(); I-- > 0;)
      Manifest.Entries.erase(Manifest.Entries.begin() +
                             static_cast<long>(Dups[I]));
    size_t Removed = dedupeCorpus(Corpus);
    std::fprintf(stderr, "dedup: removed %zu duplicate program(s)\n",
                 Removed);
  }

  if (Train && Resume) {
    // A previous run killed mid-write leaves a ".tmp" next to the artifact;
    // the artifact itself is either absent or a complete older version
    // (writeFileAtomic renames atomically), so it is safe to inspect.
    std::string Warning;
    if (discardStaleTemp(OutPath, &Warning))
      std::fprintf(stderr, "warning: %s\n", Warning.c_str());
    std::error_code Ec;
    if (std::filesystem::exists(OutPath, Ec)) {
      auto Bytes = readFile(OutPath);
      if (!Bytes)
        return 1;
      StringInterner OldStrings;
      ArtifactError Err;
      auto Old = loadLearnArtifacts(*Bytes, OldStrings, &Err);
      if (Old && Old->Manifest.sameCorpus(Manifest) &&
          Old->Config.Tau == Cfg.Tau && Old->Config.Seed == Cfg.Seed) {
        std::fprintf(stderr,
                     "resume: %s is up to date (same corpus, tau, seed); "
                     "skipping retrain\n",
                     OutPath.c_str());
        return 0;
      }
      std::fprintf(stderr, "resume: %s %s; retraining\n", OutPath.c_str(),
                   Old ? "was trained on a different corpus/config"
                       : "is not a loadable artifact");
    }
  }

  USpecLearner Learner(Strings, Cfg);
  LearnResult Result = Learner.learn(Corpus);
  printCandidates(Strings, Corpus.size(), Result.Candidates,
                  Result.Selected.size(), Cfg.Tau);
  // Specs/artifacts go to stdout or -o; stats stay on stderr so pipelines
  // that consume the primary output are unaffected.
  if (Stats) {
    // CLI-level parse quarantine (indices into the FILES list) goes in
    // front of the learner's in-corpus quarantine records.
    Result.Stats.Quarantined.insert(Result.Stats.Quarantined.begin(),
                                    ParseQuarantine.begin(),
                                    ParseQuarantine.end());
    std::fprintf(stderr, "%s\n", Result.Stats.json().c_str());
  }

  if (Train) {
    std::string WriteErr;
    if (!writeFileAtomic(OutPath,
                         saveLearnArtifacts(Result, Cfg, Strings, Manifest),
                         &WriteErr)) {
      std::fprintf(stderr, "error: %s\n", WriteErr.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote artifact %s (%zu programs, %zu candidates)\n",
                 OutPath.c_str(), Manifest.Entries.size(),
                 Result.Candidates.size());
    return 0;
  }

  std::string Text = serializeSpecs(Result.Selected, Strings);
  if (OutPath.empty()) {
    std::fputs(Text.c_str(), stdout);
    return 0;
  }
  if (!writeFile(OutPath, Text))
    return 1;
  std::fprintf(stderr, "wrote %s\n", OutPath.c_str());
  return 0;
}

/// `uspec ingest FILES... -j corpus.uspj`: parse-validate every file, then
/// append them all as one new generation. All-or-nothing: a file that fails
/// to read or parse aborts before any byte of the journal is rewritten.
int cmdIngest(Args &A) {
  std::vector<std::string> Files;
  std::string JournalPath;
  const Command C{"ingest",
                  "FILES...",
                  {{"-j", &JournalPath, "corpus.uspj"},
                   {"--journal", &JournalPath, "corpus.uspj"}}};
  if (!C.parse(A, &Files))
    return 2;
  if (Files.empty() || JournalPath.empty()) {
    std::fprintf(stderr, "error: ingest requires FILES... and -j JOURNAL\n");
    return usage("ingest");
  }

  incremental::CorpusJournal J;
  std::string Err;
  if (!incremental::loadJournal(JournalPath, J, /*MissingOk=*/true, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  uint64_t Generation = J.lastGeneration() + 1;
  for (const std::string &Path : Files) {
    auto Source = readFile(Path);
    if (!Source) {
      std::fprintf(stderr, "error: ingest aborted; %s unchanged\n",
                   JournalPath.c_str());
      return 1;
    }
    StringInterner Strings;
    DiagnosticSink Diags;
    if (!parseAndLower(*Source, Path, Strings, Diags)) {
      std::fprintf(stderr, "%s:\n%s", Path.c_str(), Diags.render().c_str());
      std::fprintf(stderr, "error: ingest aborted; %s unchanged\n",
                   JournalPath.c_str());
      return 1;
    }
    J.append(Generation, Path, std::move(*Source));
  }
  if (!incremental::saveJournal(JournalPath, J, &Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "ingested %zu program(s) into %s as generation %llu "
               "(%zu entries total, chain %016llx)\n",
               Files.size(), JournalPath.c_str(),
               static_cast<unsigned long long>(Generation), J.Entries.size(),
               static_cast<unsigned long long>(J.chainChecksum()));
  return 0;
}

int cmdSelect(Args &A) {
  std::vector<std::string> Pos;
  std::string OutPath;
  double Tau = NAN; // not given: a --tau value is always finite
  const Command C{"select",
                  "run.uspb",
                  {{"--tau", &Tau, "X"}, {"-o", &OutPath, "specs.txt"}}};
  if (!C.parse(A, &Pos, 1))
    return 2;
  if (Pos.empty())
    return usage("select");
  const std::string &ArtifactPath = Pos[0];

  auto Bytes = readFile(ArtifactPath);
  if (!Bytes)
    return 1;
  StringInterner Strings;
  ArtifactError Err;
  auto Artifacts = loadLearnArtifacts(*Bytes, Strings, &Err);
  if (!Artifacts) {
    std::fprintf(stderr, "error: %s: %s\n", ArtifactPath.c_str(),
                 Err.str().c_str());
    return 1;
  }

  const LearnResult &R = Artifacts->Result;
  double UseTau = std::isnan(Tau) ? Artifacts->Config.Tau : Tau;
  SpecSet Selected;
  if (UseTau != Artifacts->Config.Tau)
    Selected = USpecLearner::select(R.Candidates, UseTau,
                                    Artifacts->Config.ExtendConsistency);
  else
    Selected = R.Selected;
  printCandidates(Strings, Artifacts->Manifest.Entries.size(), R.Candidates,
                  Selected.size(), UseTau);

  std::string Text = serializeSpecs(Selected, Strings);
  if (OutPath.empty()) {
    std::fputs(Text.c_str(), stdout);
    return 0;
  }
  if (!writeFile(OutPath, Text))
    return 1;
  std::fprintf(stderr, "wrote %s\n", OutPath.c_str());
  return 0;
}

int cmdInfo(Args &A) {
  std::vector<std::string> Pos;
  if (!Command{"info", "run.uspb", {}}.parse(A, &Pos, 1))
    return 2;
  if (Pos.empty())
    return usage("info");
  const char *Path = Pos[0].c_str();
  auto Bytes = readFile(Path);
  if (!Bytes)
    return 1;

  ArtifactError Err;
  auto Container = ArtifactReader::open(*Bytes, &Err);
  if (!Container) {
    std::fprintf(stderr, "error: %s: %s\n", Path, Err.str().c_str());
    return 1;
  }
  std::printf("%s: USPB artifact, format version %u, %zu bytes\n", Path,
              Container->version(), Bytes->size());
  for (const ArtifactReader::Section &S : Container->sections())
    std::printf("  section %-6s %8zu bytes (checksum ok)\n",
                std::string(S.Name).c_str(), S.Bytes.size());

  StringInterner Strings;
  auto Artifacts = loadLearnArtifacts(*Bytes, Strings, &Err);
  if (!Artifacts) {
    std::fprintf(stderr, "error: %s: %s\n", Path, Err.str().c_str());
    return 1;
  }
  const LearnResult &R = Artifacts->Result;
  std::printf("trained on %zu programs (tau=%.2f, seed=%llu)\n",
              Artifacts->Manifest.Entries.size(), Artifacts->Config.Tau,
              static_cast<unsigned long long>(Artifacts->Config.Seed));
  std::printf("%zu candidates, %zu selected (+%zu by extension), "
              "%zu position-pair models, %zu training samples, "
              "%.3f in-sample accuracy\n",
              R.Candidates.size(), R.Selected.size(), R.AddedByExtension,
              R.Model.numModels(), R.NumTrainingSamples, R.TrainAccuracy);
  if (Artifacts->Lineage) {
    const JournalLineage &L = *Artifacts->Lineage;
    std::printf("journal lineage: generation %llu, trained through %llu "
                "entr%s, chain checksum %016llx%s\n",
                static_cast<unsigned long long>(L.Generation),
                static_cast<unsigned long long>(L.TrainedEntries),
                L.TrainedEntries == 1 ? "y" : "ies",
                static_cast<unsigned long long>(L.ChainChecksum),
                Artifacts->Ledger ? ", evidence ledger present" : "");
  }
  return 0;
}

/// Loads the spec set for `analyze` / `serve` in canonical text form
/// (see ServiceSpecs) from either a spec text file or a USPB artifact.
/// Returns nullopt after printing a diagnostic.
std::optional<service::ServiceSpecs>
loadServiceSpecs(const std::string &SpecsPath, const std::string &ModelPath) {
  if (!SpecsPath.empty()) {
    auto Text = readFile(SpecsPath);
    if (!Text)
      return std::nullopt;
    size_t BadLine = 0;
    auto Specs = service::ServiceSpecs::fromText(*Text, &BadLine);
    if (!Specs) {
      std::fprintf(stderr, "%s:%zu: malformed specification\n",
                   SpecsPath.c_str(), BadLine);
      return std::nullopt;
    }
    return Specs;
  }
  if (!ModelPath.empty()) {
    auto Bytes = readFile(ModelPath);
    if (!Bytes)
      return std::nullopt;
    StringInterner Strings;
    ArtifactError Err;
    auto Artifacts = loadLearnArtifacts(*Bytes, Strings, &Err);
    if (!Artifacts) {
      std::fprintf(stderr, "error: %s: %s\n", ModelPath.c_str(),
                   Err.str().c_str());
      return std::nullopt;
    }
    return service::ServiceSpecs::fromSpecSet(Artifacts->Result.Selected,
                                              Strings);
  }
  return service::ServiceSpecs();
}

int cmdAnalyze(Args &A) {
  std::vector<std::string> Pos;
  std::string SpecsPath, ModelPath, DotPath, TracePath;
  bool Coverage = false, Json = false;
  const Command C{"analyze",
                  "FILE",
                  {{"--specs", &SpecsPath, "specs.txt"},
                   {"--model", &ModelPath, "run.uspb"},
                   {"--coverage", &Coverage},
                   {"--dot", &DotPath, "out.dot"},
                   {"--json", &Json},
                   {"--trace", &TracePath, "t.json"}}};
  if (!C.parse(A, &Pos, 1))
    return 2;
  if (Pos.empty() || (!SpecsPath.empty() && !ModelPath.empty()))
    return usage("analyze");
  if (!startTelemetry(TracePath, ""))
    return 2;

  const std::string &File = Pos[0];
  auto Source = readFile(File);
  if (!Source)
    return 1;

  // Both modes run the service engine: the same spec canonicalization,
  // analysis and (with --json) serializer as the `analyze` verb of `uspec
  // serve`, byte-identical by construction (pinned by
  // tests/service_test.cpp). Program diagnostics come before spec errors.
  std::string Error;
  auto Parsed = service::parseProgram(*Source, File, &Error);
  if (!Parsed) {
    if (Json)
      std::printf("{\"error\":%s}\n",
                  service::errorBody("parse_error", Error).c_str());
    else
      std::fprintf(stderr, "%s", Error.c_str());
    return 1;
  }
  auto Specs = loadServiceSpecs(SpecsPath, ModelPath);
  if (!Specs)
    return 1;
  auto PA = service::finishAnalysis(std::move(*Parsed), *Specs, Coverage);
  if (Json) {
    std::printf("%s\n", PA->AnalyzeJson.c_str());
    return 0;
  }

  const char *Extension = Coverage ? " + coverage extension" : "";
  if (!SpecsPath.empty())
    std::printf("loaded %zu specifications (API-aware analysis%s)\n",
                PA->NumSpecs, Extension);
  else if (!ModelPath.empty())
    std::printf("loaded %zu specifications from artifact %s (API-aware "
                "analysis%s)\n",
                PA->NumSpecs, ModelPath.c_str(), Extension);
  else
    std::printf("no specifications (API-unaware baseline)\n");

  // Report may-aliasing between call-site return values.
  const AnalysisResult &R = *PA->Result;
  const std::vector<CallSite> &Sites = PA->CallSites;
  std::printf("\nmay-alias call-site return pairs:\n");
  size_t Pairs = 0;
  for (size_t I = 0; I < Sites.size(); ++I) {
    for (size_t J = I + 1; J < Sites.size(); ++J) {
      if (Sites[I].Ret == InvalidEvent || Sites[J].Ret == InvalidEvent)
        continue;
      if (!R.retMayAlias(Sites[I].Ret, Sites[J].Ret))
        continue;
      std::printf("  %s  ~  %s\n",
                  Sites[I].Method.str(PA->Strings).c_str(),
                  Sites[J].Method.str(PA->Strings).c_str());
      ++Pairs;
    }
  }
  std::printf("%zu aliasing pairs, %zu events, %zu objects\n", Pairs,
              R.Events.size(), R.Objects.size());

  if (!DotPath.empty() &&
      writeFile(DotPath, toDot(EventGraph::build(R), R, PA->Strings)))
    std::printf("event graph written to %s\n", DotPath.c_str());
  return 0;
}

int cmdCheck(Args &A) {
  std::vector<std::string> Files;
  if (!Command{"check", "FILES...", {}}.parse(A, &Files))
    return 2;
  bool Ok = true;
  for (const std::string &Path : Files) {
    auto Source = readFile(Path);
    if (!Source) {
      Ok = false;
      continue;
    }
    StringInterner Strings;
    DiagnosticSink Diags;
    auto P = parseAndLower(*Source, Path, Strings, Diags);
    if (!P) {
      std::fprintf(stderr, "%s:\n%s", Path.c_str(), Diags.render().c_str());
      Ok = false;
    } else {
      std::printf("%s: ok (%u sites, %u guards)\n", Path.c_str(), P->NumSites,
                  P->NumGuards);
    }
  }
  return Ok ? 0 : 1;
}

//===----------------------------------------------------------------------===//
// serve
//===----------------------------------------------------------------------===//

/// Set by the SIGTERM/SIGINT handler; polled by the socket accept loop and —
/// because the handler is installed *without* SA_RESTART — also unblocks the
/// stdin getline in stream mode via EINTR.
volatile int GStopRequested = 0;

void onStopSignal(int) { GStopRequested = 1; }

/// Set by the SIGHUP handler (socket mode only — a stream-mode getline has
/// no safe point to reload from); the accept loop clears it and hot-swaps
/// the model from --model. No SA_RESTART so a blocking accept/poll wakes
/// promptly via EINTR.
volatile int GReloadRequested = 0;

void onReloadSignal(int) { GReloadRequested = 1; }

/// Installs \p Handler for each of \p Signals, without SA_RESTART.
void installSignalHandler(std::initializer_list<int> Signals,
                          void (*Handler)(int)) {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = Handler;
  sigemptyset(&SA.sa_mask);
  for (int Sig : Signals)
    sigaction(Sig, &SA, nullptr);
}

int cmdServe(Args &A) {
  std::string SpecsPath, SocketPath, TracePath, EventsPath;
  service::ServerConfig Cfg;
  const Command C{"serve",
                  "",
                  {{"--model", &Cfg.ModelPath, "run.uspb"},
                   {"--specs", &SpecsPath, "specs.txt"},
                   {"--socket", &SocketPath, "PATH"},
                   {"--workers", &Cfg.Workers, "N"},
                   {"--queue", &Cfg.QueueCapacity, "N", 1},
                   {"--cache", &Cfg.CacheCapacity, "N"},
                   {"--request-timeout", &Cfg.RequestTimeoutMs, "MS"},
                   {"--step-budget", &Cfg.MaxStepsPerRequest, "N"},
                   {"--slow-ms", &Cfg.SlowRequestMs, "N"},
                   {"--trace", &TracePath, "t.json"},
                   {"--events", &EventsPath, "e.jsonl"}}};
  if (!C.parse(A))
    return 2;
  if (!SpecsPath.empty() && !Cfg.ModelPath.empty()) {
    std::fprintf(stderr, "error: --specs and --model are mutually "
                         "exclusive\n");
    return 2;
  }
  if (!startTelemetry(TracePath, EventsPath))
    return 2;

  // --model loads a versioned ModelState (journal generation, hot-swap
  // source path); --specs / no flags keep the unversioned generation-0
  // path. ServerConfig::ModelPath is what SIGHUP / `reload` without an
  // explicit path re-reads.
  std::optional<service::ModelState> Model;
  if (!Cfg.ModelPath.empty()) {
    std::string Err;
    Model = service::loadModelState(Cfg.ModelPath, &Err);
    if (!Model) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
  } else {
    auto Specs = loadServiceSpecs(SpecsPath, "");
    if (!Specs)
      return 1;
    Model = service::ModelState::make(
        std::move(*Specs), 0, SpecsPath.empty() ? "inline" : SpecsPath);
  }

  size_t NumSpecs = Model->Specs.Lines.size();
  uint64_t Generation = Model->Generation;
  service::Server Server(Cfg, std::move(*Model));

  // Graceful drain on SIGTERM/SIGINT. Deliberately no SA_RESTART so a
  // blocking stdin read returns EINTR and the stream loop can wind down.
  GStopRequested = 0;
  installSignalHandler({SIGTERM, SIGINT}, onStopSignal);

  if (!SocketPath.empty()) {
    // Live reload on SIGHUP — socket mode only: the handler must not
    // interrupt a stream-mode stdin getline, which would end the session.
    GReloadRequested = 0;
    installSignalHandler({SIGHUP}, onReloadSignal);
    return Server.serveUnixSocket(
        SocketPath, &GStopRequested, &GReloadRequested, [&] {
          std::fprintf(stderr,
                       "uspec serve: %zu specs (generation %llu), listening "
                       "on %s\n",
                       NumSpecs, static_cast<unsigned long long>(Generation),
                       SocketPath.c_str());
        });
  }
  std::fprintf(stderr, "uspec serve: %zu specs, reading stdin\n", NumSpecs);
  return Server.serveStream(std::cin, std::cout);
}

//===----------------------------------------------------------------------===//
// route (routed serving, DESIGN.md §14)
//===----------------------------------------------------------------------===//

/// `uspec route --socket PATH --replicas SOCK1,SOCK2,... [--vnodes N]
///  [--supervise] [--respawn-cmd CMD] [--model PATH]
///  [--probe-interval-ms N] [--respawn-seed S]
///  [--hedge-ms N | --hedge-auto] [--warm-keys K]`:
/// the self-healing consistent-hash router in front of N `uspec serve
/// --socket` replicas. `--supervise` probes replicas each interval and
/// respawns dead ones: via CMD (every `{socket}` replaced by the replica's
/// socket path), or — when only `--model` is given — via a synthesized
/// `<this binary> serve --socket {socket} --model PATH`.
int cmdRoute(Args &A) {
  std::string SocketPath, ReplicaList, ModelPath, TracePath, EventsPath;
  distrib::RouterConfig Cfg;
  const Command C{"route",
                  "",
                  {{"--socket", &SocketPath, "PATH"},
                   {"--replicas", &ReplicaList, "SOCK1,SOCK2,..."},
                   {"--vnodes", &Cfg.VirtualNodes, "N", 1},
                   {"--supervise", &Cfg.Supervise},
                   {"--respawn-cmd", &Cfg.RespawnCmd, "CMD"},
                   {"--model", &ModelPath, "run.uspb"},
                   {"--probe-interval-ms", &Cfg.ProbeIntervalMs, "N", 1},
                   {"--respawn-seed", &Cfg.RespawnSeed, "S"},
                   {"--hedge-ms", &Cfg.HedgeMs, "N"},
                   {"--hedge-auto", &Cfg.HedgeAuto},
                   {"--warm-keys", &Cfg.WarmKeys, "K"},
                   {"--trace", &TracePath, "t.json"},
                   {"--events", &EventsPath, "e.jsonl"}}};
  if (!C.parse(A))
    return 2;
  if (!startTelemetry(TracePath, EventsPath))
    return 2;
  if (Cfg.RespawnCmd.empty() && Cfg.Supervise && !ModelPath.empty()) {
    // Own the replica processes outright: respawn them as this very binary.
    char Self[4096];
    ssize_t N = ::readlink("/proc/self/exe", Self, sizeof(Self) - 1);
    if (N > 0) {
      Self[N] = '\0';
      Cfg.RespawnCmd = std::string("'") + Self +
                       "' serve --socket '{socket}' --model '" + ModelPath +
                       "' >/dev/null 2>&1";
    }
  }
  for (size_t Pos = 0; Pos <= ReplicaList.size();) {
    size_t Comma = ReplicaList.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = ReplicaList.size();
    if (Comma > Pos)
      Cfg.Replicas.push_back(ReplicaList.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  if (SocketPath.empty() || Cfg.Replicas.empty()) {
    std::fprintf(stderr, "error: route requires --socket PATH and "
                         "--replicas SOCK1,SOCK2,...\n");
    return 2;
  }

  distrib::Router Router(Cfg);
  GStopRequested = 0;
  installSignalHandler({SIGTERM, SIGINT}, onStopSignal);
  return Router.serveUnixSocket(SocketPath, &GStopRequested, [&] {
    std::fprintf(stderr,
                 "uspec route: %zu replicas, %u vnodes each, listening on "
                 "%s%s%s%s\n",
                 Cfg.Replicas.size(), Cfg.VirtualNodes, SocketPath.c_str(),
                 Cfg.Supervise ? (Cfg.RespawnCmd.empty()
                                      ? " (supervise: probe/rejoin)"
                                      : " (supervise: respawn)")
                               : "",
                 Cfg.HedgeAuto ? " (hedge: auto-p95)" : "",
                 !Cfg.HedgeAuto && Cfg.HedgeMs
                     ? (" (hedge: " + std::to_string(Cfg.HedgeMs) + " ms)")
                           .c_str()
                     : "");
  });
}

//===----------------------------------------------------------------------===//
// query
//===----------------------------------------------------------------------===//

/// Appends `,"KEY":"VALUE"` with JSON escaping.
void appendField(std::string &Out, const char *Key, std::string_view Value) {
  Out += ",\"";
  Out += Key;
  Out += "\":";
  service::appendJsonString(Out, Value);
}

/// One `uspec query` verb with fixed arguments: whether FILE comes first
/// (its text is sent as `program`), the request fields the remaining
/// positionals fill, and the usage shape printed on an arity mismatch.
struct QueryVerb {
  const char *Name;
  bool Program;
  std::vector<const char *> Fields;
  const char *Usage;
};

const QueryVerb QueryVerbs[] = {
    {"analyze", true, {}, "analyze FILE [--coverage]"},
    {"alias", true, {"a", "b"}, "alias FILE A B"},
    {"typestate", true, {"check", "use"}, "typestate FILE CHECK USE"},
    {"taint",
     true,
     {},
     "taint FILE [--source M]... [--sink M]... [--sanitizer M]..."},
    {"specs", false, {}, "specs"},
    {"cachekeys", false, {}, "cachekeys"},
    {"stats", false, {}, "stats"},
    {"metrics", false, {}, "metrics"},
    {"shutdown", false, {}, "shutdown"},
};

int cmdQuery(Args &A) {
  std::string SocketPath, RawRequest, TraceId;
  std::vector<std::string> Positional;
  bool Coverage = false;
  uint64_t Retries = 0, RetrySeed = 0;
  std::vector<std::string> Sources, Sinks, Sanitizers;
  const Command C{"query",
                  "VERB [ARGS...]",
                  {{"--socket", &SocketPath, "PATH"},
                   {"--retries", &Retries, "N"},
                   {"--retry-seed", &RetrySeed, "S"},
                   {"--trace-id", &TraceId, "ID"},
                   {"--json", &RawRequest, "REQUEST"},
                   {"--coverage", &Coverage},
                   {"--source", &Sources, "M"},
                   {"--sink", &Sinks, "M"},
                   {"--sanitizer", &Sanitizers, "M"}}};
  if (!C.parse(A, &Positional))
    return 2;
  if (SocketPath.empty()) {
    std::fprintf(stderr, "error: query requires --socket PATH\n");
    return 2;
  }

  std::string Request;
  if (!RawRequest.empty()) {
    if (!Positional.empty())
      return unknownToken("query", Positional.front().c_str());
    Request = RawRequest;
  } else {
    if (Positional.empty()) {
      std::fprintf(stderr, "error: query requires a verb (analyze, alias, "
                           "typestate, taint, specs, cachekeys, stats, "
                           "metrics, reload, shutdown) or --json REQUEST\n");
      return 2;
    }
    const std::string &VerbName = Positional.front();
    if (VerbName == "reload") {
      // `reload` swaps the server's model in place: no path re-reads the
      // server's own --model, an explicit path is read *by the server*
      // (this is a server-side file name, not program content).
      if (Positional.size() > 2)
        return unknownToken("query", Positional[2].c_str());
      Request = "{\"verb\":\"reload\"";
      if (Positional.size() == 2)
        appendField(Request, "path", Positional[1]);
      Request += "}";
    } else {
      const QueryVerb *V = std::find_if(
          std::begin(QueryVerbs), std::end(QueryVerbs),
          [&](const QueryVerb &Row) { return VerbName == Row.Name; });
      if (V == std::end(QueryVerbs))
        return unknownToken("query", VerbName.c_str());
      if (Positional.size() != 1 + V->Program + V->Fields.size()) {
        std::fprintf(stderr, "error: usage: uspec query --socket PATH %s\n",
                     V->Usage);
        return 2;
      }
      Request = "{\"verb\":\"" + VerbName + "\"";
      if (V->Program) {
        auto Source = readFile(Positional[1]);
        if (!Source)
          return 1;
        appendField(Request, "program", *Source);
      }
      for (size_t I = 0; I < V->Fields.size(); ++I)
        appendField(Request, V->Fields[I], Positional[1 + V->Program + I]);
      if (VerbName == "analyze" && Coverage)
        Request += ",\"coverage\":true";
      if (VerbName == "taint") {
        auto AppendList = [&](const char *Key,
                              const std::vector<std::string> &Names) {
          Request += ",\"";
          Request += Key;
          Request += "\":[";
          for (size_t I = 0; I < Names.size(); ++I) {
            if (I)
              Request += ',';
            service::appendJsonString(Request, Names[I]);
          }
          Request += ']';
        };
        AppendList("sources", Sources);
        AppendList("sinks", Sinks);
        AppendList("sanitizers", Sanitizers);
      }
      Request += "}";
    }
    if (!TraceId.empty()) {
      Request.pop_back(); // reopen the object to append the trace id
      appendField(Request, "trace_id", TraceId);
      Request += '}';
    }
  }

  // Transient failures — a connect/send/recv error (server restarting), a
  // structured `overloaded` rejection (queue full), or a router's
  // `replica_down` (the replica is marked down on the way out, so the retry
  // deterministically fails over to the next live ring owner) — are retried
  // with deterministic exponential backoff: the delay for a given
  // (seed, attempt) is always the same (service::retryDelayMs), so retry
  // traces reproduce.
  std::string Response;
  for (unsigned Attempt = 0;; ++Attempt) {
    std::string Err;
    bool Ok = service::clientRoundTrip(SocketPath, Request, Response, &Err);
    const char *Reason = nullptr;
    if (!Ok) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      Reason = "connection failed";
    } else if (Response.find("\"kind\":\"overloaded\"") != std::string::npos)
      Reason = "overloaded";
    else if (Response.find("\"kind\":\"replica_down\"") != std::string::npos)
      Reason = "replica down";
    if (!Reason)
      break;
    if (Attempt >= Retries) {
      if (!Ok)
        return 1;
      break; // Transient error with no retries left: fall through, print it.
    }
    uint64_t DelayMs = service::retryDelayMs(Attempt, RetrySeed);
    std::fprintf(stderr, "retry %u/%llu in %llu ms (%s)\n", Attempt + 1,
                 static_cast<unsigned long long>(Retries),
                 static_cast<unsigned long long>(DelayMs), Reason);
    std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
  }

  // `uspec query` sends no id, so a success is okResponse's id-less
  // envelope, and okPayload recovers the payload byte-exactly (the analyze
  // payload then matches `analyze --json`).
  if (std::optional<std::string_view> Payload = service::okPayload(Response)) {
    // A string payload (the `metrics` verb) is decoded so the Prometheus
    // exposition text prints ready to scrape; structured payloads pass
    // through byte-exact.
    if (Payload->front() == '"') {
      service::JsonValue V;
      if (service::parseJson(*Payload, V, nullptr) && V.isString()) {
        std::fwrite(V.StringValue.data(), 1, V.StringValue.size(), stdout);
        if (V.StringValue.empty() || V.StringValue.back() != '\n')
          std::fputc('\n', stdout);
        return 0;
      }
    }
    std::fwrite(Payload->data(), 1, Payload->size(), stdout);
    std::fputc('\n', stdout);
    return 0;
  }
  std::fprintf(stderr, "%s\n", Response.c_str());
  return 1;
}

//===----------------------------------------------------------------------===//
// obs (fleet observability: stitch / top / events; DESIGN.md §16)
//===----------------------------------------------------------------------===//

/// Serializes \p V back to JSON text. Member and array order are preserved
/// (JsonValue keeps both as vectors); integral numbers print without a
/// decimal point and everything else at the trace serializer's microsecond
/// precision (%.3f), so a round-tripped trace shard keeps its shape.
void writeJson(const service::JsonValue &V, std::string &Out) {
  using service::JsonValue;
  switch (V.TheKind) {
  case JsonValue::Kind::Null:
    Out += "null";
    break;
  case JsonValue::Kind::Bool:
    Out += V.BoolValue ? "true" : "false";
    break;
  case JsonValue::Kind::Number: {
    char Buf[64];
    double Whole;
    if (std::modf(V.NumberValue, &Whole) == 0.0 &&
        std::fabs(Whole) < 9.0e15)
      std::snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(Whole));
    else
      std::snprintf(Buf, sizeof(Buf), "%.3f", V.NumberValue);
    Out += Buf;
    break;
  }
  case JsonValue::Kind::String:
    service::appendJsonString(Out, V.StringValue);
    break;
  case JsonValue::Kind::Array:
    Out += '[';
    for (size_t I = 0; I < V.Items.size(); ++I) {
      if (I)
        Out += ',';
      writeJson(V.Items[I], Out);
    }
    Out += ']';
    break;
  case JsonValue::Kind::Object:
    Out += '{';
    for (size_t I = 0; I < V.Members.size(); ++I) {
      if (I)
        Out += ',';
      service::appendJsonString(Out, V.Members[I].first);
      Out += ':';
      writeJson(V.Members[I].second, Out);
    }
    Out += '}';
    break;
  }
}

/// String member \p Key of the "args" object of trace event \p E ("" when
/// absent) — where spans carry trace_id / trace_ctx correlation keys.
std::string obsSpanArg(const service::JsonValue &E, const char *Key) {
  const service::JsonValue *Args = E.find("args");
  if (!Args || !Args->isObject())
    return {};
  const service::JsonValue *V = Args->find(Key);
  return V && V->isString() ? V->StringValue : std::string();
}

/// `uspec obs stitch OUT.json SHARD...`: merge per-process Chrome-trace
/// shards into one Perfetto-loadable document. Shards are aligned onto the
/// shared machine-wide steady clock via their uspecBaseNs session epoch,
/// each pid gets a process_name metadata record naming its role (inferred
/// from span-name prefixes) and source shard, and flow events connect
/// router.forward spans to the replica service.request spans that carry the
/// same trace_id / trace_ctx.
int cmdObsStitch(Args &A) {
  std::vector<std::string> Pos;
  if (!Command{"obs", "stitch OUT.json SHARD...", {}}.parse(A, &Pos))
    return 2;
  if (Pos.size() < 2) {
    std::fprintf(stderr,
                 "error: usage: uspec obs stitch OUT.json SHARD...\n");
    return 2;
  }
  struct Shard {
    std::string Label; ///< Basename, shown in process_name metadata.
    double ShiftUs = 0;
    service::JsonValue Doc;
  };
  std::vector<Shard> Shards;
  double MinBaseNs = -1;
  for (size_t I = 1; I < Pos.size(); ++I) {
    const char *Path = Pos[I].c_str();
    auto Text = readFile(Path);
    if (!Text)
      return 1;
    Shard S;
    std::string Err;
    if (!service::parseJson(*Text, S.Doc, &Err) || !S.Doc.isObject()) {
      std::fprintf(stderr, "error: %s: not a trace shard: %s\n", Path,
                   Err.empty() ? "not a JSON object" : Err.c_str());
      return 1;
    }
    const service::JsonValue *Events = S.Doc.find("traceEvents");
    if (!Events || !Events->isArray()) {
      std::fprintf(stderr, "error: %s: no traceEvents array\n", Path);
      return 1;
    }
    S.Label = Path;
    size_t Slash = S.Label.find_last_of('/');
    if (Slash != std::string::npos)
      S.Label.erase(0, Slash + 1);
    if (const service::JsonValue *Base = S.Doc.find("uspecBaseNs"))
      if (Base->TheKind == service::JsonValue::Kind::Number &&
          Base->NumberValue > 0) {
        S.ShiftUs = Base->NumberValue / 1e3;
        if (MinBaseNs < 0 || Base->NumberValue < MinBaseNs)
          MinBaseNs = Base->NumberValue;
      }
    Shards.push_back(std::move(S));
  }
  // Normalize: the earliest session epoch becomes t=0; shards without an
  // epoch (foreign traces) keep their own timestamps.
  for (Shard &S : Shards)
    S.ShiftUs = S.ShiftUs > 0 ? S.ShiftUs - MinBaseNs / 1e3 : 0;

  // Pass 1 over every event: shift timestamps in place, classify each pid's
  // role by span-name prefix, and index flow sources / destinations by
  // their correlation key.
  struct SpanRef {
    long Pid;
    double Tid, Ts;
  };
  std::map<long, std::pair<std::string, int>> PidRole; // pid -> label, rank
  std::map<std::string, std::vector<SpanRef>> FlowSrc, FlowDst;
  static const std::pair<const char *, const char *> Roles[] = {
      {"router.", "uspec route"},
      {"service.", "uspec serve"},
      {"learn.", "uspec train"},
  };
  for (Shard &S : Shards) {
    // find() is const; locate the traceEvents member mutably.
    for (auto &Member : S.Doc.Members) {
      if (Member.first != "traceEvents" || !Member.second.isArray())
        continue;
      for (service::JsonValue &E : Member.second.Items) {
        if (!E.isObject())
          continue;
        double Ts = 0;
        for (auto &M : E.Members)
          if (M.first == "ts" &&
              M.second.TheKind == service::JsonValue::Kind::Number) {
            M.second.NumberValue += S.ShiftUs;
            Ts = M.second.NumberValue;
          }
        const service::JsonValue *NameV = E.find("name");
        const service::JsonValue *PidV = E.find("pid");
        if (!NameV || !NameV->isString() || !PidV)
          continue;
        const std::string &Name = NameV->StringValue;
        long Pid = static_cast<long>(PidV->NumberValue);
        for (int R = 0; R < static_cast<int>(std::size(Roles)); ++R) {
          if (Name.compare(0, std::strlen(Roles[R].first), Roles[R].first))
            continue;
          auto It = PidRole.find(Pid);
          if (It == PidRole.end() || R < It->second.second)
            PidRole[Pid] = {std::string(Roles[R].second) + " — " +
                                S.Label,
                            R};
          break;
        }
        const service::JsonValue *TidV = E.find("tid");
        SpanRef Ref{Pid, TidV ? TidV->NumberValue : 0, Ts};
        if (Name == "router.forward") {
          std::string Key = obsSpanArg(E, "trace_id");
          if (Key.empty())
            Key = obsSpanArg(E, "trace_ctx");
          if (!Key.empty())
            FlowSrc[Key].push_back(Ref);
        } else if (Name == "service.request") {
          std::string Key = obsSpanArg(E, "trace_id");
          if (Key.empty())
            Key = obsSpanArg(E, "trace_ctx");
          if (!Key.empty())
            FlowDst[Key].push_back(Ref);
        }
      }
    }
    // Pids with no recognized span prefix still get named after the shard.
    for (const service::JsonValue &E :
         S.Doc.find("traceEvents")->Items) {
      const service::JsonValue *PidV = E.isObject() ? E.find("pid") : nullptr;
      if (!PidV)
        continue;
      long Pid = static_cast<long>(PidV->NumberValue);
      if (!PidRole.count(Pid))
        PidRole[Pid] = {std::string("uspec — ") + S.Label,
                        static_cast<int>(std::size(Roles))};
    }
  }

  // Pass 2: emit. Original events (shifted), then process_name metadata,
  // then one s/f flow pair per (source span, cross-process matching span).
  std::string Out;
  Out.reserve(1 << 16);
  Out += "{\"traceEvents\":[";
  bool First = true;
  for (const Shard &S : Shards)
    for (const service::JsonValue &E :
         S.Doc.find("traceEvents")->Items) {
      if (!First)
        Out += ',';
      First = false;
      writeJson(E, Out);
    }
  char Buf[192];
  for (const auto &[Pid, Role] : PidRole) {
    if (!First)
      Out += ',';
    First = false;
    std::snprintf(Buf, sizeof(Buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%ld,"
                  "\"tid\":0,\"args\":{\"name\":",
                  Pid);
    Out += Buf;
    service::appendJsonString(Out, Role.first);
    Out += "}}";
  }
  uint64_t FlowId = 0, Flows = 0;
  for (const auto &[Key, Srcs] : FlowSrc) {
    auto DstIt = FlowDst.find(Key);
    if (DstIt == FlowDst.end())
      continue;
    for (const SpanRef &Src : Srcs)
      for (const SpanRef &Dst : DstIt->second) {
        if (Dst.Pid == Src.Pid)
          continue;
        ++FlowId;
        ++Flows;
        std::snprintf(Buf, sizeof(Buf),
                      ",{\"name\":\"request\",\"cat\":\"uspec\",\"ph\":"
                      "\"s\",\"id\":%llu,\"pid\":%ld,\"tid\":%u,"
                      "\"ts\":%.3f}",
                      static_cast<unsigned long long>(FlowId), Src.Pid,
                      static_cast<unsigned>(Src.Tid), Src.Ts);
        Out += Buf;
        std::snprintf(Buf, sizeof(Buf),
                      ",{\"name\":\"request\",\"cat\":\"uspec\",\"ph\":"
                      "\"f\",\"bp\":\"e\",\"id\":%llu,\"pid\":%ld,"
                      "\"tid\":%u,\"ts\":%.3f}",
                      static_cast<unsigned long long>(FlowId), Dst.Pid,
                      static_cast<unsigned>(Dst.Tid), Dst.Ts);
        Out += Buf;
      }
  }
  Out += "]}";
  if (!writeFile(Pos[0], Out))
    return 1;
  std::fprintf(stderr,
               "stitched %zu shards: %zu processes, %llu flow links -> %s\n",
               Shards.size(), PidRole.size(),
               static_cast<unsigned long long>(Flows), Pos[0].c_str());
  return 0;
}

/// Number member \p Key of object \p V (\p Dflt when absent).
double obsNum(const service::JsonValue *V, const char *Key, double Dflt = 0) {
  if (!V || !V->isObject())
    return Dflt;
  const service::JsonValue *M = V->find(Key);
  return M && M->TheKind == service::JsonValue::Kind::Number ? M->NumberValue
                                                            : Dflt;
}

/// Renders one fleet summary from a `stats` payload — the router fan-out
/// shape ({"router":...,"replicas":[...]}) gets the per-replica table, a
/// plain serve payload gets a single-process line.
void renderObsTop(const service::JsonValue &Payload) {
  const service::JsonValue *R = Payload.find("router");
  if (!R) {
    std::printf("serve: uptime %.1fs, %.0f completed (qps %.1f), "
                "cache hit %.0f%%, p95 %.2f ms\n",
                obsNum(&Payload, "uptime_s"),
                obsNum(Payload.find("requests"), "completed"),
                obsNum(&Payload, "qps"),
                obsNum(Payload.find("cache"), "hit_rate") * 100,
                obsNum(Payload.find("latency_ms"), "p95"));
    return;
  }
  const service::JsonValue *Reps = Payload.find("replicas");
  size_t Total = Reps && Reps->isArray() ? Reps->Items.size() : 0;
  size_t NumDown = 0;
  if (const service::JsonValue *D = R->find("down"))
    if (D->isArray())
      NumDown = D->Items.size();
  std::printf("fleet: %zu replicas (%zu down), router uptime %.1fs\n",
              Total, NumDown, obsNum(R, "uptime_s"));
  std::printf("router: %.0f requests, %.0f forwarded, %.0f hedged "
              "(%.0f wins), %.0f respawns, %.0f rejoins, %.0f warm "
              "replays\n",
              obsNum(R, "requests"), obsNum(R, "forwarded"),
              obsNum(R, "hedged"), obsNum(R, "hedged_wins"),
              obsNum(R, "respawns"), obsNum(R, "rejoins"),
              obsNum(R, "warm_replays"));
  if (!Reps || !Reps->isArray())
    return;
  for (size_t I = 0; I < Reps->Items.size(); ++I) {
    const service::JsonValue &Rep = Reps->Items[I];
    const service::JsonValue *Addr = Rep.find("addr");
    const service::JsonValue *DownV = Rep.find("down");
    bool IsDown = DownV && DownV->isBool() && DownV->BoolValue;
    const service::JsonValue *Stats = Rep.find("stats");
    if (Stats) {
      std::printf("  [%zu] %-28s %-4s uptime %7.1fs  %6.0f done  "
                  "hit %3.0f%%  p95 %7.2f ms\n",
                  I, Addr && Addr->isString() ? Addr->StringValue.c_str()
                                              : "?",
                  IsDown ? "DOWN" : "up", obsNum(Stats, "uptime_s"),
                  obsNum(Stats->find("requests"), "completed"),
                  obsNum(Stats->find("cache"), "hit_rate") * 100,
                  obsNum(Stats->find("latency_ms"), "p95"));
    } else {
      std::printf("  [%zu] %-28s %s\n", I,
                  Addr && Addr->isString() ? Addr->StringValue.c_str() : "?",
                  IsDown ? "DOWN (unreachable)" : "up (no stats)");
    }
  }
}

/// `uspec obs top --socket PATH [--watch] [--interval-ms N]`: one-shot (or
/// refreshing) fleet summary over the router's stats fan-out — or a single
/// serve socket's stats.
int cmdObsTop(Args &A) {
  std::string SocketPath;
  bool Watch = false;
  uint64_t IntervalMs = 2000;
  const Command C{"obs",
                  "top",
                  {{"--socket", &SocketPath, "PATH"},
                   {"--watch", &Watch},
                   {"--interval-ms", &IntervalMs, "N", 1}}};
  if (!C.parse(A))
    return 2;
  if (SocketPath.empty()) {
    std::fprintf(stderr, "error: obs top requires --socket PATH\n");
    return 2;
  }
  GStopRequested = 0;
  if (Watch)
    installSignalHandler({SIGTERM, SIGINT}, onStopSignal);
  for (;;) {
    std::string Response, Err;
    if (!service::clientRoundTrip(SocketPath, "{\"verb\":\"stats\"}",
                                  Response, &Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    service::JsonValue Doc;
    const service::JsonValue *Ok = nullptr, *Result = nullptr;
    if (service::parseJson(Response, Doc, &Err)) {
      Ok = Doc.find("ok");
      Result = Doc.find("result");
    }
    if (!Ok || !Ok->isBool() || !Ok->BoolValue || !Result) {
      std::fprintf(stderr, "error: stats failed: %s\n", Response.c_str());
      return 1;
    }
    if (Watch)
      std::printf("\x1b[H\x1b[2J");
    renderObsTop(*Result);
    std::fflush(stdout);
    if (!Watch)
      return 0;
    for (uint64_t Slept = 0; Slept < IntervalMs && !GStopRequested;
         Slept += 100)
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    if (GStopRequested)
      return 0;
  }
}

/// `uspec obs events FILE [--follow] [--type T]`: print (and optionally
/// tail) a structured event log, filtered by event type. Torn or foreign
/// lines are skipped, not fatal — the log is append-only JSONL from
/// multiple processes.
int cmdObsEvents(Args &A) {
  std::vector<std::string> Pos;
  std::string Type;
  bool Follow = false;
  const Command C{
      "obs", "events FILE", {{"--follow", &Follow}, {"--type", &Type, "T"}}};
  if (!C.parse(A, &Pos, 1))
    return 2;
  if (Pos.empty()) {
    std::fprintf(stderr,
                 "error: usage: uspec obs events FILE [--follow] "
                 "[--type T]\n");
    return 2;
  }
  const std::string &Path = Pos[0];
  errno = 0;
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot read %s: %s\n", Path.c_str(),
                 errno ? std::strerror(errno) : "unknown error");
    return 1;
  }
  GStopRequested = 0;
  if (Follow)
    installSignalHandler({SIGTERM, SIGINT}, onStopSignal);
  std::string Line;
  for (;;) {
    while (std::getline(In, Line)) {
      if (Line.empty())
        continue;
      service::JsonValue Doc;
      if (!service::parseJson(Line, Doc, nullptr) || !Doc.isObject())
        continue; // torn tail line or foreign text
      if (!Type.empty()) {
        const service::JsonValue *T = Doc.find("type");
        if (!T || !T->isString() || T->StringValue != Type)
          continue;
      }
      std::fwrite(Line.data(), 1, Line.size(), stdout);
      std::fputc('\n', stdout);
    }
    if (!Follow || GStopRequested)
      return 0;
    std::fflush(stdout);
    In.clear(); // new appends clear the EOF condition on the next read
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
}

struct Subcommand {
  const char *Name;
  int (*Run)(Args &);
};

/// The entry of \p List named \p Name, or null.
const Subcommand *findSubcommand(std::span<const Subcommand> List,
                                 std::string_view Name) {
  for (const Subcommand &S : List)
    if (S.Name == Name)
      return &S;
  return nullptr;
}

/// `uspec obs (stitch|top|events) ...` dispatch.
int cmdObs(Args &A) {
  static const Subcommand Modes[] = {
      {"stitch", cmdObsStitch}, {"top", cmdObsTop}, {"events", cmdObsEvents}};
  if (A.UsageOnly) {
    for (const Subcommand &M : Modes)
      M.Run(A);
    return 2;
  }
  const char *Mode = A.next();
  if (!Mode) {
    std::fprintf(stderr,
                 "error: obs requires a mode: stitch, top or events\n");
    return 2;
  }
  if (const Subcommand *M = findSubcommand(Modes, Mode))
    return M->Run(A);
  return unknownToken("obs", Mode);
}

const Subcommand Subcommands[] = {
    {"gen", cmdGen},
    {"learn", [](Args &A) { return cmdLearnOrTrain(A, /*Train=*/false); }},
    {"train", [](Args &A) { return cmdLearnOrTrain(A, /*Train=*/true); }},
    {"ingest", cmdIngest},
    {"select", cmdSelect},
    {"info", cmdInfo},
    {"analyze", cmdAnalyze},
    {"check", cmdCheck},
    {"serve", cmdServe},
    {"route", cmdRoute},
    {"query", cmdQuery},
    {"obs", cmdObs},
};

int usage(const char *Only) {
  std::fprintf(stderr, "usage:\n");
  for (const Subcommand &S : Subcommands) {
    if (Only && S.Name != std::string_view(Only))
      continue;
    Args A{0, nullptr};
    A.UsageOnly = true;
    S.Run(A);
  }
  if (!Only)
    std::fprintf(stderr, "(USPEC_TRACE=t.json arms --trace for any "
                         "subcommand;\n USPEC_EVENTS=e.jsonl arms --events "
                         "the same way)\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    return usage();
  // USPEC_TRACE=t.json arms tracing for any subcommand; an explicit --trace
  // (learn/train/analyze/serve/route) re-arms with its own output path.
  // USPEC_EVENTS=e.jsonl arms the structured event log the same way.
  trace::loadFromEnv();
  events::loadFromEnv();
  Args A{Argc, Argv};
  int Rc = 2;
  if (const Subcommand *S = findSubcommand(Subcommands, Argv[1])) {
    Rc = S->Run(A);
  } else {
    std::fprintf(stderr, "error: unknown subcommand '%s'\n", Argv[1]);
    usage();
  }
  std::string TraceErr;
  if (!trace::finish(&TraceErr))
    std::fprintf(stderr, "warning: failed to write trace: %s\n",
                 TraceErr.c_str());
  events::finish();
  return Rc;
}
