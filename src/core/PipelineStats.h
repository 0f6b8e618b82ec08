//===- PipelineStats.h - Per-phase pipeline statistics ---------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clock and workload statistics for one learn() run, broken down by
/// pipeline phase (Fig. 1 numbering). Stats are observational only: they are
/// returned in LearnResult but deliberately NOT serialized into USPB
/// artifacts, so select(τ) byte-identity across machines and thread counts
/// is unaffected. Everything except the timings and PeakCandidates is
/// bit-identical for any thread count; PeakCandidates counts transiently
/// resident shard-local table entries and therefore grows with shards.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_CORE_PIPELINESTATS_H
#define USPEC_CORE_PIPELINESTATS_H

#include "support/JsonEscape.h"

#include <chrono>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

namespace uspec {

/// One program excluded from a learn() run instead of aborting it: analysis
/// threw, the per-program budget ran out, or (at the CLI layer) the source
/// failed to parse and never entered the corpus.
struct QuarantineRecord {
  /// Corpus index of the program (or input-file index for parse failures).
  size_t Program = 0;
  /// Program name (IRProgram::Name / source path) when known.
  std::string Name;
  /// Machine-readable reason, e.g. "parse", "analysis:steps",
  /// "extract:steps", "fault:learn.analyze", "error:<what>".
  std::string Reason;
};

/// Per-phase wall times and workload counters of one pipeline run.
struct PipelineStats {
  /// Worker count the run actually used (config 0 resolved to hardware
  /// concurrency).
  unsigned ThreadsUsed = 1;

  // Wall-clock seconds per phase.
  /// Phase 1–2a: analysis, graphs, sampling and Alg. 1's matching.
  double AnalyzeSeconds = 0;
  double TrainSeconds = 0;   ///< Phase 2b: model training.
  /// Phase 3: ϕ's predictions for the matched rows + the chunk fold.
  double ExtractSeconds = 0;
  double ScoreSeconds = 0;   ///< Phase 4: per-candidate scoring + sort.
  double SelectSeconds = 0;  ///< Phase 5: τ-selection + extension.
  double TotalSeconds = 0;   ///< End-to-end learn() wall time.

  // Workload counters.
  size_t Programs = 0;        ///< Corpus programs analyzed.
  size_t Graphs = 0;          ///< Event graphs with at least one call site.
  size_t ReceiverPairs = 0;   ///< Call-site pairs enumerated by Alg. 1.
  size_t Matches = 0;         ///< Total pattern matches recorded.
  size_t TrainingSamples = 0; ///< Samples the model ϕ was trained on.
  size_t FeatureHashes = 0;   ///< Feature hashes over those samples.
  size_t Candidates = 0;      ///< Distinct candidate specifications.
  /// Peak number of candidate-table entries resident at once (sum of
  /// shard-local tables before the merge; equals Candidates when serial).
  size_t PeakCandidates = 0;

  /// Programs excluded from this run (per-program isolation, DESIGN.md §10),
  /// in ascending Program order — deterministic at any thread count.
  std::vector<QuarantineRecord> Quarantined;

  /// Renders the stats as a single JSON object (no trailing newline).
  std::string json() const {
    char Buf[768];
    std::snprintf(
        Buf, sizeof(Buf),
        "{\"threads\": %u, "
        "\"phase_seconds\": {\"analyze\": %.6f, \"train\": %.6f, "
        "\"extract\": %.6f, \"score\": %.6f, \"select\": %.6f, "
        "\"total\": %.6f}, "
        "\"programs\": %zu, \"graphs\": %zu, \"receiver_pairs\": %zu, "
        "\"matches\": %zu, \"training_samples\": %zu, "
        "\"feature_hashes\": %zu, \"candidates\": %zu, "
        "\"peak_candidates\": %zu, "
        "\"quarantined_count\": %zu, \"quarantined\": [",
        ThreadsUsed, AnalyzeSeconds, TrainSeconds, ExtractSeconds,
        ScoreSeconds, SelectSeconds, TotalSeconds, Programs, Graphs,
        ReceiverPairs, Matches, TrainingSamples, FeatureHashes, Candidates,
        PeakCandidates, Quarantined.size());
    std::string Out = Buf;
    for (size_t I = 0; I < Quarantined.size(); ++I) {
      const QuarantineRecord &Q = Quarantined[I];
      if (I)
        Out += ", ";
      Out += "{\"program\": " + std::to_string(Q.Program) + ", \"name\": ";
      appendJsonQuoted(Out, Q.Name);
      Out += ", \"reason\": ";
      appendJsonQuoted(Out, Q.Reason);
      Out += "}";
    }
    Out += "]}";
    return Out;
  }
};

/// Steady-clock stopwatch for phase timing.
class PhaseTimer {
public:
  PhaseTimer() : Start(std::chrono::steady_clock::now()) {}

  /// Seconds since construction or the last lap() call.
  double lap() {
    auto Now = std::chrono::steady_clock::now();
    double Sec = std::chrono::duration<double>(Now - Start).count();
    Start = Now;
    return Sec;
  }

private:
  std::chrono::steady_clock::time_point Start;
};

} // namespace uspec

#endif // USPEC_CORE_PIPELINESTATS_H
