//===- Candidates.h - Candidate extraction & scoring (Alg. 1, §5.2) -*- C++-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Alg. 1: for each event graph, enumerate call-site pairs with the same
/// receiver (bounded history distance, §7.1), match the specification
/// patterns, instantiate candidate specifications, and record the feature
/// row of each single induced edge. Matching needs only the graph, so it
/// runs while the graph is alive; ϕ scores the recorded rows later, when
/// the table is taken. The evidence is one table, CandidateLedger: one
/// entry per candidate in first-seen order, with one merge (append) that
/// folds a run's shards and the ledger carried across incremental runs
/// alike. Scoring (§5.2) turns an entry's confidence list ΓS into a score.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_CORE_CANDIDATES_H
#define USPEC_CORE_CANDIDATES_H

#include "core/Matching.h"
#include "model/EdgeModel.h"
#include "model/SampleSet.h"
#include "specs/Spec.h"
#include "support/Stats.h"

#include <unordered_map>
#include <vector>

namespace uspec {

/// The scoring alternatives discussed in §5.2/§7.2.
enum class ScoreKind : uint8_t {
  TopKMean,     ///< Mean of the k highest confidences (paper default, k=10).
  MaxConfidence,///< Highest confidence in ΓS.
  P95,          ///< 95th percentile of ΓS.
  MatchCount,   ///< Number of matches (ablation baseline).
  ProgramCount, ///< Number of programs with a match (ablation baseline).
  NameAware,    ///< Top-k mean blended with a naming-convention prior —
                ///< the §5.3 future-work direction (core/Naming.h).
};

/// The evidence for every candidate specification seen so far, one entry
/// per candidate in first-seen order. A collector builds one table per
/// shard; a run's ledger is its shard tables appended in shard order, and
/// incremental runs carry it forward (DESIGN.md §12).
struct CandidateLedger {
  struct Entry {
    Spec S;
    std::vector<double> Confidences; ///< ΓS in global graph order.
    size_t Matches = 0;  ///< Pattern matches (also multi-edge ones).
    size_t Programs = 0; ///< Programs with at least one match.
  };
  std::vector<Entry> Entries; ///< First-seen candidate order.

  /// Folds \p Later, evidence over strictly later programs, into this
  /// table: known candidates keep their slots (ΓS concatenates in graph
  /// order, matches and program counts add), new ones append in \p Later's
  /// first-seen order. The fold is associative, so appending shard tables
  /// in shard order equals one serial pass.
  void append(CandidateLedger Later);
};

/// Computes score(S) from one candidate's evidence.
double scoreCandidate(const CandidateLedger::Entry &E, ScoreKind Kind,
                      size_t TopK);

/// Runs Alg. 1 over event graphs into one CandidateLedger table. For
/// sharded extraction give each worker its own collector over a contiguous
/// range of programs and append the taken tables in shard order.
class CandidateCollector {
public:
  /// \p ExperimentalPatterns additionally instantiates the §5.3 extension
  /// pattern RetRecv on every call site with receiver and return events.
  explicit CandidateCollector(unsigned DistanceBound = 10,
                              bool ExperimentalPatterns = false)
      : DistanceBound(DistanceBound), Experimental(ExperimentalPatterns) {}

  /// Processes program \p ProgramId's event graph (Alg. 1), all or nothing:
  /// the graph's matches are held and committed only once it completes.
  /// A match that induces exactly one edge records that edge's feature row
  /// (extractFeatures without pruning) for take() to score; the graph is
  /// not read after this returns. With a budget, each receiver pair and
  /// each pattern probe consumes steps; when it runs out this returns false
  /// and leaves the table, the rows and the counters as they were. Add
  /// each program's graph at most once: its first match of a candidate
  /// counts the program.
  bool addGraph(const EventGraph &G, uint32_t ProgramId, Budget *B = nullptr);

  /// Candidates in the table so far.
  size_t numCandidates() const { return Table.Entries.size(); }
  /// Feature rows awaiting ϕ: one per scored match of the completed graphs.
  size_t numRows() const { return Rows.size(); }

  /// Moves the table out, leaving this collector's table and rows empty
  /// (the counters stay). Each recorded row becomes ϕ's confidence
  /// \p Model.predict(row), appended to its entry's ΓS in row order, which
  /// is graph order.
  CandidateLedger take(const EdgeModel &Model);

  /// Receiver pairs enumerated / pattern matches recorded so far over the
  /// completed graphs (Alg. 1 workload counters; shard counters add up to
  /// a serial run's).
  size_t numReceiverPairs() const { return ReceiverPairsSeen; }
  size_t numMatches() const { return TotalMatches; }

private:
  /// One match of the graph in progress; scored when it induces one edge.
  struct PendingMatch {
    Spec S;
    bool Scored; ///< Its induced edge's feature row is in Rows.
  };
  /// A candidate's entry in Table and the last program that matched it.
  struct Slot {
    size_t Index;
    uint32_t LastProgram;
  };

  unsigned DistanceBound;
  bool Experimental;
  CandidateLedger Table; ///< Confidences stay empty until take().
  std::unordered_map<Spec, Slot, SpecHash> Slots;
  std::vector<PendingMatch> Pending;
  /// The feature row of every committed scored match, unlabeled, in commit
  /// order, and the Table entry each row's confidence belongs to.
  SampleSet Rows;
  std::vector<size_t> RowEntry;
  size_t ReceiverPairsSeen = 0;
  size_t TotalMatches = 0;
};

} // namespace uspec

#endif // USPEC_CORE_CANDIDATES_H
