//===- SampleSet.h - The flat training set of ϕ (§4.2) ----------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Labeled training samples in one compressed-sparse-row layout: the feature
/// hashes of every sample share a single uint32_t pool, and sample I owns
/// the pool slice ending at Ends[I] (starting where sample I-1 ended). The
/// model selector and label of each sample live in parallel arrays.
///
/// Sampling appends rows in place (no per-sample heap vector), one set per
/// phase-1 chunk; Phase 2b concatenates the chunk sets once into a presized
/// set (a single set is moved, not copied), and SGD reads rows through a
/// shuffled permutation (DESIGN.md §13).
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_MODEL_SAMPLESET_H
#define USPEC_MODEL_SAMPLESET_H

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

namespace uspec {

/// A sequence of labeled samples (model selector, label, feature hashes).
class SampleSet {
public:
  /// Number of samples.
  size_t size() const { return PosKeys.size(); }
  bool empty() const { return PosKeys.empty(); }
  /// Feature hashes over all samples.
  size_t numHashes() const { return Ends.empty() ? 0 : Ends.back(); }

  /// posKey(x1, x2) of sample \p I: which ψ model it trains.
  uint16_t posKey(size_t I) const { return PosKeys[I]; }
  /// 1 = edge exists, 0 = non-edge.
  float label(size_t I) const { return Labels[I]; }
  /// Raw 32-bit feature hashes (pre-masking) of sample \p I.
  std::span<const uint32_t> hashes(size_t I) const {
    uint64_t Begin = I ? Ends[I - 1] : 0;
    return {Pool.data() + Begin, static_cast<size_t>(Ends[I] - Begin)};
  }

  /// Cache hints for visiting samples out of order (no effect on results):
  /// prefetchMeta(I) loads the lines holding sample I's row bounds, PosKey
  /// and label; prefetchHashes(I) then loads its hash row.
  void prefetchMeta(size_t I) const {
    __builtin_prefetch(&Ends[I ? I - 1 : 0]);
    __builtin_prefetch(&PosKeys[I]);
    __builtin_prefetch(&Labels[I]);
  }
  void prefetchHashes(size_t I) const {
    __builtin_prefetch(Pool.data() + (I ? Ends[I - 1] : 0));
  }

  /// Model selectors of all samples, in order.
  const std::vector<uint16_t> &posKeys() const { return PosKeys; }

  /// The hash pool, for writing a sample in place: append its hashes here,
  /// then closeRow(). Hashes appended since the last closeRow() form the
  /// open row.
  std::vector<uint32_t> &pool() { return Pool; }

  /// Closes the open row as one sample.
  void closeRow(uint16_t PosKey, float Label) {
    Ends.push_back(Pool.size());
    PosKeys.push_back(PosKey);
    Labels.push_back(Label);
  }

  /// Appends one sample with a copy of \p Hashes.
  void add(uint16_t PosKey, float Label, std::span<const uint32_t> Hashes) {
    assert(Pool.size() == numHashes() && "add() with an open row");
    Pool.insert(Pool.end(), Hashes.begin(), Hashes.end());
    closeRow(PosKey, Label);
  }

  /// Drops every sample from index \p Samples on, and any open row.
  void truncate(size_t Samples) {
    assert(Samples <= size() && "truncate() past the end");
    Ends.resize(Samples);
    PosKeys.resize(Samples);
    Labels.resize(Samples);
    Pool.resize(numHashes());
  }

  /// Makes room for \p Samples more samples holding \p Hashes more hashes.
  /// Capacity grows at least geometrically, so repeated calls on a growing
  /// set stay amortized linear.
  void reserve(size_t Samples, size_t Hashes);

  /// Concatenates \p Parts in order into one presized set, releasing each
  /// part as soon as it is copied. A single part is moved.
  static SampleSet concat(std::vector<SampleSet> Parts);

private:
  /// Appends every sample of \p Other, in order.
  void append(const SampleSet &Other);

  std::vector<uint32_t> Pool;
  std::vector<uint64_t> Ends; ///< One past each sample's last pool slot.
  std::vector<uint16_t> PosKeys;
  std::vector<float> Labels;
};

} // namespace uspec

#endif // USPEC_MODEL_SAMPLESET_H
