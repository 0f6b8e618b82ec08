//===- SampleSet.cpp - The flat training set of ϕ (§4.2) ------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "model/SampleSet.h"

#include <algorithm>

using namespace uspec;

void SampleSet::reserve(size_t Samples, size_t Hashes) {
  auto Grow = [](auto &V, size_t More) {
    size_t Need = V.size() + More;
    if (Need > V.capacity())
      V.reserve(std::max(Need, 2 * V.capacity()));
  };
  Grow(Pool, Hashes);
  Grow(Ends, Samples);
  Grow(PosKeys, Samples);
  Grow(Labels, Samples);
}

void SampleSet::append(const SampleSet &Other) {
  assert(Pool.size() == numHashes() && "append() with an open row");
  uint64_t Base = Pool.size();
  Pool.insert(Pool.end(), Other.Pool.begin(),
              Other.Pool.begin() + static_cast<ptrdiff_t>(Other.numHashes()));
  for (uint64_t End : Other.Ends)
    Ends.push_back(Base + End);
  PosKeys.insert(PosKeys.end(), Other.PosKeys.begin(), Other.PosKeys.end());
  Labels.insert(Labels.end(), Other.Labels.begin(), Other.Labels.end());
}

SampleSet SampleSet::concat(std::vector<SampleSet> Parts) {
  if (Parts.size() == 1)
    return std::move(Parts.front());
  size_t Samples = 0, Hashes = 0;
  for (const SampleSet &P : Parts) {
    Samples += P.size();
    Hashes += P.numHashes();
  }
  SampleSet Out;
  Out.reserve(Samples, Hashes);
  for (SampleSet &P : Parts) {
    Out.append(P);
    P = SampleSet();
  }
  return Out;
}
