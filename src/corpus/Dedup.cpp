//===- Dedup.cpp - Corpus deduplication (§7.1) ---------------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "corpus/Dedup.h"

#include "support/Hashing.h"

#include <unordered_set>

using namespace uspec;

namespace {

/// Hashes range \p R of \p Method. The sequence is the one artifact
/// manifests persist: each instruction's fields, then the 0x11 marker and,
/// for an If or While, its then or body range; an If then adds 0x22 and its
/// else range. A While's condition range is hashed once, where it sits
/// before the While, never again as part of the loop.
uint64_t hashRange(const IRMethod &Method, IndexRange R, uint64_t Seed) {
  uint64_t H = Seed;
  Method.forEach(R, [&](const Instr &I) {
    H = hashCombine(H, static_cast<uint64_t>(I.TheKind));
    H = hashCombine(H, I.Name.id());
    H = hashCombine(H, I.StrValue.id());
    H = hashCombine(H, static_cast<uint64_t>(I.LitKind));
    H = hashCombine(H, static_cast<uint64_t>(I.intValue()));
    H = hashCombine(H, I.numArgs());
    H = hashCombine(H, static_cast<uint64_t>(I.CondOp));
    // Slots are positional (deterministic lowering), so including them keeps
    // genuinely different data flow apart without depending on names.
    H = hashCombine(H, I.Dst);
    H = hashCombine(H, I.Src);
    H = hashCombine(H, I.Base);
    if (I.TheKind == Instr::Kind::Call)
      for (VarId Arg : Method.args(I))
        H = hashCombine(H, Arg);
    H = hashCombine(H, 0x11);
    if (I.TheKind == Instr::Kind::If) {
      H = hashRange(Method, I.thenRange(), H);
      H = hashRange(Method, I.elseRange(), hashCombine(H, 0x22));
    } else if (I.TheKind == Instr::Kind::While) {
      H = hashRange(Method, I.bodyRange(), H);
    }
  });
  return H;
}

} // namespace

uint64_t uspec::programFingerprint(const IRProgram &Program) {
  uint64_t H = 0xF1D0ULL;
  for (const IRClass &Class : Program.Classes) {
    H = hashCombine(H, Class.Name.id());
    for (Symbol Field : Class.Fields)
      H = hashCombine(H, Field.id());
    for (const IRMethod &Method : Class.Methods) {
      H = hashCombine(H, Method.Name.id());
      H = hashCombine(H, Method.NumParams);
      H = hashRange(Method, Method.body(), H);
    }
  }
  return H;
}

std::vector<size_t>
uspec::duplicateIndices(const std::vector<IRProgram> &Corpus) {
  std::vector<size_t> Duplicates;
  std::unordered_set<uint64_t> Seen;
  for (size_t I = 0; I < Corpus.size(); ++I)
    if (!Seen.insert(programFingerprint(Corpus[I])).second)
      Duplicates.push_back(I);
  return Duplicates;
}

size_t uspec::dedupeCorpus(std::vector<IRProgram> &Corpus) {
  std::unordered_set<uint64_t> Seen;
  size_t Write = 0;
  for (size_t Read = 0; Read < Corpus.size(); ++Read) {
    if (!Seen.insert(programFingerprint(Corpus[Read])).second)
      continue;
    if (Write != Read)
      Corpus[Write] = std::move(Corpus[Read]);
    ++Write;
  }
  size_t Removed = Corpus.size() - Write;
  Corpus.resize(Write);
  return Removed;
}
