//===- StringInterner.h - Symbol table for interned strings ----*- C++ -*-===//
//
// Part of the USpec reproduction of "Unsupervised Learning of API Aliasing
// Specifications" (PLDI 2019). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interned strings. Every name that flows through the pipeline (method
/// names, class names, literal values) is interned once and referred to by a
/// small integer Symbol, which makes event/feature hashing and equality
/// comparisons cheap and deterministic.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_SUPPORT_STRINGINTERNER_H
#define USPEC_SUPPORT_STRINGINTERNER_H

#include "support/Hashing.h"

#include <array>
#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace uspec {

/// A handle to an interned string. Symbols are only meaningful together with
/// the StringInterner that produced them. Symbol 0 is reserved for the empty
/// string so that a default-constructed Symbol is valid.
class Symbol {
public:
  Symbol() = default;
  explicit Symbol(uint32_t Id) : Id(Id) {}

  uint32_t id() const { return Id; }
  bool isEmpty() const { return Id == 0; }

  friend bool operator==(Symbol A, Symbol B) { return A.Id == B.Id; }
  friend bool operator!=(Symbol A, Symbol B) { return A.Id != B.Id; }
  friend bool operator<(Symbol A, Symbol B) { return A.Id < B.Id; }

private:
  uint32_t Id = 0;
};

/// Deduplicating string table. Mutation (intern of a new string) requires
/// external synchronization, but concurrent const access — str(), size(),
/// intern() of an already-present string — is safe while no writer runs.
/// The parallel pipeline phases rely on this read-only contract: all names
/// are interned during parsing/lowering, before learn() fans out.
class StringInterner {
public:
  /// Symbol 0 (the empty string) is implicit, so a fresh interner holds no
  /// heap memory until its first non-empty intern().
  StringInterner() = default;

  // Copying is still disabled to keep move-only semantics uniform across
  // call sites. Moving steals the chunks and the index vector, so element
  // addresses (and thus str() references) survive.
  StringInterner(const StringInterner &) = delete;
  StringInterner &operator=(const StringInterner &) = delete;
  StringInterner(StringInterner &&O) noexcept
      : Chunks(std::move(O.Chunks)), Index(std::move(O.Index)),
        IndexCount(std::exchange(O.IndexCount, 0)) {}
  StringInterner &operator=(StringInterner &&O) noexcept {
    Chunks = std::move(O.Chunks);
    Index = std::move(O.Index);
    IndexCount = std::exchange(O.IndexCount, 0);
    return *this;
  }

  /// Interns \p Str and returns its Symbol; repeated calls with equal
  /// contents return the same Symbol. Lookup is heterogeneous — a probe for
  /// an already-interned string allocates nothing.
  Symbol intern(std::string_view Str) {
    if (Str.empty())
      return Symbol();
    if (Index.empty() || IndexCount * 10 >= Index.size() * 7)
      rehash(Index.empty() ? 64 : Index.size() * 2);
    uint64_t Hash = hashBytesWide(Str);
    size_t SlotIdx = probe(Str, Hash);
    if (Index[SlotIdx].Id != 0)
      return Symbol(Index[SlotIdx].Id);
    uint32_t Id = static_cast<uint32_t>(IndexCount + 1);
    // Chunks never relocate their elements, so every reference handed out
    // by str() stays valid across arbitrary later intern() calls.
    auto [Chunk, Offset] = locate(Id);
    if (!Chunks[Chunk])
      Chunks[Chunk] = std::make_unique<std::string[]>(size_t(1)
                                                     << (Chunk + ChunkBits));
    Chunks[Chunk][Offset] = Str;
    Index[SlotIdx] = IndexSlot{Hash, Id};
    ++IndexCount;
    return Symbol(Id);
  }

  /// Const probe: the Symbol of \p Str if it is already interned, nullopt
  /// otherwise. Never mutates, so it is safe concurrently with other
  /// readers — this is how const consumers (the query service's client
  /// verbs) resolve externally supplied names against a frozen interner.
  std::optional<Symbol> lookup(std::string_view Str) const {
    if (Str.empty())
      return Symbol();
    if (Index.empty())
      return std::nullopt;
    size_t SlotIdx = probe(Str, hashBytesWide(Str));
    if (Index[SlotIdx].Id == 0)
      return std::nullopt;
    return Symbol(Index[SlotIdx].Id);
  }

  /// Returns the string for \p Sym. The reference is stable for the lifetime
  /// of the interner — storage is chunked, so growth never invalidates
  /// previously returned references.
  const std::string &str(Symbol Sym) const {
    assert(Sym.id() < size() && "symbol from a different interner");
    static const std::string Empty;
    return Sym.isEmpty() ? Empty : stored(Sym.id());
  }

  /// Number of interned strings, including the reserved empty string.
  size_t size() const { return IndexCount + 1; }

private:
  /// One open-addressed slot: cached wide hash (so rehash and most probe
  /// misses never touch the strings) plus the symbol id. Id 0 is the vacant
  /// marker — the empty string short-circuits before reaching the table, so
  /// Symbol 0 never occupies a slot.
  struct IndexSlot {
    uint64_t Hash = 0;
    uint32_t Id = 0;
  };

  /// Returns the slot holding \p Str, or the first vacant slot on its probe
  /// sequence. Requires a non-empty table. Linear probing over a
  /// power-of-two table; string comparison only runs on a full 64-bit hash
  /// match, so collisions are overwhelmingly resolved on the flat array.
  size_t probe(std::string_view Str, uint64_t Hash) const {
    size_t Mask = Index.size() - 1;
    for (size_t I = Hash & Mask;; I = (I + 1) & Mask) {
      const IndexSlot &S = Index[I];
      if (S.Id == 0 || (S.Hash == Hash && stored(S.Id) == Str))
        return I;
    }
  }

  void rehash(size_t NewCap) {
    std::vector<IndexSlot> Old;
    Old.swap(Index);
    Index.resize(NewCap);
    size_t Mask = NewCap - 1;
    for (const IndexSlot &S : Old) {
      if (S.Id == 0)
        continue;
      size_t I = S.Hash & Mask;
      while (Index[I].Id != 0)
        I = (I + 1) & Mask;
      Index[I] = S;
    }
  }

  /// Symbol Id ≥ 1 lives in chunk K at offset O, where chunk K holds
  /// 2^(K + ChunkBits) strings: chunks double in size, so the chunk table
  /// is a fixed array and a lookup is one bit scan.
  static std::pair<unsigned, size_t> locate(uint32_t Id) {
    uint64_t Slot = uint64_t(Id - 1) + (uint64_t(1) << ChunkBits);
    unsigned Chunk = std::bit_width(Slot) - 1 - ChunkBits;
    return {Chunk, Slot - (uint64_t(1) << (Chunk + ChunkBits))};
  }

  const std::string &stored(uint32_t Id) const {
    auto [Chunk, Offset] = locate(Id);
    return Chunks[Chunk][Offset];
  }

  static constexpr unsigned ChunkBits = 4;
  /// Ids below 2^32 give slots below 2^33: chunks 0 .. 32 - ChunkBits.
  std::array<std::unique_ptr<std::string[]>, 33 - ChunkBits> Chunks;
  /// Flat open-addressed (hash, id) table; probes touch one contiguous
  /// array instead of chasing unordered_map buckets.
  std::vector<IndexSlot> Index;
  size_t IndexCount = 0;
};

} // namespace uspec

namespace std {
template <> struct hash<uspec::Symbol> {
  size_t operator()(uspec::Symbol Sym) const noexcept {
    return hash<uint32_t>()(Sym.id());
  }
};
} // namespace std

#endif // USPEC_SUPPORT_STRINGINTERNER_H
