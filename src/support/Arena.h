//===- Arena.h - Bump/slab allocator for analysis scratch ------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer slab arena for per-program analysis scratch (points-to
/// sets, solver adjacency, field maps). The learn() hot path allocates
/// millions of tiny, short-lived arrays whose lifetimes all end together
/// when a program's analysis finishes; routing them through the general
/// allocator serializes the parallel pipeline on the malloc locks and pays
/// a destructor walk per program. An Arena turns each allocation into a
/// pointer bump and the whole teardown into a handful of slab frees (or a
/// cursor rewind with reset()).
///
/// Deliberately minimal:
///  - allocations never run constructors/destructors — callers place
///    trivially-destructible data only (u32/u64 spans, PODs);
///  - individual frees do not exist; memory is reclaimed by reset() or the
///    arena's destructor;
///  - not thread-safe; the pipeline gives each worker its own arena.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_SUPPORT_ARENA_H
#define USPEC_SUPPORT_ARENA_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

namespace uspec {

class Arena {
public:
  /// \p FirstSlabBytes sizes the initial slab; later slabs double up to
  /// MaxSlabBytes so a large program costs O(log n) mmap-sized mallocs.
  explicit Arena(size_t FirstSlabBytes = 1 << 16)
      : NextSlabBytes(FirstSlabBytes ? FirstSlabBytes : 1 << 16) {}

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Raw aligned allocation. Never returns null (throws std::bad_alloc via
  /// operator new on exhaustion, like the STL containers it replaces).
  void *allocate(size_t Bytes, size_t Align = alignof(std::max_align_t)) {
    assert((Align & (Align - 1)) == 0 && "alignment must be a power of two");
    uintptr_t P = (Cursor + (Align - 1)) & ~(uintptr_t)(Align - 1);
    if (P + Bytes > SlabEnd) {
      grow(Bytes + Align);
      P = (Cursor + (Align - 1)) & ~(uintptr_t)(Align - 1);
    }
    Cursor = P + Bytes;
    return reinterpret_cast<void *>(P);
  }

  /// Uninitialized array of \p N trivially-destructible Ts.
  template <typename T> T *allocArray(size_t N) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without running destructors");
    return static_cast<T *>(allocate(N * sizeof(T), alignof(T)));
  }

  /// Zero-initialized array of \p N Ts.
  template <typename T> T *allocArrayZeroed(size_t N) {
    T *P = allocArray<T>(N);
    std::memset(static_cast<void *>(P), 0, N * sizeof(T));
    return P;
  }

  /// Rewinds to empty, keeping every slab for reuse. One reset replaces the
  /// millions of destructor calls a per-program STL teardown would run.
  void reset() {
    CurSlab = 0;
    if (!Slabs.empty()) {
      Cursor = reinterpret_cast<uintptr_t>(Slabs[0].Mem.get());
      SlabEnd = Cursor + Slabs[0].Bytes;
    } else {
      Cursor = SlabEnd = 0;
    }
  }

  /// Bytes handed out since construction/reset (diagnostics only).
  size_t bytesUsed() const {
    size_t Used = 0;
    for (size_t I = 0; I < CurSlab && I < Slabs.size(); ++I)
      Used += Slabs[I].Bytes;
    if (CurSlab < Slabs.size())
      Used += Cursor - reinterpret_cast<uintptr_t>(Slabs[CurSlab].Mem.get());
    return Used;
  }

  /// Total bytes reserved across all slabs.
  size_t bytesReserved() const {
    size_t Total = 0;
    for (const Slab &S : Slabs)
      Total += S.Bytes;
    return Total;
  }

private:
  struct Slab {
    std::unique_ptr<char[]> Mem;
    size_t Bytes = 0;
  };

  static constexpr size_t MaxSlabBytes = size_t(1) << 22; // 4 MiB

  void grow(size_t AtLeast) {
    // After reset() earlier slabs may still be usable; advance first.
    while (CurSlab + 1 < Slabs.size()) {
      ++CurSlab;
      Cursor = reinterpret_cast<uintptr_t>(Slabs[CurSlab].Mem.get());
      SlabEnd = Cursor + Slabs[CurSlab].Bytes;
      if (Cursor + AtLeast <= SlabEnd)
        return;
    }
    size_t Bytes = NextSlabBytes;
    while (Bytes < AtLeast)
      Bytes *= 2;
    if (NextSlabBytes < MaxSlabBytes)
      NextSlabBytes *= 2;
    // Uninitialized, like every allocation from the arena.
    Slabs.push_back(
        Slab{std::make_unique_for_overwrite<char[]>(Bytes), Bytes});
    CurSlab = Slabs.size() - 1;
    Cursor = reinterpret_cast<uintptr_t>(Slabs.back().Mem.get());
    SlabEnd = Cursor + Bytes;
  }

  std::vector<Slab> Slabs;
  size_t CurSlab = 0;
  uintptr_t Cursor = 0;
  uintptr_t SlabEnd = 0;
  size_t NextSlabBytes;
};

} // namespace uspec

#endif // USPEC_SUPPORT_ARENA_H
