//===- Journal.cpp - Append-only corpus journal (.uspj) -----------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "incremental/Journal.h"

#include "artifact/ArtifactIO.h"
#include "support/FaultInject.h"
#include "support/Hashing.h"

#include <cassert>
#include <fstream>
#include <sstream>

using namespace uspec;
using namespace uspec::incremental;

namespace {

constexpr std::string_view JournalMagic = "USPJ";
constexpr uint16_t JournalVersion = 1;
constexpr uint64_t MaxJournalEntries = 1u << 24;

/// Seed of the chain checksum; any fixed constant works, this one spells
/// the magic so hexdumps of artifacts are self-describing-ish.
constexpr uint64_t ChainSeed = 0x5553504a31ULL; // "USPJ1"

} // namespace

uint64_t JournalEntry::computeChecksum(uint64_t Generation,
                                       std::string_view Name,
                                       std::string_view Source) {
  return hashValues(Generation, hashString(Name), hashString(Source));
}

uint64_t CorpusJournal::chainChecksum(size_t N) const {
  assert(N <= Entries.size() && "prefix longer than journal");
  uint64_t Chain = ChainSeed;
  for (size_t I = 0; I < N; ++I)
    Chain = hashCombine(Chain, Entries[I].Checksum);
  return Chain;
}

JournalEntry &CorpusJournal::append(uint64_t Generation, std::string Name,
                                    std::string Source) {
  assert(Generation >= 1 && Generation >= lastGeneration() &&
         "journal generations must be positive and non-decreasing");
  JournalEntry E;
  E.Generation = Generation;
  E.Checksum = JournalEntry::computeChecksum(Generation, Name, Source);
  E.Name = std::move(Name);
  E.Source = std::move(Source);
  Entries.push_back(std::move(E));
  return Entries.back();
}

std::string incremental::encodeJournal(const CorpusJournal &J) {
  BinaryWriter W;
  W.writeBytes(JournalMagic);
  W.writeU16(JournalVersion);
  W.writeVarint(J.Entries.size());
  for (const JournalEntry &E : J.Entries) {
    W.writeVarint(E.Generation);
    W.writeString(E.Name);
    W.writeString(E.Source);
    W.writeU64(E.Checksum);
  }
  return W.take();
}

bool incremental::decodeJournal(std::string_view Bytes, CorpusJournal &Out,
                                ArtifactError *Err) {
  BinaryReader R(Bytes, "journal");
  if (R.readBytes(JournalMagic.size()) != JournalMagic && R.ok())
    R.fail("bad magic (not a USPJ journal)");
  uint16_t Version = R.readU16();
  if (R.ok() && Version != JournalVersion)
    R.fail("unsupported journal version " + std::to_string(Version));

  CorpusJournal J;
  // An entry takes at least 11 bytes: three one-byte varints (generation,
  // name and source lengths) and the u64 checksum.
  uint64_t Count =
      R.readCount(MaxJournalEntries, "journal entry", /*MinBytesEach=*/11);
  J.Entries.reserve(static_cast<size_t>(Count));
  uint64_t PrevGen = 0;
  for (uint64_t I = 0; R.ok() && I < Count; ++I) {
    JournalEntry E;
    E.Generation = R.readVarint();
    E.Name = std::string(R.readString());
    E.Source = std::string(R.readString());
    E.Checksum = R.readU64();
    if (!R.ok())
      break;
    if (E.Generation < 1 || E.Generation < PrevGen) {
      R.fail("entry " + std::to_string(I) + ": generation " +
             std::to_string(E.Generation) + " regresses (previous " +
             std::to_string(PrevGen) + ")");
      break;
    }
    if (E.Checksum !=
        JournalEntry::computeChecksum(E.Generation, E.Name, E.Source)) {
      R.fail("entry " + std::to_string(I) + " ('" + E.Name +
             "'): checksum mismatch");
      break;
    }
    PrevGen = E.Generation;
    J.Entries.push_back(std::move(E));
  }
  if (R.ok() && R.remaining() > 0)
    R.fail(std::to_string(R.remaining()) + " trailing bytes after entries");
  if (!R.ok()) {
    if (Err)
      *Err = R.error();
    return false;
  }
  Out = std::move(J);
  return true;
}

bool incremental::loadJournal(const std::string &Path, CorpusJournal &Out,
                              bool MissingOk, std::string *Err) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    if (MissingOk) {
      Out = CorpusJournal();
      return true;
    }
    if (Err)
      *Err = "cannot open journal '" + Path + "'";
    return false;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  ArtifactError DecodeErr;
  if (!decodeJournal(SS.str(), Out, &DecodeErr)) {
    if (Err)
      *Err = "journal '" + Path + "': " + DecodeErr.str();
    return false;
  }
  return true;
}

bool incremental::saveJournal(const std::string &Path, const CorpusJournal &J,
                              std::string *Err) {
  try {
    USPEC_FAULT_POINT("journal.append");
  } catch (const FaultInjected &F) {
    if (Err)
      *Err = F.what();
    return false;
  }
  return writeFileAtomic(Path, encodeJournal(J), Err);
}
