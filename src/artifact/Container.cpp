//===- Container.cpp - The USPB artifact container ----------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "artifact/Container.h"

#include "support/Hashing.h"

#include <algorithm>
#include <cassert>

using namespace uspec;

std::string ArtifactError::str() const {
  return "section '" + Section + "', offset " + std::to_string(Offset) + ": " +
         Message;
}

void ArtifactWriter::addSection(std::string Name, std::string Bytes) {
#ifndef NDEBUG
  for (const Section &S : Sections)
    assert(S.Name != Name && "duplicate artifact section");
#endif
  Sections.push_back({std::move(Name), std::move(Bytes)});
}

std::string ArtifactWriter::finish() {
  BinaryWriter W;
  W.writeBytes(ArtifactMagic);
  W.writeU16(ArtifactFormatVersion);
  W.writeU16(0); // flags, reserved
  W.writeVarint(Sections.size());
  uint64_t Offset = 0;
  for (const Section &S : Sections) {
    W.writeString(S.Name);
    W.writeVarint(Offset);
    W.writeVarint(S.Bytes.size());
    W.writeU64(hashString(S.Bytes));
    Offset += S.Bytes.size();
  }
  for (const Section &S : Sections)
    W.writeBytes(S.Bytes);
  Sections.clear();
  return W.take();
}

namespace {

/// Caps on table cardinality/name length so a corrupted header cannot make
/// us allocate absurd amounts of memory before checksums catch it.
constexpr uint64_t MaxSections = 256;
constexpr uint64_t MaxSectionName = 64;

} // namespace

std::optional<ArtifactReader> ArtifactReader::open(std::string_view Data,
                                                   ArtifactError *Err) {
  BinaryReader R(Data, "header");
  auto Fail = [&]() -> std::optional<ArtifactReader> {
    if (Err)
      *Err = R.error();
    return std::nullopt;
  };

  std::string_view Magic = R.readBytes(ArtifactMagic.size());
  if (R.ok() && Magic != ArtifactMagic)
    R.fail("bad magic (not a USPB artifact)");
  uint16_t Version = R.readU16();
  if (R.ok() && Version != ArtifactFormatVersion)
    R.fail("unsupported format version " + std::to_string(Version) +
           " (expected " + std::to_string(ArtifactFormatVersion) + ")");
  uint16_t Flags = R.readU16();
  if (R.ok() && Flags != 0)
    R.fail("reserved flags must be zero (got " + std::to_string(Flags) + ")");
  uint64_t NumSections = R.readCount(MaxSections, "section");

  struct TableEntry {
    std::string_view Name;
    uint64_t Offset, Size;
    uint64_t Checksum;
  };
  std::vector<TableEntry> Table;
  Table.reserve(static_cast<size_t>(NumSections));
  for (uint64_t I = 0; R.ok() && I < NumSections; ++I) {
    TableEntry E;
    E.Name = R.readString();
    if (R.ok() && (E.Name.empty() || E.Name.size() > MaxSectionName))
      R.fail("bad section name length " + std::to_string(E.Name.size()));
    E.Offset = R.readVarint();
    E.Size = R.readVarint();
    E.Checksum = R.readU64();
    if (!R.ok())
      break;
    for (const TableEntry &Prev : Table)
      if (Prev.Name == E.Name)
        R.fail("duplicate section '" + std::string(E.Name) + "'");
    Table.push_back(E);
  }
  if (!R.ok())
    return Fail();

  // Everything after the table is payload; validate each entry against it.
  std::string_view Payload = Data.substr(R.offset());
  ArtifactReader Result;
  Result.Version = Version;
  uint64_t PayloadEnd = 0;
  for (const TableEntry &E : Table) {
    if (E.Offset > Payload.size() || E.Size > Payload.size() - E.Offset) {
      R.fail("section '" + std::string(E.Name) + "' out of bounds (offset " +
             std::to_string(E.Offset) + ", size " + std::to_string(E.Size) +
             ", payload " + std::to_string(Payload.size()) + ")");
      return Fail();
    }
    PayloadEnd = std::max(PayloadEnd, E.Offset + E.Size);
    std::string_view Bytes =
        Payload.substr(static_cast<size_t>(E.Offset),
                       static_cast<size_t>(E.Size));
    if (hashString(Bytes) != E.Checksum) {
      R.fail("section '" + std::string(E.Name) +
             "' checksum mismatch (corrupted artifact)");
      return Fail();
    }
    Result.Sections.push_back({E.Name, Bytes});
  }
  // The writer lays sections end to end, so bytes past the last one can only
  // come from corruption or a spliced file.
  if (PayloadEnd != Payload.size()) {
    R.fail(std::to_string(Payload.size() - PayloadEnd) +
           " trailing bytes after the last section");
    return Fail();
  }
  return Result;
}

bool ArtifactReader::hasSection(std::string_view Name) const {
  return section(Name).has_value();
}

std::optional<std::string_view>
ArtifactReader::section(std::string_view Name) const {
  for (const Section &S : Sections)
    if (S.Name == Name)
      return S.Bytes;
  return std::nullopt;
}
