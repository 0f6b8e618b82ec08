//===- Binary.h - Little-endian binary (de)serialization -------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The byte-level primitives of the USPB artifact format (DESIGN.md §7):
/// a BinaryWriter that appends fixed-width little-endian integers, IEEE-754
/// floats and LEB128 varints to a growable buffer, and a bounds-checked
/// BinaryReader over a read-only byte view.
///
/// The reader is designed for hostile input: every read is bounds-checked,
/// a failed read returns a zero value and latches a sticky error carrying
/// the section name and byte offset of the first failure, and no read ever
/// touches memory outside the view — truncated or corrupted artifacts fail
/// with a precise diagnostic, never with undefined behavior.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_ARTIFACT_BINARY_H
#define USPEC_ARTIFACT_BINARY_H

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace uspec {

/// Where and why decoding an artifact failed. Section is the USPB section
/// name being decoded ("header" before any section), Offset the byte
/// position within that section.
struct ArtifactError {
  std::string Section = "header";
  size_t Offset = 0;
  std::string Message;

  /// Renders as "section 'modl', offset 12: truncated varint".
  std::string str() const;
};

/// Appends little-endian binary data to a growable byte buffer.
class BinaryWriter {
public:
  void writeU8(uint8_t V) { Buf.push_back(static_cast<char>(V)); }

  void writeU16(uint16_t V) { writeLE(V, 2); }
  void writeU32(uint32_t V) { writeLE(V, 4); }
  void writeU64(uint64_t V) { writeLE(V, 8); }

  void writeF32(float V) {
    uint32_t Bits;
    std::memcpy(&Bits, &V, 4);
    writeU32(Bits);
  }

  void writeF64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, 8);
    writeU64(Bits);
  }

  /// Unsigned LEB128.
  void writeVarint(uint64_t V) {
    while (V >= 0x80) {
      writeU8(static_cast<uint8_t>(V) | 0x80);
      V >>= 7;
    }
    writeU8(static_cast<uint8_t>(V));
  }

  /// Varint length followed by raw bytes.
  void writeString(std::string_view Str) {
    writeVarint(Str.size());
    Buf.append(Str);
  }

  /// Raw bytes, no length prefix.
  void writeBytes(std::string_view Bytes) { Buf.append(Bytes); }

  const std::string &data() const { return Buf; }
  std::string take() { return std::move(Buf); }
  size_t size() const { return Buf.size(); }

private:
  void writeLE(uint64_t V, unsigned Bytes) {
    for (unsigned I = 0; I < Bytes; ++I)
      Buf.push_back(static_cast<char>((V >> (8 * I)) & 0xFF));
  }

  std::string Buf;
};

/// Bounds-checked reader over a byte view. All reads after a failure return
/// zero values; the first failure is latched in error().
class BinaryReader {
public:
  explicit BinaryReader(std::string_view Data, std::string Section = "")
      : Data(Data) {
    Err.Section = Section.empty() ? "header" : std::move(Section);
  }

  uint8_t readU8() { return static_cast<uint8_t>(readLE(1, "u8")); }
  uint16_t readU16() { return static_cast<uint16_t>(readLE(2, "u16")); }
  uint32_t readU32() { return static_cast<uint32_t>(readLE(4, "u32")); }
  uint64_t readU64() { return readLE(8, "u64"); }

  float readF32() {
    uint32_t Bits = readU32();
    float V;
    std::memcpy(&V, &Bits, 4);
    return V;
  }

  double readF64() {
    uint64_t Bits = readU64();
    double V;
    std::memcpy(&V, &Bits, 8);
    return V;
  }

  /// Unsigned LEB128; fails on truncation and on encodings longer than 64
  /// bits.
  uint64_t readVarint() {
    if (Failed)
      return 0;
    uint64_t V = 0;
    for (unsigned Shift = 0;; Shift += 7) {
      if (Pos >= Data.size()) {
        fail("truncated varint");
        return 0;
      }
      uint8_t B = static_cast<uint8_t>(Data[Pos++]);
      // Byte 10 (shift 63) may only carry the 64th value bit and no
      // continuation.
      if (Shift > 63 || (Shift == 63 && (B & ~uint8_t(1)))) {
        fail("varint overflows 64 bits");
        return 0;
      }
      V |= static_cast<uint64_t>(B & 0x7F) << Shift;
      if (!(B & 0x80))
        return V;
    }
  }

  /// Varint that must fit in [0, Max]; used for element counts so corrupted
  /// headers cannot trigger multi-gigabyte allocations. A nonzero
  /// \p MinBytesEach (the smallest encoding of one element) also bounds the
  /// count by the bytes that remain, so a count that lies about data the
  /// peer never sent fails before the caller reserves anything for it.
  uint64_t readCount(uint64_t Max, const char *What,
                     uint64_t MinBytesEach = 0) {
    uint64_t V = readVarint();
    if (!Failed && V > Max)
      fail(std::string(What) + " count " + std::to_string(V) +
           " exceeds limit " + std::to_string(Max));
    else if (!Failed && MinBytesEach && V > remaining() / MinBytesEach)
      fail(std::string(What) + " count " + std::to_string(V) +
           " needs at least " + std::to_string(V * MinBytesEach) +
           " bytes, have " + std::to_string(remaining()));
    return Failed ? 0 : V;
  }

  /// Varint length-prefixed byte string (view into the underlying buffer).
  std::string_view readString() {
    uint64_t Len = readVarint();
    return readBytes(Len);
  }

  /// Raw bytes, failing when fewer than \p Len remain.
  std::string_view readBytes(uint64_t Len) {
    if (Failed)
      return {};
    if (Len > Data.size() - Pos) {
      fail("truncated: need " + std::to_string(Len) + " bytes, have " +
           std::to_string(Data.size() - Pos));
      return {};
    }
    std::string_view V = Data.substr(Pos, Len);
    Pos += static_cast<size_t>(Len);
    return V;
  }

  /// Latches the first failure with the current offset.
  void fail(std::string Message) {
    if (Failed)
      return;
    Failed = true;
    Err.Offset = Pos;
    Err.Message = std::move(Message);
  }

  bool ok() const { return !Failed; }
  bool atEnd() const { return Failed || Pos >= Data.size(); }
  size_t offset() const { return Pos; }
  size_t remaining() const { return Failed ? 0 : Data.size() - Pos; }
  const ArtifactError &error() const { return Err; }

private:
  uint64_t readLE(unsigned Bytes, const char *What) {
    if (Failed)
      return 0;
    if (Bytes > Data.size() - Pos) {
      fail(std::string("truncated ") + What);
      return 0;
    }
    uint64_t V = 0;
    for (unsigned I = 0; I < Bytes; ++I)
      V |= static_cast<uint64_t>(static_cast<uint8_t>(Data[Pos + I]))
           << (8 * I);
    Pos += Bytes;
    return V;
  }

  std::string_view Data;
  size_t Pos = 0;
  bool Failed = false;
  ArtifactError Err;
};

} // namespace uspec

#endif // USPEC_ARTIFACT_BINARY_H
