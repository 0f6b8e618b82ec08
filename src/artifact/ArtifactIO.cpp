//===- ArtifactIO.cpp - Typed section codecs for USPB artifacts ---------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "artifact/ArtifactIO.h"

#include "support/FaultInject.h"
#include "support/Trace.h"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace uspec;

namespace {

/// Decoder-side cardinality caps: generous for real artifacts, small enough
/// that corrupted counts cannot provoke huge allocations.
constexpr uint64_t MaxStrings = 1u << 24;
constexpr uint64_t MaxSpecs = 1u << 24;
constexpr uint64_t MaxCandidates = 1u << 24;
constexpr uint64_t MaxModels = 1u << 16;
constexpr uint64_t MaxDimBits = 30;
constexpr uint64_t MaxManifestEntries = 1u << 24;
constexpr uint64_t MaxLedgerConfidences = 1u << 28;

/// The smallest encoding of one spec (kind byte, class and name varints,
/// arity byte). With it every count that sizes a reserve is also bounded by
/// the bytes that remain, so a count that lies fails before the reserve.
constexpr uint64_t MinSpecBytes = 4;

/// Finishes a section decode: the reader must have consumed every byte.
template <typename T>
std::optional<T> finish(BinaryReader &R, T Value, ArtifactError *Err) {
  if (R.ok() && R.remaining() > 0)
    R.fail(std::to_string(R.remaining()) + " trailing bytes after payload");
  if (!R.ok()) {
    if (Err)
      *Err = R.error();
    return std::nullopt;
  }
  return std::optional<T>(std::move(Value));
}

} // namespace

//===----------------------------------------------------------------------===//
// String table
//===----------------------------------------------------------------------===//

uint32_t SymbolTableBuilder::localId(Symbol Sym) {
  if (Sym.isEmpty())
    return 0;
  auto It = Map.find(Sym.id());
  if (It != Map.end())
    return It->second;
  uint32_t Local = static_cast<uint32_t>(Order.size());
  Order.push_back(Sym);
  Map.emplace(Sym.id(), Local);
  return Local;
}

std::string SymbolTableBuilder::encode() const {
  BinaryWriter W;
  W.writeVarint(Order.size());
  for (Symbol Sym : Order)
    W.writeString(Strings.str(Sym));
  return W.take();
}

std::optional<SymbolTable> SymbolTable::decode(std::string_view Bytes,
                                               StringInterner &Strings,
                                               ArtifactError *Err) {
  BinaryReader R(Bytes, "strs");
  SymbolTable Table;
  uint64_t Count = R.readCount(MaxStrings, "string", /*MinBytesEach=*/1);
  Table.Syms.reserve(static_cast<size_t>(Count));
  for (uint64_t I = 0; R.ok() && I < Count; ++I) {
    std::string_view Str = R.readString();
    if (!R.ok())
      break;
    if (I == 0 && !Str.empty()) {
      R.fail("string 0 must be empty (the unknown class)");
      break;
    }
    Table.Syms.push_back(Strings.intern(Str));
  }
  return finish(R, std::move(Table), Err);
}

//===----------------------------------------------------------------------===//
// Specs
//===----------------------------------------------------------------------===//

namespace {

void encodeMethodId(BinaryWriter &W, const MethodId &M,
                    SymbolTableBuilder &Syms) {
  W.writeVarint(Syms.localId(M.Class));
  W.writeVarint(Syms.localId(M.Name));
  W.writeU8(M.Arity);
}

MethodId decodeMethodId(BinaryReader &R, const SymbolTable &Syms) {
  MethodId M;
  M.Class = Syms.resolve(R.readVarint(), R);
  M.Name = Syms.resolve(R.readVarint(), R);
  M.Arity = R.readU8();
  if (R.ok() && M.Name.isEmpty())
    R.fail("method with empty name");
  return M;
}

} // namespace

void uspec::encodeSpec(BinaryWriter &W, const Spec &S,
                       SymbolTableBuilder &Syms) {
  W.writeU8(static_cast<uint8_t>(S.TheKind));
  encodeMethodId(W, S.Target, Syms);
  if (S.TheKind == Spec::Kind::RetArg) {
    encodeMethodId(W, S.Source, Syms);
    W.writeU8(S.ArgPos);
  }
}

Spec uspec::decodeSpec(BinaryReader &R, const SymbolTable &Syms) {
  uint8_t Kind = R.readU8();
  if (R.ok() && Kind > static_cast<uint8_t>(Spec::Kind::RetRecv)) {
    R.fail("unknown spec kind " + std::to_string(Kind));
    return Spec();
  }
  MethodId Target = decodeMethodId(R, Syms);
  if (!R.ok())
    return Spec();
  switch (static_cast<Spec::Kind>(Kind)) {
  case Spec::Kind::RetSame:
    return Spec::retSame(Target);
  case Spec::Kind::RetRecv:
    return Spec::retRecv(Target);
  case Spec::Kind::RetArg:
    break;
  }
  MethodId Source = decodeMethodId(R, Syms);
  uint8_t ArgPos = R.readU8();
  if (R.ok() && ArgPos == 0)
    R.fail("RetArg with argument position 0");
  if (!R.ok())
    return Spec();
  return Spec::retArg(Target, Source, ArgPos);
}

std::string uspec::encodeSpecSet(const SpecSet &Specs,
                                 SymbolTableBuilder &Syms) {
  BinaryWriter W;
  W.writeVarint(Specs.size());
  for (const Spec &S : Specs.all())
    encodeSpec(W, S, Syms);
  return W.take();
}

std::optional<SpecSet> uspec::decodeSpecSet(std::string_view Bytes,
                                            const SymbolTable &Syms,
                                            ArtifactError *Err) {
  BinaryReader R(Bytes, "spec");
  SpecSet Specs;
  uint64_t Count = R.readCount(MaxSpecs, "spec");
  for (uint64_t I = 0; R.ok() && I < Count; ++I) {
    Spec S = decodeSpec(R, Syms);
    if (R.ok())
      Specs.insert(S);
  }
  return finish(R, std::move(Specs), Err);
}

//===----------------------------------------------------------------------===//
// Model
//===----------------------------------------------------------------------===//

std::string uspec::encodeModel(const EdgeModel &Model) {
  const EdgeModelConfig &Cfg = Model.config();
  BinaryWriter W;
  W.writeVarint(Cfg.DimBits);
  W.writeVarint(Cfg.Epochs);
  W.writeF64(Cfg.LearningRate);
  W.writeF64(Cfg.L2);
  W.writeU64(Cfg.Seed);
  W.writeVarint(Model.models().size());
  for (const auto &[PosKey, Lr] : Model.models()) {
    W.writeU16(PosKey);
    const std::vector<float> &Weights = Lr.weights();
    W.writeVarint(Weights.size());
    W.writeF32(Lr.bias());
    // Sparse gap coding: SGD only ever touches hashed feature slots, so
    // most of the table is still exactly 0.0f and is omitted.
    size_t NonZero = 0;
    for (float V : Weights)
      NonZero += V != 0.0f;
    W.writeVarint(NonZero);
    uint64_t Prev = 0;
    for (size_t I = 0; I < Weights.size(); ++I) {
      if (Weights[I] == 0.0f)
        continue;
      W.writeVarint(I - Prev);
      W.writeF32(Weights[I]);
      Prev = I;
    }
  }
  return W.take();
}

std::optional<EdgeModel> uspec::decodeModel(std::string_view Bytes,
                                            ArtifactError *Err) {
  BinaryReader R(Bytes, "modl");
  EdgeModelConfig Cfg;
  Cfg.DimBits =
      static_cast<unsigned>(R.readCount(MaxDimBits, "model dim bits"));
  Cfg.Epochs = static_cast<unsigned>(R.readCount(1u << 20, "epoch"));
  Cfg.LearningRate = R.readF64();
  Cfg.L2 = R.readF64();
  Cfg.Seed = R.readU64();
  uint64_t NumModels = R.readCount(MaxModels, "model");
  std::map<uint16_t, LogisticRegression> Models;
  for (uint64_t I = 0; R.ok() && I < NumModels; ++I) {
    uint16_t PosKey = R.readU16();
    uint64_t TableSize = R.readCount(1ull << MaxDimBits, "weight");
    if (R.ok() && (TableSize == 0 || (TableSize & (TableSize - 1))))
      R.fail("weight table size " + std::to_string(TableSize) +
             " is not a power of two");
    float Bias = R.readF32();
    uint64_t NonZero = R.readCount(TableSize, "nonzero weight");
    if (!R.ok())
      break;
    std::vector<float> Weights(static_cast<size_t>(TableSize), 0.0f);
    uint64_t Index = 0;
    bool First = true;
    for (uint64_t J = 0; R.ok() && J < NonZero; ++J) {
      uint64_t Gap = R.readVarint();
      Index = First ? Gap : Index + Gap;
      First = false;
      float V = R.readF32();
      if (!R.ok())
        break;
      if (Index >= TableSize) {
        R.fail("weight index " + std::to_string(Index) +
               " out of range (table size " + std::to_string(TableSize) + ")");
        break;
      }
      Weights[static_cast<size_t>(Index)] = V;
    }
    if (!R.ok())
      break;
    if (Models.count(PosKey)) {
      R.fail("duplicate model for position key " + std::to_string(PosKey));
      break;
    }
    Models.emplace(PosKey,
                   LogisticRegression::restore(Bias, std::move(Weights)));
  }
  return finish(R, EdgeModel::restore(Cfg, std::move(Models)), Err);
}

//===----------------------------------------------------------------------===//
// Candidates
//===----------------------------------------------------------------------===//

std::string
uspec::encodeCandidates(const std::vector<ScoredCandidate> &Candidates,
                        SymbolTableBuilder &Syms) {
  BinaryWriter W;
  W.writeVarint(Candidates.size());
  for (const ScoredCandidate &C : Candidates) {
    encodeSpec(W, C.S, Syms);
    W.writeF64(C.Score);
    W.writeVarint(C.Matches);
    W.writeVarint(C.Programs);
    W.writeVarint(C.NumConfidences);
  }
  return W.take();
}

std::optional<std::vector<ScoredCandidate>>
uspec::decodeCandidates(std::string_view Bytes, const SymbolTable &Syms,
                        ArtifactError *Err) {
  BinaryReader R(Bytes, "cand");
  std::vector<ScoredCandidate> Candidates;
  // A candidate: spec, f64 score, then three varints.
  uint64_t Count =
      R.readCount(MaxCandidates, "candidate", MinSpecBytes + 8 + 3);
  Candidates.reserve(static_cast<size_t>(Count));
  for (uint64_t I = 0; R.ok() && I < Count; ++I) {
    ScoredCandidate C;
    C.S = decodeSpec(R, Syms);
    C.Score = R.readF64();
    C.Matches = static_cast<size_t>(R.readVarint());
    C.Programs = static_cast<size_t>(R.readVarint());
    C.NumConfidences = static_cast<size_t>(R.readVarint());
    if (R.ok())
      Candidates.push_back(std::move(C));
  }
  return finish(R, std::move(Candidates), Err);
}

//===----------------------------------------------------------------------===//
// Corpus manifest
//===----------------------------------------------------------------------===//

bool CorpusManifest::sameCorpus(const CorpusManifest &Other) const {
  if (Entries.size() != Other.Entries.size())
    return false;
  for (size_t I = 0; I < Entries.size(); ++I)
    if (Entries[I].Fingerprint != Other.Entries[I].Fingerprint)
      return false;
  return true;
}

std::string uspec::encodeManifest(const CorpusManifest &Manifest) {
  BinaryWriter W;
  W.writeVarint(Manifest.Entries.size());
  for (const CorpusManifest::Entry &E : Manifest.Entries) {
    W.writeString(E.Name);
    W.writeU64(E.Fingerprint);
  }
  W.writeVarint(Manifest.Generation);
  return W.take();
}

std::optional<CorpusManifest> uspec::decodeManifest(std::string_view Bytes,
                                                    ArtifactError *Err) {
  BinaryReader R(Bytes, "mani");
  CorpusManifest Manifest;
  // An entry: name (length varint first), then the u64 fingerprint.
  uint64_t Count =
      R.readCount(MaxManifestEntries, "manifest", /*MinBytesEach=*/1 + 8);
  Manifest.Entries.reserve(static_cast<size_t>(Count));
  for (uint64_t I = 0; R.ok() && I < Count; ++I) {
    CorpusManifest::Entry E;
    E.Name = std::string(R.readString());
    E.Fingerprint = R.readU64();
    if (R.ok())
      Manifest.Entries.push_back(std::move(E));
  }
  // The trailing generation varint postdates the first artifact release:
  // absent bytes (an older artifact) decode as generation 0.
  if (R.ok() && R.remaining() > 0)
    Manifest.Generation = R.readVarint();
  // Artifacts from the retired distributed trainer may carry two more
  // trailing fields (worker count varint, shard-map checksum u64): read and
  // drop them, so those artifacts still load.
  if (R.ok() && R.remaining() > 0) {
    R.readVarint();
    R.readU64();
  }
  return finish(R, std::move(Manifest), Err);
}

//===----------------------------------------------------------------------===//
// Journal lineage + candidate ledger (incremental training)
//===----------------------------------------------------------------------===//

std::string uspec::encodeLineage(const JournalLineage &Lineage) {
  BinaryWriter W;
  W.writeVarint(Lineage.Generation);
  W.writeU64(Lineage.ChainChecksum);
  W.writeVarint(Lineage.TrainedEntries);
  return W.take();
}

std::optional<JournalLineage> uspec::decodeLineage(std::string_view Bytes,
                                                   ArtifactError *Err) {
  BinaryReader R(Bytes, "jrnl");
  JournalLineage Lineage;
  Lineage.Generation = R.readVarint();
  Lineage.ChainChecksum = R.readU64();
  Lineage.TrainedEntries = R.readVarint();
  return finish(R, std::move(Lineage), Err);
}

std::string uspec::encodeLedger(const CandidateLedger &Ledger,
                                SymbolTableBuilder &Syms) {
  BinaryWriter W;
  W.writeVarint(Ledger.Entries.size());
  for (const CandidateLedger::Entry &E : Ledger.Entries) {
    encodeSpec(W, E.S, Syms);
    W.writeVarint(E.Confidences.size());
    for (double C : E.Confidences)
      W.writeF64(C);
    W.writeVarint(E.Matches);
    W.writeVarint(E.Programs);
  }
  return W.take();
}

std::optional<CandidateLedger> uspec::decodeLedger(std::string_view Bytes,
                                                   const SymbolTable &Syms,
                                                   ArtifactError *Err) {
  BinaryReader R(Bytes, "gams");
  CandidateLedger Ledger;
  // An entry: spec, then three varints (confidence count, matches,
  // programs).
  uint64_t Count =
      R.readCount(MaxCandidates, "ledger entry", MinSpecBytes + 3);
  Ledger.Entries.reserve(static_cast<size_t>(Count));
  for (uint64_t I = 0; R.ok() && I < Count; ++I) {
    CandidateLedger::Entry E;
    E.S = decodeSpec(R, Syms);
    uint64_t NumConf =
        R.readCount(MaxLedgerConfidences, "confidence", /*MinBytesEach=*/8);
    E.Confidences.reserve(static_cast<size_t>(NumConf));
    for (uint64_t C = 0; R.ok() && C < NumConf; ++C)
      E.Confidences.push_back(R.readF64());
    E.Matches = static_cast<size_t>(R.readVarint());
    E.Programs = static_cast<size_t>(R.readVarint());
    if (R.ok())
      Ledger.Entries.push_back(std::move(E));
  }
  return finish(R, std::move(Ledger), Err);
}

//===----------------------------------------------------------------------===//
// Crash-safe file writes
//===----------------------------------------------------------------------===//

std::string uspec::atomicTempPath(const std::string &Path) {
  return Path + ".tmp";
}

bool uspec::writeFileAtomic(const std::string &Path, std::string_view Bytes,
                            std::string *Err) {
  TraceSpan Span("artifact.write");
  if (Span.active()) {
    Span.arg("path", Path);
    Span.arg("bytes", std::to_string(Bytes.size()));
  }
  const std::string Tmp = atomicTempPath(Path);
  auto Fail = [&](const char *What) {
    if (Err)
      *Err = std::string(What) + " '" + Tmp + "': " + std::strerror(errno);
    ::unlink(Tmp.c_str());
    return false;
  };
  try {
    USPEC_FAULT_POINT("artifact.write");
    int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Fd < 0)
      return Fail("cannot open");
    size_t Off = 0;
    while (Off < Bytes.size()) {
      ssize_t W = ::write(Fd, Bytes.data() + Off, Bytes.size() - Off);
      if (W < 0) {
        if (errno == EINTR)
          continue;
        ::close(Fd);
        return Fail("cannot write");
      }
      Off += static_cast<size_t>(W);
    }
    USPEC_FAULT_POINT("artifact.write.data");
    // fsync before rename: the rename must not become durable before the
    // data, or a crash could publish a zero-length/partial file.
    if (::fsync(Fd) != 0) {
      ::close(Fd);
      return Fail("cannot fsync");
    }
    ::close(Fd);
    USPEC_FAULT_POINT("artifact.write.fsync");
    if (::rename(Tmp.c_str(), Path.c_str()) != 0)
      return Fail("cannot rename");
    USPEC_FAULT_POINT("artifact.write.rename");
    return true;
  } catch (const FaultInjected &F) {
    if (Err)
      *Err = F.what();
    ::unlink(Tmp.c_str());
    return false;
  }
}

bool uspec::discardStaleTemp(const std::string &Path, std::string *Warning) {
  const std::string Tmp = atomicTempPath(Path);
  struct stat St;
  if (::stat(Tmp.c_str(), &St) != 0)
    return false;
  ::unlink(Tmp.c_str());
  if (Warning)
    *Warning = "discarded stale partial write '" + Tmp + "' (" +
               std::to_string(St.st_size) + " bytes) from an interrupted run";
  return true;
}
