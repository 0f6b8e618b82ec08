//===- Wire.cpp - Distributed training/serving wire layer ----------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "distrib/Wire.h"

#include "artifact/ArtifactIO.h"
#include "artifact/Container.h"

#include <arpa/inet.h>
#include <cassert>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <numeric>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace uspec;
using namespace uspec::distrib;

//===----------------------------------------------------------------------===//
// Addresses
//===----------------------------------------------------------------------===//

std::string Address::str() const {
  if (Tcp)
    return "tcp:" + Path + ":" + std::to_string(Port);
  return "unix:" + Path;
}

std::optional<Address> uspec::distrib::parseAddress(std::string_view Text,
                                                    std::string *Err) {
  auto Fail = [&](const std::string &Msg) -> std::optional<Address> {
    if (Err)
      *Err = "bad address '" + std::string(Text) + "': " + Msg;
    return std::nullopt;
  };
  Address A;
  if (Text.rfind("unix:", 0) == 0) {
    A.Path = std::string(Text.substr(5));
    if (A.Path.empty())
      return Fail("empty socket path");
    return A;
  }
  if (Text.rfind("tcp:", 0) == 0) {
    std::string_view Rest = Text.substr(4);
    size_t Colon = Rest.rfind(':');
    if (Colon == std::string_view::npos || Colon == 0)
      return Fail("expected tcp:HOST:PORT");
    A.Tcp = true;
    A.Path = std::string(Rest.substr(0, Colon));
    std::string_view PortText = Rest.substr(Colon + 1);
    uint64_t Port = 0;
    if (PortText.empty())
      return Fail("empty port");
    for (char C : PortText) {
      if (C < '0' || C > '9')
        return Fail("non-numeric port");
      Port = Port * 10 + static_cast<uint64_t>(C - '0');
      if (Port > 65535)
        return Fail("port out of range");
    }
    A.Port = static_cast<uint16_t>(Port);
    return A;
  }
  // A bare path is a Unix socket (matches `serve --socket PATH`).
  if (Text.empty())
    return Fail("empty address");
  A.Path = std::string(Text);
  return A;
}

//===----------------------------------------------------------------------===//
// Sockets
//===----------------------------------------------------------------------===//

namespace {

void fillErrno(std::string *Err, const char *What) {
  if (Err)
    *Err = std::string(What) + ": " + std::strerror(errno);
}

bool resolveIPv4(const std::string &Host, in_addr &Out) {
  if (Host == "localhost" || Host.empty())
    return inet_pton(AF_INET, "127.0.0.1", &Out) == 1;
  return inet_pton(AF_INET, Host.c_str(), &Out) == 1;
}

} // namespace

int uspec::distrib::wireListen(const Address &Addr, std::string *Err) {
  if (Addr.Tcp) {
    int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0) {
      fillErrno(Err, "socket");
      return -1;
    }
    int One = 1;
    ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Sa{};
    Sa.sin_family = AF_INET;
    Sa.sin_port = htons(Addr.Port);
    if (!resolveIPv4(Addr.Path, Sa.sin_addr)) {
      if (Err)
        *Err = "cannot resolve host '" + Addr.Path +
               "' (IPv4 literals and 'localhost' only)";
      ::close(Fd);
      return -1;
    }
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&Sa), sizeof(Sa)) < 0 ||
        ::listen(Fd, 64) < 0) {
      fillErrno(Err, ("bind/listen " + Addr.str()).c_str());
      ::close(Fd);
      return -1;
    }
    return Fd;
  }

  sockaddr_un Sa{};
  Sa.sun_family = AF_UNIX;
  if (Addr.Path.size() >= sizeof(Sa.sun_path)) {
    if (Err)
      *Err = "socket path too long: " + Addr.Path;
    return -1;
  }
  std::memcpy(Sa.sun_path, Addr.Path.c_str(), Addr.Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    fillErrno(Err, "socket");
    return -1;
  }
  ::unlink(Addr.Path.c_str()); // discard a stale socket from a dead process
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Sa), sizeof(Sa)) < 0 ||
      ::listen(Fd, 64) < 0) {
    fillErrno(Err, ("bind/listen " + Addr.str()).c_str());
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int uspec::distrib::wireAccept(int ListenFd, unsigned PollMs) {
  pollfd Pfd{ListenFd, POLLIN, 0};
  int Ready;
  do {
    Ready = ::poll(&Pfd, 1, static_cast<int>(PollMs));
  } while (Ready < 0 && errno == EINTR);
  if (Ready < 0)
    return -2;
  if (Ready == 0)
    return -1;
  int Fd;
  do {
    Fd = ::accept(ListenFd, nullptr, nullptr);
  } while (Fd < 0 && errno == EINTR);
  return Fd < 0 ? -2 : Fd;
}

int uspec::distrib::wireConnect(const Address &Addr, std::string *Err) {
  if (Addr.Tcp) {
    int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0) {
      fillErrno(Err, "socket");
      return -1;
    }
    sockaddr_in Sa{};
    Sa.sin_family = AF_INET;
    Sa.sin_port = htons(Addr.Port);
    if (!resolveIPv4(Addr.Path, Sa.sin_addr)) {
      if (Err)
        *Err = "cannot resolve host '" + Addr.Path +
               "' (IPv4 literals and 'localhost' only)";
      ::close(Fd);
      return -1;
    }
    int Rc;
    do {
      Rc = ::connect(Fd, reinterpret_cast<sockaddr *>(&Sa), sizeof(Sa));
    } while (Rc < 0 && errno == EINTR);
    if (Rc < 0) {
      fillErrno(Err, ("connect " + Addr.str()).c_str());
      ::close(Fd);
      return -1;
    }
    int One = 1;
    ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    return Fd;
  }

  sockaddr_un Sa{};
  Sa.sun_family = AF_UNIX;
  if (Addr.Path.size() >= sizeof(Sa.sun_path)) {
    if (Err)
      *Err = "socket path too long: " + Addr.Path;
    return -1;
  }
  std::memcpy(Sa.sun_path, Addr.Path.c_str(), Addr.Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    fillErrno(Err, "socket");
    return -1;
  }
  int Rc;
  do {
    Rc = ::connect(Fd, reinterpret_cast<sockaddr *>(&Sa), sizeof(Sa));
  } while (Rc < 0 && errno == EINTR);
  if (Rc < 0) {
    fillErrno(Err, ("connect " + Addr.str()).c_str());
    ::close(Fd);
    return -1;
  }
  return Fd;
}

namespace {

bool sendAll(int Fd, const char *Data, size_t Len, std::string *Err) {
  while (Len > 0) {
    ssize_t N = ::send(Fd, Data, Len, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      fillErrno(Err, "send");
      return false;
    }
    Data += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

bool recvAll(int Fd, char *Data, size_t Len, std::string *Err) {
  while (Len > 0) {
    ssize_t N = ::recv(Fd, Data, Len, 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      fillErrno(Err, "recv");
      return false;
    }
    if (N == 0) {
      if (Err)
        *Err = "connection closed mid-frame";
      return false;
    }
    Data += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

constexpr char FrameMagic[4] = {'U', 'S', 'P', 'W'};

} // namespace

bool uspec::distrib::sendFrame(int Fd, std::string_view Payload,
                               std::string *Err) {
  char Header[12];
  std::memcpy(Header, FrameMagic, 4);
  uint64_t Len = Payload.size();
  for (int I = 0; I < 8; ++I)
    Header[4 + I] = static_cast<char>((Len >> (8 * I)) & 0xFF);
  return sendAll(Fd, Header, sizeof(Header), Err) &&
         sendAll(Fd, Payload.data(), Payload.size(), Err);
}

bool uspec::distrib::recvFrame(int Fd, std::string &Payload,
                               std::string *Err) {
  char Header[12];
  if (!recvAll(Fd, Header, sizeof(Header), Err))
    return false;
  if (std::memcmp(Header, FrameMagic, 4) != 0) {
    if (Err)
      *Err = "bad frame magic";
    return false;
  }
  uint64_t Len = 0;
  for (int I = 0; I < 8; ++I)
    Len |= static_cast<uint64_t>(static_cast<unsigned char>(Header[4 + I]))
           << (8 * I);
  if (Len > MaxFrameBytes) {
    if (Err)
      *Err = "frame of " + std::to_string(Len) + " bytes exceeds cap";
    return false;
  }
  Payload.resize(static_cast<size_t>(Len));
  return Len == 0 || recvAll(Fd, Payload.data(), Payload.size(), Err);
}

bool uspec::distrib::clientRoundTrip(const std::string &SocketPath,
                                     const std::string &RequestLine,
                                     std::string &Response, std::string *Err) {
  Address A;
  A.Path = SocketPath;
  int Fd = wireConnect(A, Err);
  if (Fd < 0)
    return false;
  std::string Line = RequestLine;
  if (Line.empty() || Line.back() != '\n')
    Line.push_back('\n');
  if (!sendAll(Fd, Line.data(), Line.size(), Err)) {
    ::close(Fd);
    return false;
  }
  Response.clear();
  char Buf[4096];
  for (;;) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      fillErrno(Err, "recv");
      ::close(Fd);
      return false;
    }
    if (N == 0)
      break;
    Response.append(Buf, static_cast<size_t>(N));
    size_t Newline = Response.find('\n');
    if (Newline != std::string::npos) {
      Response.resize(Newline);
      break;
    }
  }
  ::close(Fd);
  if (Response.empty()) {
    if (Err)
      *Err = "empty response from " + SocketPath;
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Message codecs
//===----------------------------------------------------------------------===//

namespace {

constexpr std::string_view SecMsg = "dmsg";   // type byte + scalars
constexpr std::string_view SecModel = "modl"; // encodeModel bytes
constexpr std::string_view SecSyms = "syms";  // artifact symbol table
constexpr std::string_view SecLedger = "gams"; // encodeLedger bytes

std::string finishMsg(ArtifactWriter &W) { return W.finish(); }

/// Opens a frame, validates it, and hands back the reader plus the "dmsg"
/// section reader positioned after the type byte.
bool openMsg(std::string_view Frame, MsgType Expect,
             std::optional<ArtifactReader> &Art, std::string &MsgBytes,
             std::string *Err) {
  ArtifactError AErr;
  Art = ArtifactReader::open(Frame, &AErr);
  if (!Art) {
    if (Err)
      *Err = AErr.str();
    return false;
  }
  auto Sec = Art->section(SecMsg);
  if (!Sec) {
    if (Err)
      *Err = "frame has no message section";
    return false;
  }
  MsgBytes = std::string(*Sec);
  if (MsgBytes.empty() ||
      static_cast<uint8_t>(MsgBytes[0]) != static_cast<uint8_t>(Expect)) {
    if (Err)
      *Err = "unexpected message type";
    return false;
  }
  return true;
}

void writeWireConfig(BinaryWriter &W, const WireConfig &C) {
  W.writeU64(C.Seed);
  W.writeVarint(C.DistanceBound);
  W.writeVarint(C.ProgramStepBudget);
  W.writeVarint(C.Threads);
  W.writeU8(C.ExperimentalPatterns ? 1 : 0);
}

void readWireConfig(BinaryReader &R, WireConfig &C) {
  C.Seed = R.readU64();
  C.DistanceBound = R.readVarint();
  C.ProgramStepBudget = R.readVarint();
  C.Threads = R.readVarint();
  C.ExperimentalPatterns = R.readU8() != 0;
}

void writePrograms(BinaryWriter &W, const std::vector<ProgramSource> &Ps) {
  W.writeVarint(Ps.size());
  for (const ProgramSource &P : Ps) {
    W.writeString(P.Name);
    W.writeString(P.Source);
  }
}

bool readPrograms(BinaryReader &R, std::vector<ProgramSource> &Ps,
                  std::string *Err) {
  uint64_t N = R.readCount(1u << 24, "programs", 2);
  Ps.clear();
  Ps.reserve(static_cast<size_t>(N));
  for (uint64_t I = 0; I < N && R.ok(); ++I) {
    ProgramSource P;
    P.Name = R.readString();
    P.Source = R.readString();
    Ps.push_back(std::move(P));
  }
  if (!R.ok()) {
    if (Err)
      *Err = R.error().str();
    return false;
  }
  return true;
}

bool failReader(const BinaryReader &R, std::string *Err) {
  if (Err)
    *Err = R.error().str();
  return false;
}

} // namespace

std::optional<MsgType> uspec::distrib::peekType(std::string_view Frame,
                                                std::string *Err) {
  ArtifactError AErr;
  auto Art = ArtifactReader::open(Frame, &AErr);
  if (!Art) {
    if (Err)
      *Err = AErr.str();
    return std::nullopt;
  }
  auto Sec = Art->section(SecMsg);
  if (!Sec || Sec->empty()) {
    if (Err)
      *Err = "frame has no message section";
    return std::nullopt;
  }
  uint8_t Type = static_cast<uint8_t>((*Sec)[0]);
  if (Type < static_cast<uint8_t>(MsgType::Hello) ||
      Type > static_cast<uint8_t>(MsgType::Error)) {
    if (Err)
      *Err = "unknown message type " + std::to_string(Type);
    return std::nullopt;
  }
  return static_cast<MsgType>(Type);
}

std::string uspec::distrib::encodeControl(MsgType Type,
                                          std::string_view Text) {
  BinaryWriter W;
  W.writeU8(static_cast<uint8_t>(Type));
  W.writeString(Text);
  ArtifactWriter Art;
  Art.addSection(std::string(SecMsg), W.take());
  return finishMsg(Art);
}

bool uspec::distrib::decodeControl(std::string_view Frame, MsgType &Type,
                                   std::string &Text, std::string *Err) {
  auto Peeked = peekType(Frame, Err);
  if (!Peeked)
    return false;
  Type = *Peeked;
  ArtifactError AErr;
  auto Art = ArtifactReader::open(Frame, &AErr);
  auto Sec = Art->section(SecMsg);
  BinaryReader R(*Sec, std::string(SecMsg));
  R.readU8();
  Text = R.readString();
  return R.ok() || failReader(R, Err);
}

std::string uspec::distrib::encodeInit(const InitMsg &Msg) {
  BinaryWriter W;
  W.writeU8(static_cast<uint8_t>(MsgType::Init));
  W.writeVarint(WireProtocolVersion);
  W.writeU32(Msg.WorkerId);
  writeWireConfig(W, Msg.Config);
  W.writeVarint(Msg.Symbols.size());
  for (const std::string &S : Msg.Symbols)
    W.writeString(S);
  // Optional trailing field: old decoders stop before it, new decoders read
  // it only when bytes remain, so the protocol version stays 1.
  if (!Msg.TraceContext.empty())
    W.writeString(Msg.TraceContext);
  ArtifactWriter Art;
  Art.addSection(std::string(SecMsg), W.take());
  return finishMsg(Art);
}

bool uspec::distrib::decodeInit(std::string_view Frame, InitMsg &Out,
                                std::string *Err) {
  std::optional<ArtifactReader> Art;
  std::string Bytes;
  if (!openMsg(Frame, MsgType::Init, Art, Bytes, Err))
    return false;
  BinaryReader R(Bytes, std::string(SecMsg));
  R.readU8();
  uint64_t Version = R.readVarint();
  if (R.ok() && Version != WireProtocolVersion) {
    if (Err)
      *Err = "wire protocol version mismatch: coordinator speaks v" +
             std::to_string(Version) + ", this worker v" +
             std::to_string(WireProtocolVersion);
    return false;
  }
  Out.WorkerId = R.readU32();
  readWireConfig(R, Out.Config);
  uint64_t N = R.readCount(1u << 28, "symbols", 1);
  Out.Symbols.clear();
  Out.Symbols.reserve(static_cast<size_t>(N));
  for (uint64_t I = 0; I < N && R.ok(); ++I)
    Out.Symbols.push_back(std::string(R.readString()));
  Out.TraceContext.clear();
  if (R.ok() && !R.atEnd())
    Out.TraceContext = std::string(R.readString());
  return R.ok() || failReader(R, Err);
}

std::string uspec::distrib::encodeAnalyzeTask(const AnalyzeTask &Task) {
  BinaryWriter W;
  W.writeU8(static_cast<uint8_t>(MsgType::Analyze));
  W.writeVarint(Task.Shard);
  W.writeVarint(Task.Base);
  writePrograms(W, Task.Programs);
  if (!Task.TraceContext.empty())
    W.writeString(Task.TraceContext); // optional trailing field
  ArtifactWriter Art;
  Art.addSection(std::string(SecMsg), W.take());
  return finishMsg(Art);
}

bool uspec::distrib::decodeAnalyzeTask(std::string_view Frame,
                                       AnalyzeTask &Out, std::string *Err) {
  std::optional<ArtifactReader> Art;
  std::string Bytes;
  if (!openMsg(Frame, MsgType::Analyze, Art, Bytes, Err))
    return false;
  BinaryReader R(Bytes, std::string(SecMsg));
  R.readU8();
  Out.Shard = R.readVarint();
  Out.Base = R.readVarint();
  if (!R.ok())
    return failReader(R, Err);
  if (!readPrograms(R, Out.Programs, Err))
    return false;
  Out.TraceContext.clear();
  if (R.ok() && !R.atEnd())
    Out.TraceContext = std::string(R.readString());
  return R.ok() || failReader(R, Err);
}

std::string
uspec::distrib::encodeAnalyzedResult(const AnalyzedResult &Result) {
  BinaryWriter W;
  W.writeU8(static_cast<uint8_t>(MsgType::Analyzed));
  W.writeVarint(Result.Shard);
  W.writeVarint(Result.Graphs);
  const SampleSet &Samples = Result.Samples;
  assert(Result.QReason.size() == Result.ProgramSamples.size() &&
         std::accumulate(Result.ProgramSamples.begin(),
                         Result.ProgramSamples.end(), uint64_t(0)) ==
             Samples.size() &&
         "ProgramSamples must partition Samples");
  W.writeVarint(Result.ProgramSamples.size());
  size_t Row = 0;
  for (size_t I = 0; I < Result.ProgramSamples.size(); ++I) {
    W.writeString(Result.QReason[I]);
    W.writeVarint(Result.ProgramSamples[I]);
    for (size_t End = Row + Result.ProgramSamples[I]; Row < End; ++Row) {
      W.writeU16(Samples.posKey(Row));
      W.writeF32(Samples.label(Row));
      std::span<const uint32_t> Hashes = Samples.hashes(Row);
      W.writeVarint(Hashes.size());
      for (uint32_t H : Hashes)
        W.writeU32(H);
    }
  }
  ArtifactWriter Art;
  Art.addSection(std::string(SecMsg), W.take());
  return finishMsg(Art);
}

bool uspec::distrib::decodeAnalyzedResult(std::string_view Frame,
                                          AnalyzedResult &Out,
                                          std::string *Err) {
  std::optional<ArtifactReader> Art;
  std::string Bytes;
  if (!openMsg(Frame, MsgType::Analyzed, Art, Bytes, Err))
    return false;
  BinaryReader R(Bytes, std::string(SecMsg));
  R.readU8();
  Out.Shard = R.readVarint();
  Out.Graphs = R.readVarint();
  // Each count is bounded by the bytes left before anything is sized from
  // it: a program takes at least 2 bytes (reason length, sample count), a
  // sample 7 (PosKey, label, hash count) and a hash 4.
  uint64_t N = R.readCount(1u << 24, "programs", 2);
  Out.Samples = SampleSet();
  Out.ProgramSamples.assign(static_cast<size_t>(N), 0);
  Out.QReason.assign(static_cast<size_t>(N), std::string());
  std::vector<uint32_t> &Pool = Out.Samples.pool();
  for (uint64_t I = 0; I < N && R.ok(); ++I) {
    Out.QReason[I] = R.readString();
    uint64_t M = R.readCount(1u << 28, "samples", 7);
    Out.ProgramSamples[I] = M;
    for (uint64_t J = 0; J < M && R.ok(); ++J) {
      uint16_t PosKey = R.readU16();
      float Label = R.readF32();
      uint64_t H = R.readCount(1u << 20, "feature hashes", 4);
      for (uint64_t K = 0; K < H && R.ok(); ++K)
        Pool.push_back(R.readU32());
      Out.Samples.closeRow(PosKey, Label);
    }
  }
  if (R.ok() && !R.atEnd())
    R.fail("trailing bytes after the last program");
  return R.ok() || failReader(R, Err);
}

std::string uspec::distrib::encodeModelMsg(const EdgeModel &Model) {
  BinaryWriter W;
  W.writeU8(static_cast<uint8_t>(MsgType::Model));
  ArtifactWriter Art;
  Art.addSection(std::string(SecMsg), W.take());
  Art.addSection(std::string(SecModel), encodeModel(Model));
  return finishMsg(Art);
}

bool uspec::distrib::decodeModelMsg(std::string_view Frame, EdgeModel &Out,
                                    std::string *Err) {
  std::optional<ArtifactReader> Art;
  std::string Bytes;
  if (!openMsg(Frame, MsgType::Model, Art, Bytes, Err))
    return false;
  auto Sec = Art->section(SecModel);
  if (!Sec) {
    if (Err)
      *Err = "model message has no model section";
    return false;
  }
  ArtifactError AErr;
  auto Model = decodeModel(*Sec, &AErr);
  if (!Model) {
    if (Err)
      *Err = AErr.str();
    return false;
  }
  Out = std::move(*Model);
  return true;
}

std::string uspec::distrib::encodeExtractTask(const ExtractTask &Task) {
  BinaryWriter W;
  W.writeU8(static_cast<uint8_t>(MsgType::Extract));
  W.writeVarint(Task.Shard);
  W.writeVarint(Task.Base);
  writePrograms(W, Task.Programs);
  if (!Task.TraceContext.empty())
    W.writeString(Task.TraceContext); // optional trailing field
  ArtifactWriter Art;
  Art.addSection(std::string(SecMsg), W.take());
  return finishMsg(Art);
}

bool uspec::distrib::decodeExtractTask(std::string_view Frame,
                                       ExtractTask &Out, std::string *Err) {
  std::optional<ArtifactReader> Art;
  std::string Bytes;
  if (!openMsg(Frame, MsgType::Extract, Art, Bytes, Err))
    return false;
  BinaryReader R(Bytes, std::string(SecMsg));
  R.readU8();
  Out.Shard = R.readVarint();
  Out.Base = R.readVarint();
  if (!R.ok())
    return failReader(R, Err);
  if (!readPrograms(R, Out.Programs, Err))
    return false;
  Out.TraceContext.clear();
  if (R.ok() && !R.atEnd())
    Out.TraceContext = std::string(R.readString());
  return R.ok() || failReader(R, Err);
}

std::string
uspec::distrib::encodeExtractedResult(const ExtractedResult &Result,
                                      const StringInterner &Strings) {
  BinaryWriter W;
  W.writeU8(static_cast<uint8_t>(MsgType::Extracted));
  W.writeVarint(Result.Shard);
  W.writeVarint(Result.ReceiverPairs);
  W.writeVarint(Result.Matches);
  W.writeVarint(Result.PeakCandidates);
  W.writeVarint(Result.QUpdates.size());
  for (const auto &[Idx, Reason] : Result.QUpdates) {
    W.writeVarint(Idx);
    W.writeString(Reason);
  }
  SymbolTableBuilder Syms(Strings);
  std::string LedgerBytes = encodeLedger(Result.Ledger, Syms);
  ArtifactWriter Art;
  Art.addSection(std::string(SecMsg), W.take());
  Art.addSection(std::string(SecSyms), Syms.encode());
  Art.addSection(std::string(SecLedger), std::move(LedgerBytes));
  return finishMsg(Art);
}

bool uspec::distrib::decodeExtractedResult(std::string_view Frame,
                                           ExtractedResult &Out,
                                           StringInterner &Strings,
                                           std::string *Err) {
  std::optional<ArtifactReader> Art;
  std::string Bytes;
  if (!openMsg(Frame, MsgType::Extracted, Art, Bytes, Err))
    return false;
  BinaryReader R(Bytes, std::string(SecMsg));
  R.readU8();
  Out.Shard = R.readVarint();
  Out.ReceiverPairs = R.readVarint();
  Out.Matches = R.readVarint();
  Out.PeakCandidates = R.readVarint();
  uint64_t N = R.readCount(1u << 24, "quarantine updates", 2);
  Out.QUpdates.clear();
  Out.QUpdates.reserve(static_cast<size_t>(N));
  for (uint64_t I = 0; I < N && R.ok(); ++I) {
    uint64_t Idx = R.readVarint();
    std::string Reason(R.readString());
    Out.QUpdates.emplace_back(Idx, std::move(Reason));
  }
  if (!R.ok())
    return failReader(R, Err);

  auto SymsSec = Art->section(SecSyms);
  auto LedgerSec = Art->section(SecLedger);
  if (!SymsSec || !LedgerSec) {
    if (Err)
      *Err = "extracted message misses symbol/ledger section";
    return false;
  }
  ArtifactError AErr;
  auto Syms = SymbolTable::decode(*SymsSec, Strings, &AErr);
  if (!Syms) {
    if (Err)
      *Err = AErr.str();
    return false;
  }
  auto Ledger = decodeLedger(*LedgerSec, *Syms, &AErr);
  if (!Ledger) {
    if (Err)
      *Err = AErr.str();
    return false;
  }
  Out.Ledger = std::move(*Ledger);
  return true;
}
