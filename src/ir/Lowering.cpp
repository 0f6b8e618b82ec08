//===- Lowering.cpp - AST to IR lowering ------------------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Lowering.h"

#include "lang/Parser.h"
#include "support/FlatMap.h"
#include "support/Hashing.h"

#include <cassert>
#include <charconv>

using namespace uspec;

namespace {

/// Lowering reuses its buffers from module to module on a thread (see
/// LoweringBuffers); a buffer that grew past this many elements is freed
/// instead of kept.
constexpr size_t MaxKeptElements = size_t(1) << 14;

template <typename T> void clearKeepingTypical(std::vector<T> &V) {
  if (V.capacity() > MaxKeptElements)
    std::vector<T>().swap(V);
  else
    V.clear();
}

/// The names visible at one point of a method: one flat table of (name,
/// slot) entries, innermost last, with a mark where each open block's
/// entries begin. An index from a name's hash to the innermost entry with
/// that hash (each entry links to the one it hides) keeps a lookup from
/// scanning every name, however many a method declares.
class ScopeTable {
public:
  /// Empties the table; storage an outsized method grew is freed.
  void reset() {
    if (Heads.size() > MaxKeptElements)
      Heads = FlatMap64<uint32_t>();
    else
      Heads.clear();
    clearKeepingTypical(Entries);
    BlockStarts.clear();
  }

  void openBlock() { BlockStarts.push_back(Entries.size()); }

  void closeBlock() {
    for (size_t I = Entries.size(); I-- > BlockStarts.back();)
      *Heads.find(Entries[I].Key) = Entries[I].Hidden;
    Entries.resize(BlockStarts.back());
    BlockStarts.pop_back();
  }

  void declare(std::string_view Name, VarId Slot) {
    uint64_t Key = hashBytesWide(Name);
    bool Inserted = false;
    uint32_t &Head = Heads.getOrCreate(Key, &Inserted);
    Entries.push_back({Name, Key, Slot, Inserted ? NoEntry : Head});
    Head = static_cast<uint32_t>(Entries.size() - 1);
  }

  /// The slot of the innermost visible \p Name, searching only the
  /// innermost block when \p InnermostBlockOnly.
  std::optional<VarId> find(std::string_view Name,
                            bool InnermostBlockOnly = false) const {
    size_t From = InnermostBlockOnly ? BlockStarts.back() : 0;
    const uint32_t *Head = Heads.find(hashBytesWide(Name));
    for (uint32_t I = Head ? *Head : NoEntry; I != NoEntry && I >= From;
         I = Entries[I].Hidden)
      if (Entries[I].Name == Name)
        return Entries[I].Slot;
    return std::nullopt;
  }

private:
  static constexpr uint32_t NoEntry = ~0u;
  struct Entry {
    std::string_view Name;
    uint64_t Key;    ///< hashBytesWide(Name)
    VarId Slot;
    uint32_t Hidden; ///< Entry with the same Key this one hides, or NoEntry.
  };
  std::vector<Entry> Entries;
  std::vector<size_t> BlockStarts;
  FlatMap64<uint32_t> Heads; ///< Key -> innermost entry, or NoEntry.
};

/// The per-method working storage. One set per thread is reused from
/// method to method and module to module, so lowering works in warm memory
/// instead of drawing fresh pages for every program; each lowered method
/// gets exact-size copies.
struct LoweringBuffers {
  std::vector<Instr> Code;
  std::vector<VarId> ArgPool;
  std::vector<std::pair<VarId, Symbol>> Externals;
  std::vector<SlotName> Names;
  ScopeTable Scope;
  ScopeTable ExternalScope; ///< Free names, method-wide.
  /// Receiver-chain links and argument values under construction,
  /// innermost on top.
  std::vector<const Expr *> Chain;
  std::vector<VarId> ArgStack;

  /// Empties every buffer, freeing what an outsized method grew.
  void reset() {
    clearKeepingTypical(Code);
    clearKeepingTypical(ArgPool);
    clearKeepingTypical(Externals);
    clearKeepingTypical(Names);
    Scope.reset();
    ExternalScope.reset();
    clearKeepingTypical(Chain);
    clearKeepingTypical(ArgStack);
  }
};

/// Per-module lowering state.
class LoweringContext {
public:
  LoweringContext(const Module &M, StringInterner &Strings,
                  DiagnosticSink &Diags, LoweringBuffers &Buffers)
      : M(M), Strings(Strings), Diags(Diags), Code(Buffers.Code),
        ArgPool(Buffers.ArgPool), Externals(Buffers.Externals),
        Names(Buffers.Names), Scope(Buffers.Scope),
        ExternalScope(Buffers.ExternalScope), Chain(Buffers.Chain),
        ArgStack(Buffers.ArgStack), Buffers(Buffers) {}

  std::optional<IRProgram> run() {
    IRProgram Program;
    Program.Name = M.Name;
    Out = &Program;
    Program.Classes.reserve(M.Classes.size());
    for (const ClassDecl &Class : M.Classes) {
      IRClass IC;
      IC.Name = Strings.intern(Class.Name);
      IC.Fields.reserve(Class.Fields.size());
      for (std::string_view Field : Class.Fields)
        IC.Fields.push_back(Strings.intern(Field));
      IC.Methods.reserve(Class.Methods.size());
      for (const MethodDecl &Method : Class.Methods) {
        IC.Methods.emplace_back();
        if (!lowerMethod(Method, IC.Methods.back()))
          return std::nullopt;
      }
      Program.Classes.push_back(std::move(IC));
    }
    Program.NumSites = NextSiteId - 1;
    Program.NumGuards = NextGuardId - 1;
    Program.SourceLines = MaxLine;
    return Program;
  }

private:
  //===--------------------------------------------------------------------===//
  // Method-level state
  //===--------------------------------------------------------------------===//

  bool lowerMethod(const MethodDecl &Decl, IRMethod &Method) {
    Buffers.reset();
    NumVars = 0;
    HadError = false;

    Method.Name = Strings.intern(Decl.Name);
    Method.NumParams = static_cast<uint32_t>(Decl.Params.size());

    // Slot 0 is `this`; the parameters' block encloses the body's. Free
    // names live in a method-wide table of their own, searched last.
    namedSlot("this");
    Scope.openBlock();
    ExternalScope.openBlock();
    for (std::string_view Param : Decl.Params) {
      VarId Slot = namedSlot(Param);
      if (Scope.find(Param, /*InnermostBlockOnly=*/true)) {
        Diags.error(Decl.Line, 0,
                    "duplicate parameter '" + std::string(Param) + "'");
        HadError = true;
        continue;
      }
      Scope.declare(Param, Slot);
    }

    lowerBlock(Decl.Body);
    Method.NumVars = NumVars;
    if (HadError)
      return false;
    Method.Code.assign(Code.begin(), Code.end());
    Method.ArgPool.assign(ArgPool.begin(), ArgPool.end());
    Method.Externals.assign(Externals.begin(), Externals.end());
    Method.SlotNames.assign(Names.begin(), Names.end());
    return true;
  }

  VarId newTemp() { return NumVars++; }

  /// A new slot named \p Name in the slot-name side table.
  VarId namedSlot(std::string_view Name) {
    VarId Slot = NumVars++;
    Names.push_back({Slot, static_cast<uint32_t>(Out->SlotNameChars.size()),
                     static_cast<uint32_t>(Name.size())});
    Out->SlotNameChars.append(Name);
    return Slot;
  }

  VarId declareLocal(std::string_view Name, int Line) {
    if (std::optional<VarId> Existing =
            Scope.find(Name, /*InnermostBlockOnly=*/true)) {
      Diags.error(Line, 0, "redeclaration of '" + std::string(Name) + "'");
      HadError = true;
      return *Existing;
    }
    VarId Slot = namedSlot(Name);
    Scope.declare(Name, Slot);
    return Slot;
  }

  VarId lookup(std::string_view Name) {
    if (std::optional<VarId> Slot = Scope.find(Name))
      return *Slot;
    if (std::optional<VarId> Slot = ExternalScope.find(Name))
      return *Slot;
    // Free name: an external global holding an unknown API object. It is
    // registered method-wide so repeated uses share a slot.
    VarId Slot = namedSlot(Name);
    ExternalScope.declare(Name, Slot);
    Externals.emplace_back(Slot, Strings.intern(Name));
    return Slot;
  }

  void noteLine(int Line) {
    if (Line > 0 && static_cast<uint32_t>(Line) > MaxLine)
      MaxLine = static_cast<uint32_t>(Line);
  }

  VarId emit(const Instr &I) {
    Code.push_back(I);
    return I.Dst;
  }

  //===--------------------------------------------------------------------===//
  // Expression lowering
  //===--------------------------------------------------------------------===//

  /// Lowers \p E, returning the slot holding its value. A receiver chain
  /// `a.b().c` is walked down without recursion and lowered innermost link
  /// first, so the recursion depth follows argument nesting only.
  VarId lowerExpr(const Expr &E) {
    size_t Mark = Chain.size();
    const Expr *Cur = &E;
    for (;;) {
      if (const auto *Read = dyn_cast<FieldReadExpr>(Cur)) {
        Chain.push_back(Cur);
        Cur = Read->Base;
      } else if (const auto *Call = dyn_cast<CallExpr>(Cur);
                 Call && Call->Receiver) {
        Chain.push_back(Cur);
        Cur = Call->Receiver;
      } else {
        break;
      }
    }
    VarId Value = lowerLeaf(*Cur);
    while (Chain.size() > Mark) {
      const Expr *Link = Chain.back();
      Chain.pop_back();
      noteLine(Link->getLine());
      if (const auto *Read = dyn_cast<FieldReadExpr>(Link)) {
        Instr I;
        I.TheKind = Instr::Kind::LoadField;
        I.Dst = newTemp();
        I.Base = Value;
        I.Name = Strings.intern(Read->Field);
        Value = emit(I);
      } else {
        Value = lowerCall(*cast<CallExpr>(Link), Value);
      }
    }
    return Value;
  }

  /// Lowers an expression that is not a link of a receiver chain.
  VarId lowerLeaf(const Expr &E) {
    noteLine(E.getLine());
    switch (E.getKind()) {
    case Expr::Kind::New:
      return lowerNew(*cast<NewExpr>(&E));
    case Expr::Kind::StringLit: {
      Instr I;
      I.TheKind = Instr::Kind::Literal;
      I.Dst = newTemp();
      I.LitKind = LiteralKind::String;
      I.StrValue = Strings.intern(cast<StringLitExpr>(&E)->Value);
      I.SiteId = NextSiteId++;
      return emit(I);
    }
    case Expr::Kind::IntLit: {
      int64_t Value = cast<IntLitExpr>(&E)->Value;
      char Digits[24];
      auto Result = std::to_chars(Digits, Digits + sizeof(Digits), Value);
      Instr I;
      I.TheKind = Instr::Kind::Literal;
      I.Dst = newTemp();
      I.LitKind = LiteralKind::Int;
      I.StrValue = Strings.intern(
          std::string_view(Digits, static_cast<size_t>(Result.ptr - Digits)));
      I.IntValue = Value;
      I.SiteId = NextSiteId++;
      return emit(I);
    }
    case Expr::Kind::Null: {
      Instr I;
      I.TheKind = Instr::Kind::Literal;
      I.Dst = newTemp();
      I.LitKind = LiteralKind::Null;
      I.SiteId = NextSiteId++;
      return emit(I);
    }
    case Expr::Kind::This:
      return 0;
    case Expr::Kind::VarRef:
      return lookup(cast<VarRefExpr>(&E)->Name);
    case Expr::Kind::Call: // implicit `this` receiver
      return lowerCall(*cast<CallExpr>(&E), 0);
    case Expr::Kind::FieldRead:
      break; // a chain link: lowerExpr handles it
    }
    assert(false && "chain links are lowered by lowerExpr");
    return InvalidVar;
  }

  /// Lowers \p Args onto the argument stack, returning where they begin.
  size_t lowerArgs(const ExprList &Args) {
    size_t Mark = ArgStack.size();
    for (const Expr *Arg : Args) {
      VarId Value = lowerExpr(*Arg);
      ArgStack.push_back(Value);
    }
    return Mark;
  }

  /// Moves ArgStack[Mark..] into the method's argument pool.
  IndexRange takeArgs(size_t Mark) {
    IndexRange R;
    R.Begin = static_cast<uint32_t>(ArgPool.size());
    ArgPool.insert(ArgPool.end(), ArgStack.begin() + Mark, ArgStack.end());
    R.End = static_cast<uint32_t>(ArgPool.size());
    ArgStack.resize(Mark);
    return R;
  }

  VarId lowerCall(const CallExpr &Call, VarId Recv) {
    size_t Mark = lowerArgs(Call.Args);
    Instr I;
    I.TheKind = Instr::Kind::Call;
    I.Dst = newTemp();
    I.Base = Recv;
    I.Name = Strings.intern(Call.Method);
    I.Args = takeArgs(Mark);
    I.SiteId = NextSiteId++;
    I.GuardId = CurrentGuard;
    return emit(I);
  }

  VarId lowerNew(const NewExpr &New) {
    size_t Mark = lowerArgs(New.Args);

    Instr I;
    I.TheKind = Instr::Kind::Alloc;
    I.Dst = newTemp();
    I.Name = Strings.intern(New.ClassName);
    I.SiteId = NextSiteId++;
    VarId Obj = emit(I);

    // If this instantiates a program-defined class with an `init` method,
    // lower the constructor call; otherwise arguments are dropped (API-class
    // construction is opaque).
    const ClassDecl *Class = M.findClass(New.ClassName);
    if (Class && Class->findMethod("init")) {
      Instr CallInit;
      CallInit.TheKind = Instr::Kind::Call;
      CallInit.Dst = InvalidVar;
      CallInit.Base = Obj;
      CallInit.Name = Strings.intern("init");
      CallInit.Args = takeArgs(Mark);
      CallInit.SiteId = NextSiteId++;
      CallInit.GuardId = CurrentGuard;
      emit(CallInit);
    }
    ArgStack.resize(Mark);
    return Obj;
  }

  //===--------------------------------------------------------------------===//
  // Statement lowering
  //===--------------------------------------------------------------------===//

  void lowerCondition(const Condition &Cond, Instr &Target) {
    Target.CondLhs = lowerExpr(*Cond.Lhs);
    switch (Cond.Op) {
    case CmpOp::None:
      Target.CondOp = IRCmpOp::None;
      break;
    case CmpOp::Eq:
      Target.CondOp = IRCmpOp::Eq;
      break;
    case CmpOp::Ne:
      Target.CondOp = IRCmpOp::Ne;
      break;
    case CmpOp::Lt:
      Target.CondOp = IRCmpOp::Lt;
      break;
    case CmpOp::Gt:
      Target.CondOp = IRCmpOp::Gt;
      break;
    }
    if (Cond.Rhs)
      Target.CondRhs = lowerExpr(*Cond.Rhs);
  }

  /// Lowers \p B as a region appended to Code; returns its range.
  IndexRange lowerBlock(const Block &B) {
    IndexRange R;
    R.Begin = static_cast<uint32_t>(Code.size());
    Scope.openBlock();
    for (const Stmt *S : B)
      lowerStmt(*S);
    Scope.closeBlock();
    R.End = static_cast<uint32_t>(Code.size());
    return R;
  }

  void lowerStmt(const Stmt &S) {
    noteLine(S.getLine());
    switch (S.getKind()) {
    case Stmt::Kind::VarDecl: {
      const auto &Decl = *cast<VarDeclStmt>(&S);
      VarId Init = InvalidVar;
      if (Decl.Init)
        Init = lowerExpr(*Decl.Init);
      VarId Slot = declareLocal(Decl.Name, S.getLine());
      if (Init != InvalidVar) {
        Instr I;
        I.TheKind = Instr::Kind::Copy;
        I.Dst = Slot;
        I.Src = Init;
        emit(I);
      }
      return;
    }
    case Stmt::Kind::Assign: {
      const auto &Assign = *cast<AssignStmt>(&S);
      if (const auto *Var = dyn_cast<VarRefExpr>(Assign.Target)) {
        VarId Value = lowerExpr(*Assign.Value);
        Instr I;
        I.TheKind = Instr::Kind::Copy;
        I.Dst = lookup(Var->Name);
        I.Src = Value;
        emit(I);
        return;
      }
      const auto &Field = *cast<FieldReadExpr>(Assign.Target);
      VarId Base = lowerExpr(*Field.Base);
      VarId Value = lowerExpr(*Assign.Value);
      Instr I;
      I.TheKind = Instr::Kind::StoreField;
      I.Base = Base;
      I.Name = Strings.intern(Field.Field);
      I.Src = Value;
      emit(I);
      return;
    }
    case Stmt::Kind::ExprStmt:
      // The call's result slot stays allocated; analyses ignore it.
      lowerExpr(*cast<ExprStmt>(&S)->E);
      return;
    case Stmt::Kind::If: {
      const auto &If = *cast<IfStmt>(&S);
      Instr I;
      I.TheKind = Instr::Kind::If;
      lowerCondition(If.Cond, I);
      uint32_t Guard = NextGuardId++;
      I.GuardId = Guard;
      uint32_t SavedGuard = CurrentGuard;
      CurrentGuard = Guard;
      size_t At = Code.size();
      emit(I);
      IndexRange Then = lowerBlock(If.Then);
      IndexRange Else = lowerBlock(If.Else);
      CurrentGuard = SavedGuard;
      Code[At].Regions[0] = Then;
      Code[At].Regions[1] = Else;
      return;
    }
    case Stmt::Kind::While: {
      const auto &While = *cast<WhileStmt>(&S);
      // The condition's instructions precede the While in the enclosing
      // range (one evaluation, the analysis' single unrolling); the While
      // records them as its condition range for the interpreter to re-run.
      uint32_t CondBegin = static_cast<uint32_t>(Code.size());
      Instr I;
      I.TheKind = Instr::Kind::While;
      lowerCondition(While.Cond, I);
      uint32_t Guard = NextGuardId++;
      I.GuardId = Guard;
      uint32_t SavedGuard = CurrentGuard;
      CurrentGuard = Guard;
      uint32_t At = static_cast<uint32_t>(Code.size());
      emit(I);
      IndexRange Body = lowerBlock(While.Body);
      CurrentGuard = SavedGuard;
      Code[At].Regions[0] = Body;
      Code[At].Regions[1] = IndexRange{CondBegin, At};
      return;
    }
    case Stmt::Kind::Return: {
      const auto &Ret = *cast<ReturnStmt>(&S);
      Instr I;
      I.TheKind = Instr::Kind::Return;
      if (Ret.Value)
        I.Src = lowerExpr(*Ret.Value);
      emit(I);
      return;
    }
    }
  }

  const Module &M;
  StringInterner &Strings;
  DiagnosticSink &Diags;
  IRProgram *Out = nullptr;
  uint32_t NextSiteId = 1;
  uint32_t NextGuardId = 1;
  uint32_t CurrentGuard = 0;
  uint32_t MaxLine = 0;

  // The method being lowered.
  std::vector<Instr> &Code;
  std::vector<VarId> &ArgPool;
  std::vector<std::pair<VarId, Symbol>> &Externals;
  std::vector<SlotName> &Names;
  ScopeTable &Scope;
  ScopeTable &ExternalScope;
  std::vector<const Expr *> &Chain;
  std::vector<VarId> &ArgStack;
  LoweringBuffers &Buffers;
  uint32_t NumVars = 0;
  bool HadError = false;
};

} // namespace

std::optional<IRProgram> uspec::lowerModule(const Module &M,
                                            StringInterner &Strings,
                                            DiagnosticSink &Diags) {
  thread_local LoweringBuffers Buffers;
  LoweringContext Ctx(M, Strings, Diags, Buffers);
  auto Result = Ctx.run();
  Buffers.reset();
  if (Diags.hasErrors())
    return std::nullopt;
  return Result;
}

std::optional<IRProgram> uspec::parseAndLower(std::string_view Source,
                                              std::string ModuleName,
                                              StringInterner &Strings,
                                              DiagnosticSink &Diags) {
  auto M = Parser::parse(Source, std::move(ModuleName), Diags);
  if (!M || Diags.hasErrors())
    return std::nullopt;
  return lowerModule(*M, Strings, Diags);
}
