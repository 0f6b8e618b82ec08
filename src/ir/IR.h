//===- IR.h - Structured three-address IR for MiniLang ---------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis IR. MiniLang ASTs are lowered (see Lowering.h) into a
/// structured IR: one flat instruction array per method, with If/While
/// regions as index ranges of it, and method-scoped variable slots. All
/// names are interned in a pipeline-wide StringInterner so method
/// identifiers are comparable across programs — the specification learner
/// aggregates candidates corpus-wide.
///
/// Site identifiers (allocations, literals, calls) are unique within one
/// IRProgram; events in the paper are pairs ⟨call site, position⟩ and our
/// SiteId plays the call-site role.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_IR_IR_H
#define USPEC_IR_IR_H

#include "support/StringInterner.h"

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

namespace uspec {

/// Index of a variable slot within a method frame. Slot 0 is `this`,
/// slots 1..N are parameters, the rest are locals and compiler temps.
using VarId = uint32_t;

/// Sentinel for "no variable" (e.g. a call whose result is unused).
inline constexpr VarId InvalidVar = ~static_cast<VarId>(0);

/// Comparison operator recorded on If/While guards (mirrors AST CmpOp).
enum class IRCmpOp : uint8_t { None, Eq, Ne, Lt, Gt };

/// Kind of literal produced by a Literal instruction.
enum class LiteralKind : uint8_t { String, Int, Null };

/// A half-open range [Begin, End) of indices into one of an IRMethod's
/// arrays: Code for If/While regions, ArgPool for call arguments.
struct IndexRange {
  uint32_t Begin;
  uint32_t End;

  uint32_t size() const { return End - Begin; }
  bool empty() const { return Begin == End; }
};

/// A single IR instruction: trivially copyable, with no storage of its own.
/// A method's instructions sit in one array (IRMethod::Code) in pre-order:
/// an If is followed by its then range and then its else range, a While by
/// its body range, and the next instruction of the enclosing range sits at
/// the end of the last region. A While's condition range holds the
/// instructions that evaluate its condition. They sit just before the While
/// in the enclosing range, so a walk of that range runs them once; the
/// interpreter jumps back to them after each iteration, and the analysis
/// (single unrolling) never revisits them.
struct Instr {
  enum class Kind : uint8_t {
    Alloc,      ///< Dst = new Class          (site)
    Literal,    ///< Dst = literal            (site)
    Copy,       ///< Dst = Src
    LoadField,  ///< Dst = Base.Name
    StoreField, ///< Base.Name = Src
    Call,       ///< [Dst =] Base.Name(Args)  (site, guard)
    If,         ///< if (CondLhs op CondRhs) then-range else else-range
    While,      ///< while (CondLhs op CondRhs) body-range
    Return,     ///< return [Src]
  };

  Kind TheKind = Kind::Return;
  LiteralKind LitKind = LiteralKind::Null;
  /// Guard comparison for If/While.
  IRCmpOp CondOp = IRCmpOp::None;

  VarId Dst = InvalidVar;  ///< Alloc/Literal/Copy/LoadField/Call result.
  VarId Src = InvalidVar;  ///< Copy/StoreField/Return operand.
  VarId Base = InvalidVar; ///< LoadField/StoreField base, Call receiver.
  Symbol Name;             ///< Class (Alloc), field, or method name.
  Symbol StrValue;         ///< Interned literal text (also for ints,
                           ///< canonical decimal) — this feeds valG.

  /// Program-unique site id for Alloc/Literal/Call (0 = not a site).
  uint32_t SiteId = 0;
  /// Innermost enclosing guard region id (0 = none); feeds feature γ.
  uint32_t GuardId = 0;

  // Guard condition operands for If/While.
  VarId CondLhs = InvalidVar;
  VarId CondRhs = InvalidVar;

  /// Kind-specific payload: read only the member the kind names.
  union {
    int64_t IntValue = 0;  ///< Literal: the Int payload for the interpreter.
    IndexRange Args;       ///< Call: its argument slots, in ArgPool.
    IndexRange Regions[2]; ///< If: then, else. While: body, condition.
  };

  IndexRange thenRange() const {
    assert(TheKind == Kind::If);
    return Regions[0];
  }
  IndexRange elseRange() const {
    assert(TheKind == Kind::If);
    return Regions[1];
  }
  IndexRange bodyRange() const {
    assert(TheKind == Kind::While);
    return Regions[0];
  }
  IndexRange condRange() const {
    assert(TheKind == Kind::While);
    return Regions[1];
  }

  /// The Int literal payload; 0 for every other instruction.
  int64_t intValue() const {
    return TheKind == Kind::Literal ? IntValue : 0;
  }
  /// Number of call arguments; 0 for every other instruction.
  uint32_t numArgs() const { return TheKind == Kind::Call ? Args.size() : 0; }

  /// Index of the instruction after this one in its enclosing range, when
  /// this one sits at \p Pc: past the regions of an If or While.
  uint32_t nextPc(uint32_t Pc) const {
    if (TheKind == Kind::If)
      return Regions[1].End;
    if (TheKind == Kind::While)
      return Regions[0].End;
    return Pc + 1;
  }
};

static_assert(std::is_trivially_copyable_v<Instr>,
              "instructions are copied as bytes");

/// Debug name of a named slot (this, a parameter, a local or an external):
/// a slice of its program's IRProgram::SlotNameChars.
struct SlotName {
  VarId Slot;
  uint32_t Begin;
  uint32_t Size;
};

/// A lowered method.
struct IRMethod {
  Symbol Name;
  uint32_t NumParams = 0;
  /// Total number of variable slots (this + params + locals + temps).
  uint32_t NumVars = 0;
  /// Every instruction of the body, regions included, in pre-order.
  std::vector<Instr> Code;
  /// Argument slots of every call, sliced by Instr::Args.
  std::vector<VarId> ArgPool;
  /// Free names referenced by the method body (e.g. `db` in `db.getFile()`),
  /// treated as external globals holding unknown API objects, exactly like
  /// the partial-program fragments the paper analyzes. Each entry maps the
  /// variable slot to the source name.
  std::vector<std::pair<VarId, Symbol>> Externals;
  /// Debug names of the named slots, ascending by slot. Temporaries have
  /// none; they print as "%t<slot>".
  std::vector<SlotName> SlotNames;

  /// The whole body.
  IndexRange body() const {
    return {0, static_cast<uint32_t>(Code.size())};
  }

  /// The argument slots of call \p I.
  std::span<const VarId> args(const Instr &I) const {
    assert(I.TheKind == Instr::Kind::Call);
    return {ArgPool.data() + I.Args.Begin, I.Args.size()};
  }

  /// Calls \p F on each instruction of \p R at R's own level; regions
  /// nested in an If or While are skipped (F walks them if it wants to).
  template <typename Fn> void forEach(IndexRange R, Fn &&F) const {
    for (uint32_t Pc = R.Begin; Pc < R.End; Pc = Code[Pc].nextPc(Pc))
      F(Code[Pc]);
  }
};

/// A lowered class.
struct IRClass {
  Symbol Name;
  std::vector<Symbol> Fields;
  std::vector<IRMethod> Methods;

  const IRMethod *findMethod(Symbol MethodName) const {
    for (const IRMethod &M : Methods)
      if (M.Name == MethodName)
        return &M;
    return nullptr;
  }
};

/// A lowered program (one MiniLang module).
struct IRProgram {
  std::string Name;
  std::vector<IRClass> Classes;
  /// Total number of site ids handed out (site ids are 1..NumSites).
  uint32_t NumSites = 0;
  /// Total number of guard ids handed out (guard ids are 1..NumGuards).
  uint32_t NumGuards = 0;
  /// Approximate number of source lines (used for per-loc rates in Tab. 4).
  uint32_t SourceLines = 0;
  /// Characters of every method's slot names (IRMethod::SlotNames).
  std::string SlotNameChars;

  const IRClass *findClass(Symbol ClassName) const {
    for (const IRClass &C : Classes)
      if (C.Name == ClassName)
        return &C;
    return nullptr;
  }
};

/// Debug name of \p Slot in \p Method: the source name of a named slot,
/// "%t<slot>" for a temporary, "_" for InvalidVar, "v<slot>" past NumVars.
std::string slotName(const IRProgram &Program, const IRMethod &Method,
                     VarId Slot);

/// Returns a compact disassembly of \p Program for tests and debugging.
std::string disassemble(const IRProgram &Program, const StringInterner &Strings);

} // namespace uspec

#endif // USPEC_IR_IR_H
