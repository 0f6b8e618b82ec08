//===- IR.cpp - IR utilities -----------------------------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IR.h"

#include <algorithm>
#include <sstream>

using namespace uspec;

std::string uspec::slotName(const IRProgram &Program, const IRMethod &Method,
                           VarId Slot) {
  if (Slot == InvalidVar)
    return "_";
  if (Slot >= Method.NumVars)
    return "v" + std::to_string(Slot);
  auto It = std::lower_bound(
      Method.SlotNames.begin(), Method.SlotNames.end(), Slot,
      [](const SlotName &N, VarId S) { return N.Slot < S; });
  if (It != Method.SlotNames.end() && It->Slot == Slot)
    return Program.SlotNameChars.substr(It->Begin, It->Size);
  return "%t" + std::to_string(Slot);
}

namespace {

void disassembleRange(const IRProgram &Program, const IRMethod &Method,
                      IndexRange Range, const StringInterner &Strings,
                      int Indent, std::ostringstream &Out) {
  auto Pad = [&Out](int N) {
    for (int I = 0; I < N; ++I)
      Out << "  ";
  };
  auto VarName = [&](VarId Var) { return slotName(Program, Method, Var); };

  Method.forEach(Range, [&](const Instr &I) {
    Pad(Indent);
    switch (I.TheKind) {
    case Instr::Kind::Alloc:
      Out << VarName(I.Dst) << " = alloc " << Strings.str(I.Name) << " @"
          << I.SiteId << "\n";
      break;
    case Instr::Kind::Literal:
      Out << VarName(I.Dst) << " = lit ";
      switch (I.LitKind) {
      case LiteralKind::String:
        Out << '"' << Strings.str(I.StrValue) << '"';
        break;
      case LiteralKind::Int:
        Out << I.IntValue;
        break;
      case LiteralKind::Null:
        Out << "null";
        break;
      }
      Out << " @" << I.SiteId << "\n";
      break;
    case Instr::Kind::Copy:
      Out << VarName(I.Dst) << " = " << VarName(I.Src) << "\n";
      break;
    case Instr::Kind::LoadField:
      Out << VarName(I.Dst) << " = " << VarName(I.Base) << "."
          << Strings.str(I.Name) << "\n";
      break;
    case Instr::Kind::StoreField:
      Out << VarName(I.Base) << "." << Strings.str(I.Name) << " = "
          << VarName(I.Src) << "\n";
      break;
    case Instr::Kind::Call: {
      if (I.Dst != InvalidVar)
        Out << VarName(I.Dst) << " = ";
      Out << VarName(I.Base) << "." << Strings.str(I.Name) << "(";
      const char *Sep = "";
      for (VarId Arg : Method.args(I)) {
        Out << Sep << VarName(Arg);
        Sep = ", ";
      }
      Out << ") @" << I.SiteId << "\n";
      break;
    }
    case Instr::Kind::If:
      Out << "if " << VarName(I.CondLhs) << " guard#" << I.GuardId << "\n";
      disassembleRange(Program, Method, I.thenRange(), Strings, Indent + 1,
                       Out);
      if (!I.elseRange().empty()) {
        Pad(Indent);
        Out << "else\n";
        disassembleRange(Program, Method, I.elseRange(), Strings, Indent + 1,
                         Out);
      }
      break;
    case Instr::Kind::While:
      Out << "while " << VarName(I.CondLhs) << " guard#" << I.GuardId << "\n";
      disassembleRange(Program, Method, I.bodyRange(), Strings, Indent + 1,
                       Out);
      break;
    case Instr::Kind::Return:
      Out << "return";
      if (I.Src != InvalidVar)
        Out << " " << VarName(I.Src);
      Out << "\n";
      break;
    }
  });
}

} // namespace

std::string uspec::disassemble(const IRProgram &Program,
                               const StringInterner &Strings) {
  std::ostringstream Out;
  for (const IRClass &Class : Program.Classes) {
    Out << "class " << Strings.str(Class.Name) << " {\n";
    for (const IRMethod &Method : Class.Methods) {
      Out << " def " << Strings.str(Method.Name) << "/" << Method.NumParams
          << " {\n";
      disassembleRange(Program, Method, Method.body(), Strings, 2, Out);
      Out << " }\n";
    }
    Out << "}\n";
  }
  return Out.str();
}
