//===- Interpreter.cpp - Concrete MiniLang interpreter ------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Interpreter.h"

using namespace uspec;

Interpreter::Interpreter(const IRProgram &Program,
                         const StringInterner &Strings,
                         const ApiRegistry &Registry,
                         InterpreterOptions Options)
    : Program(Program), Strings(Strings), Registry(Registry), Opts(Options),
      Heap(Registry) {}

void Interpreter::runAll() {
  for (const IRClass &Class : Program.Classes)
    for (const IRMethod &Method : Class.Methods)
      runEntry(Class, Method);
}

RtValue Interpreter::externalObject(Symbol Name) {
  auto It = Externals.find(Name.id());
  if (It != Externals.end())
    return It->second;
  RtValue Obj = Heap.allocObject("ext:" + Strings.str(Name));
  Externals.emplace(Name.id(), Obj);
  return Obj;
}

void Interpreter::runEntry(const IRClass &Class, const IRMethod &Method) {
  Frame F;
  F.Method = &Method;
  F.Vars.resize(Method.NumVars);
  F.Vars[0] = Heap.allocObject(Strings.str(Class.Name));
  for (uint32_t P = 0; P < Method.NumParams; ++P)
    F.Vars[1 + P] = Heap.allocObject("param");
  for (const auto &[Slot, Name] : Method.Externals)
    F.Vars[Slot] = externalObject(Name);
  Steps = 0;
  execRange(Method.body(), F, /*Depth=*/0);
}

void Interpreter::execRange(IndexRange R, Frame &F, unsigned Depth) {
  const IRMethod &M = *F.Method;
  for (uint32_t Pc = R.Begin; Pc < R.End; Pc = M.Code[Pc].nextPc(Pc)) {
    if (F.Returned || ++Steps > Opts.MaxSteps)
      return;
    execInstr(M.Code[Pc], F, Depth);
  }
}

bool Interpreter::evalCond(const Instr &I, const Frame &F) const {
  RtValue Lhs =
      I.CondLhs != InvalidVar ? F.Vars[I.CondLhs] : RtValue::null();
  if (I.CondOp == IRCmpOp::None)
    return Lhs.truthy();
  RtValue Rhs =
      I.CondRhs != InvalidVar ? F.Vars[I.CondRhs] : RtValue::null();
  switch (I.CondOp) {
  case IRCmpOp::Eq:
    return Lhs == Rhs;
  case IRCmpOp::Ne:
    return !(Lhs == Rhs);
  case IRCmpOp::Lt:
    return Lhs.Int < Rhs.Int;
  case IRCmpOp::Gt:
    return Lhs.Int > Rhs.Int;
  case IRCmpOp::None:
    break;
  }
  return false;
}

void Interpreter::execInstr(const Instr &I, Frame &F, unsigned Depth) {
  switch (I.TheKind) {
  case Instr::Kind::Alloc:
    F.Vars[I.Dst] = Heap.allocObject(Strings.str(I.Name));
    return;
  case Instr::Kind::Literal:
    switch (I.LitKind) {
    case LiteralKind::String:
      F.Vars[I.Dst] = RtValue::ofStr(Strings.str(I.StrValue));
      return;
    case LiteralKind::Int:
      F.Vars[I.Dst] = RtValue::ofInt(I.IntValue);
      return;
    case LiteralKind::Null:
      F.Vars[I.Dst] = RtValue::null();
      return;
    }
    return;
  case Instr::Kind::Copy:
    F.Vars[I.Dst] = F.Vars[I.Src];
    return;
  case Instr::Kind::LoadField: {
    const RtValue &Base = F.Vars[I.Base];
    if (!Base.isObj()) {
      F.Vars[I.Dst] = RtValue::null();
      return;
    }
    auto It = ProgramFields.find({Base.Obj, I.Name.id()});
    F.Vars[I.Dst] = It == ProgramFields.end() ? RtValue::null() : It->second;
    return;
  }
  case Instr::Kind::StoreField: {
    const RtValue &Base = F.Vars[I.Base];
    if (Base.isObj())
      ProgramFields[{Base.Obj, I.Name.id()}] = F.Vars[I.Src];
    return;
  }
  case Instr::Kind::Call: {
    RtValue Result = callMethod(I, F, Depth);
    if (I.Dst != InvalidVar)
      F.Vars[I.Dst] = Result;
    return;
  }
  case Instr::Kind::If:
    if (evalCond(I, F))
      execRange(I.thenRange(), F, Depth);
    else
      execRange(I.elseRange(), F, Depth);
    return;
  case Instr::Kind::While: {
    // The condition range ran once before the While; jump back to it after
    // each iteration.
    unsigned Iters = 0;
    while (Iters++ < Opts.MaxLoopIters && evalCond(I, F) && !F.Returned) {
      execRange(I.bodyRange(), F, Depth);
      execRange(I.condRange(), F, Depth);
    }
    return;
  }
  case Instr::Kind::Return:
    if (I.Src != InvalidVar)
      F.Ret = F.Vars[I.Src];
    F.Returned = true;
    return;
  }
}

RtValue Interpreter::callMethod(const Instr &I, Frame &F, unsigned Depth) {
  RtValue Recv = F.Vars[I.Base];
  std::vector<RtValue> Args;
  Args.reserve(I.Args.size());
  for (VarId Arg : F.Method->args(I))
    Args.push_back(F.Vars[Arg]);

  const std::string &Name = Strings.str(I.Name);

  // Program-defined method? (Dynamic class of the receiver.)
  if (Recv.isObj()) {
    const std::string &Class = Heap.classOf(Recv.Obj);
    Symbol ClassSym;
    // Avoid interning into a const interner: linear scan over classes.
    for (const IRClass &C : Program.Classes) {
      if (Strings.str(C.Name) != Class)
        continue;
      if (const IRMethod *Target = C.findMethod(I.Name)) {
        if (Depth >= Opts.MaxCallDepth)
          return RtValue::null();
        Frame Callee;
        Callee.Method = Target;
        Callee.Vars.resize(Target->NumVars);
        Callee.Vars[0] = Recv;
        for (uint32_t P = 0; P < Target->NumParams && P < Args.size(); ++P)
          Callee.Vars[1 + P] = Args[P];
        for (const auto &[Slot, ExtName] : Target->Externals)
          Callee.Vars[Slot] = externalObject(ExtName);
        execRange(Target->body(), Callee, Depth + 1);
        return Callee.Ret;
      }
      break;
    }
    (void)ClassSym;
  }

  // API call: resolve by unique (name, arity) in the registry; receivers of
  // registry classes prefer their own class's method.
  const ApiMethod *Method = nullptr;
  if (Recv.isObj())
    if (const ApiClass *C = Registry.findClass(Heap.classOf(Recv.Obj)))
      Method = C->findMethod(Name, static_cast<unsigned>(Args.size()));
  if (!Method)
    Method =
        Registry.findUniqueMethod(Name, static_cast<unsigned>(Args.size()));

  RtValue Result;
  if (Method)
    Result = Heap.callApi(Recv, *Method, Args);
  else
    Result = Heap.allocObject("Opaque"); // unknown API: fresh object
  SiteReturns[I.SiteId].push_back(Result);
  return Result;
}
