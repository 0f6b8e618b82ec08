//===- Interpreter.h - Concrete MiniLang interpreter -----------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a lowered MiniLang program concretely against the ApiHeap
/// library models. Used by the differential soundness tests: aliasing
/// observed in a concrete run (identical object identities returned by two
/// API call sites) must be reported as may-alias by the API-aware analysis
/// running with ground-truth specifications.
///
/// Loops are bounded; program-defined methods are interpreted with a bounded
/// call depth; every entry method of every class is run once.
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_RUNTIME_INTERPRETER_H
#define USPEC_RUNTIME_INTERPRETER_H

#include "ir/IR.h"
#include "runtime/Runtime.h"
#include "support/StringInterner.h"

#include <map>
#include <vector>

namespace uspec {

/// Interpreter limits.
struct InterpreterOptions {
  unsigned MaxLoopIters = 2;
  unsigned MaxCallDepth = 8;
  /// Upper bound on executed instructions per entry (runaway guard).
  unsigned MaxSteps = 100000;
};

/// Runs a program and records per-call-site return values.
class Interpreter {
public:
  Interpreter(const IRProgram &Program, const StringInterner &Strings,
              const ApiRegistry &Registry,
              InterpreterOptions Options = InterpreterOptions());

  /// Executes every method of every class as an entry point.
  void runAll();

  /// Concrete values returned by each API call site (multiple entries when
  /// the site executed several times).
  const std::map<uint32_t, std::vector<RtValue>> &returnsPerSite() const {
    return SiteReturns;
  }

  const ApiHeap &heap() const { return Heap; }

private:
  struct Frame {
    const IRMethod *Method = nullptr;
    std::vector<RtValue> Vars;
    RtValue Ret;
    bool Returned = false;
  };

  void runEntry(const IRClass &Class, const IRMethod &Method);
  /// Executes range \p R of the frame's method.
  void execRange(IndexRange R, Frame &F, unsigned Depth);
  void execInstr(const Instr &I, Frame &F, unsigned Depth);
  bool evalCond(const Instr &I, const Frame &F) const;
  RtValue callMethod(const Instr &I, Frame &F, unsigned Depth);

  /// Resolves an external/global name to a heap object (one per name).
  RtValue externalObject(Symbol Name);

  const IRProgram &Program;
  const StringInterner &Strings;
  const ApiRegistry &Registry;
  InterpreterOptions Opts;
  ApiHeap Heap;
  std::map<uint32_t, RtValue> Externals;
  std::map<uint32_t, std::vector<RtValue>> SiteReturns;
  /// Program-defined objects: heap objects whose class is a program class;
  /// their fields live here (keyed by object id + field symbol).
  std::map<std::pair<uint32_t, uint32_t>, RtValue> ProgramFields;
  unsigned Steps = 0;
};

} // namespace uspec

#endif // USPEC_RUNTIME_INTERPRETER_H
