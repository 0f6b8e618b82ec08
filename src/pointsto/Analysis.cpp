//===- Analysis.cpp - Flow/context-sensitive points-to analysis -------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "pointsto/Analysis.h"

#include "support/Arena.h"
#include "support/FaultInject.h"
#include "support/FlatMap.h"
#include "support/Trace.h"

#include <algorithm>

using namespace uspec;

//===----------------------------------------------------------------------===//
// Value tags and field keys
//===----------------------------------------------------------------------===//

uint64_t uspec::literalValueTag(LitClass Kind, Symbol Text) {
  return hashValues(0xA11CEULL, static_cast<uint64_t>(Kind), Text.id());
}

uint64_t uspec::objectValueTag(ObjectId Obj) {
  return hashValues(0x0B7ECULL, Obj);
}

uint64_t uspec::regularFieldKey(ObjectId Owner, Symbol Field) {
  return hashValues(0xF1E1DULL, Owner, Field.id());
}

uint64_t uspec::ghostFieldKey(ObjectId Owner, const MethodId &Reader,
                              const std::vector<uint64_t> &Values) {
  uint64_t Key = hashValues(0x6405ULL, Owner, Reader.hash());
  for (uint64_t V : Values)
    Key = hashCombine(Key, V);
  return Key;
}

uint64_t uspec::ghostTopKey(ObjectId Owner, const MethodId &Reader) {
  return hashValues(0x709ULL, Owner, Reader.hash());
}

uint64_t uspec::ghostBotKey(ObjectId Owner, const MethodId &Reader) {
  return hashValues(0xB07ULL, Owner, Reader.hash());
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

namespace {

/// Synthetic site ids for root allocation events live above real site ids.
constexpr uint32_t SyntheticSiteBase = 0x40000000;

/// The interpreter's flow state is data-oriented: variable frames and the
/// working field store hold arena-backed PtsSets (inline small sets /
/// dense bitsets), so branch joins and field unions run without heap
/// traffic and the per-program teardown is one arena reset. History
/// tracking (order-sensitive, feeds the event graph) stays on STL vectors
/// untouched. Working stores are materialized into the STL result maps
/// exactly once, when the run finishes.
class AnalysisDriver {
public:
  AnalysisDriver(const IRProgram &Program, const StringInterner &Strings,
                 const AnalysisOptions &Options, Arena &Scratch)
      : Program(Program), Strings(Strings), Opts(Options), A(Scratch) {
    assert((!Opts.ApiAware || Opts.Specs) &&
           "API-aware mode requires a specification set");
  }

  AnalysisResult run() {
    // One span per driver run; per-method frames are deliberately unspanned
    // (a probe there would fire thousands of times per program).
    TraceSpan Span("analysis.run");
    if (Span.active()) {
      size_t Methods = 0;
      for (const IRClass &Class : Program.Classes)
        Methods += Class.Methods.size();
      Span.arg("classes", std::to_string(Program.Classes.size()));
      Span.arg("methods", std::to_string(Methods));
    }
    for (unsigned Iter = 0;
         Iter < std::max(1u, Opts.OuterIterations) && !Exhausted; ++Iter) {
      bool LastIter = Iter + 1 == std::max(1u, Opts.OuterIterations);
      for (const IRClass &Class : Program.Classes) {
        for (const IRMethod &Method : Class.Methods) {
          Flow F;
          Frame Entry = setupEntryFrame(Class, Method, F);
          analyzeRange(Method.body(), Entry, F, /*Depth=*/0);
          // Bounded runs still merge what they saw: the histories/events are
          // genuine, just incomplete, and R.Bounded forces ⊤ alias answers.
          if (LastIter || Exhausted)
            mergeIntoResult(F);
          if (Exhausted) {
            R.Bounded = true;
            return finish();
          }
        }
      }
    }
    return finish();
  }

private:
  //===--------------------------------------------------------------------===//
  // Flow state
  //===--------------------------------------------------------------------===//

  /// Flow-sensitive part of the state shared down the inline stack:
  /// per-object abstract histories.
  struct Flow {
    std::vector<HistorySet> His;

    HistorySet &of(ObjectId Obj) {
      if (Obj >= His.size())
        His.resize(Obj + 1);
      return His[Obj];
    }
  };

  /// One method activation (entry or inlined call). Move-only (PtsSets);
  /// branch-join copies go through cloneFrame.
  struct Frame {
    const IRMethod *Method = nullptr;
    std::vector<PtsSet> Vars;
    PtsSet Ret;
    uint32_t Ctx = 0;
  };

  Frame cloneFrame(const Frame &Fr) {
    Frame C;
    C.Method = Fr.Method;
    C.Ctx = Fr.Ctx;
    C.Vars.reserve(Fr.Vars.size());
    for (const PtsSet &S : Fr.Vars)
      C.Vars.push_back(S.clone(A));
    C.Ret = Fr.Ret.clone(A);
    return C;
  }

  Frame setupEntryFrame(const IRClass &Class, const IRMethod &Method,
                        Flow &F) {
    Frame Entry;
    Entry.Method = &Method;
    Entry.Ctx = 0;
    Entry.Vars.resize(Method.NumVars);

    ObjectId This = R.Objects.getThisObject(Class.Name);
    noteObjectValue(This, objectValueTag(This));
    // Root-event labels reuse already-interned symbols so the analysis never
    // mutates the interner (enables parallel corpus analysis).
    seedRoot(F, This, Class.Name);
    Entry.Vars[0].assignSingle(This);

    for (uint32_t P = 0; P < Method.NumParams; ++P) {
      ObjectId Param = R.Objects.getParamObject(Class.Name, Method.Name, P);
      seedRoot(F, Param, Method.Name);
      Entry.Vars[1 + P].assignSingle(Param);
    }
    seedExternals(Method, Entry, F);
    return Entry;
  }

  void seedExternals(const IRMethod &Method, Frame &Fr, Flow &F) {
    for (const auto &[Slot, Name] : Method.Externals) {
      ObjectId Ext = R.Objects.getExternalObject(Name);
      seedRoot(F, Ext, Name);
      if (Slot >= Fr.Vars.size())
        Fr.Vars.resize(Slot + 1);
      Fr.Vars[Slot].assignSingle(Ext);
    }
  }

  /// Gives \p Obj a synthetic root allocation event (if it has none) and
  /// seeds its history.
  void seedRoot(Flow &F, ObjectId Obj, Symbol Label) {
    AbstractObject &AO = R.Objects.get(Obj);
    if (AO.AllocEvent == InvalidEvent) {
      Event E;
      E.Kind = EventKind::RootAlloc;
      E.Site = SyntheticSiteBase + Obj;
      E.Ctx = 0;
      E.Pos = PosRet;
      E.Method.Name = Label;
      AO.AllocEvent = R.Events.getOrCreate(E);
    }
    HistorySet &His = F.of(Obj);
    if (His.empty())
      His.push_back({AO.AllocEvent});
  }

  //===--------------------------------------------------------------------===//
  // History bookkeeping
  //===--------------------------------------------------------------------===//

  void appendEvent(Flow &F, ObjectId Obj, EventId E) {
    HistorySet &His = F.of(Obj);
    if (His.empty()) {
      His.push_back({E});
      return;
    }
    for (History &H : His)
      if (H.empty() || H.back() != E)
        H.push_back(E);
    dedupHistories(His);
  }

  void dedupHistories(HistorySet &His) {
    std::sort(His.begin(), His.end());
    His.erase(std::unique(His.begin(), His.end()), His.end());
    if (His.size() > Opts.HistoryCap)
      His.resize(Opts.HistoryCap);
  }

  void joinFlow(Flow &Into, const Flow &Other) {
    if (Other.His.size() > Into.His.size())
      Into.His.resize(Other.His.size());
    for (size_t Obj = 0; Obj < Other.His.size(); ++Obj) {
      if (Other.His[Obj].empty())
        continue;
      HistorySet &Dst = Into.His[Obj];
      Dst.insert(Dst.end(), Other.His[Obj].begin(), Other.His[Obj].end());
      dedupHistories(Dst);
    }
  }

  void joinVars(std::vector<PtsSet> &Into, const std::vector<PtsSet> &Other) {
    assert(Into.size() == Other.size() && "frame size mismatch at join");
    for (size_t I = 0; I < Into.size(); ++I)
      Into[I].unionWith(Other[I], A);
  }

  void mergeIntoResult(const Flow &F) {
    if (F.His.size() > R.Histories.size())
      R.Histories.resize(F.His.size());
    for (size_t Obj = 0; Obj < F.His.size(); ++Obj) {
      if (F.His[Obj].empty())
        continue;
      HistorySet &Dst = R.Histories[Obj];
      Dst.insert(Dst.end(), F.His[Obj].begin(), F.His[Obj].end());
      dedupHistories(Dst);
    }
  }

  /// Materializes the arena-backed working stores into the STL result maps
  /// (both run() exits go through here). Keys created but never grown —
  /// e.g. a store of an empty set — materialize as empty sets, matching
  /// what operator[] on the result maps used to produce.
  AnalysisResult finish() {
    FieldsW.forEach([this](uint64_t Key, const PtsSet &S) {
      R.Fields.emplace(Key, S.toObjSet());
    });
    RetW.forEach([this](uint64_t Key, const PtsSet &S) {
      R.RetPointsTo.emplace(static_cast<EventId>(Key), S.toObjSet());
    });
    return std::move(R);
  }

  //===--------------------------------------------------------------------===//
  // Values and fields
  //===--------------------------------------------------------------------===//

  void noteObjectValue(ObjectId Obj, uint64_t Tag) {
    R.ObjectValues.emplace(Obj, Tag);
  }

  /// The paper's valG over a points-to set: value tags of all valued objects
  /// (literals, New, This). Sorted and deduplicated.
  std::vector<uint64_t> valuesOf(const PtsSet &Set) const {
    std::vector<uint64_t> Values;
    Set.forEach([&](ObjectId Obj) {
      auto It = R.ObjectValues.find(Obj);
      if (It != R.ObjectValues.end())
        Values.push_back(It->second);
    });
    std::sort(Values.begin(), Values.end());
    Values.erase(std::unique(Values.begin(), Values.end()), Values.end());
    return Values;
  }

  /// Working field store entry. The returned reference is invalidated by
  /// the next fieldSet() call (flat-map rehash) — use it immediately.
  PtsSet &fieldSet(uint64_t Key) { return FieldsW.getOrCreate(Key); }

  const PtsSet *fieldSetIfPresent(uint64_t Key) const {
    return FieldsW.find(Key);
  }

  //===--------------------------------------------------------------------===//
  // Statement interpretation
  //===--------------------------------------------------------------------===//

  /// Interprets range \p R of the frame's method (regions nested in it
  /// are entered by their If/While).
  void analyzeRange(IndexRange R, Frame &Fr, Flow &F, unsigned Depth) {
    const IRMethod &M = *Fr.Method;
    for (uint32_t Pc = R.Begin; Pc < R.End; Pc = M.Code[Pc].nextPc(Pc)) {
      // Cooperative bound: one step per interpreted instruction. The flag is
      // sticky so the whole inline/branch recursion unwinds promptly.
      if (Exhausted)
        return;
      if ((Opts.StepBudget && !Opts.StepBudget->consume()) ||
          USPEC_FAULT_SOFT("analysis.step")) {
        Exhausted = true;
        return;
      }
      analyzeInstr(M.Code[Pc], Fr, F, Depth);
    }
  }

  void analyzeInstr(const Instr &I, Frame &Fr, Flow &F, unsigned Depth) {
    switch (I.TheKind) {
    case Instr::Kind::Alloc: {
      ObjectId Obj = R.Objects.getSiteObject(ObjectKind::New, I.SiteId,
                                             Fr.Ctx, I.Name);
      noteObjectValue(Obj, objectValueTag(Obj));
      AbstractObject &AO = R.Objects.get(Obj);
      if (AO.AllocEvent == InvalidEvent) {
        Event E;
        E.Kind = EventKind::NewAlloc;
        E.Site = I.SiteId;
        E.Ctx = Fr.Ctx;
        E.Pos = PosRet;
        E.Method.Name = I.Name; // label: newT
        E.Guard = I.GuardId;
        AO.AllocEvent = R.Events.getOrCreate(E);
      }
      HistorySet &His = F.of(Obj);
      if (His.empty())
        His.push_back({AO.AllocEvent});
      Fr.Vars[I.Dst].assignSingle(Obj);
      return;
    }
    case Instr::Kind::Literal: {
      ObjectKind Kind = I.LitKind == LiteralKind::String
                            ? ObjectKind::LiteralStr
                            : (I.LitKind == LiteralKind::Int
                                   ? ObjectKind::LiteralInt
                                   : ObjectKind::LiteralNull);
      ObjectId Obj =
          R.Objects.getSiteObject(Kind, I.SiteId, Fr.Ctx, I.StrValue);
      LitClass LC = I.LitKind == LiteralKind::String
                        ? LitClass::Str
                        : (I.LitKind == LiteralKind::Int ? LitClass::Int
                                                         : LitClass::Null);
      noteObjectValue(Obj, literalValueTag(LC, I.StrValue));
      AbstractObject &AO = R.Objects.get(Obj);
      if (AO.AllocEvent == InvalidEvent) {
        Event E;
        E.Kind = EventKind::LitAlloc;
        E.Site = I.SiteId;
        E.Ctx = Fr.Ctx;
        E.Pos = PosRet;
        E.Lit = LC;
        E.Guard = I.GuardId;
        AO.AllocEvent = R.Events.getOrCreate(E);
      }
      HistorySet &His = F.of(Obj);
      if (His.empty())
        His.push_back({AO.AllocEvent});
      Fr.Vars[I.Dst].assignSingle(Obj);
      return;
    }
    case Instr::Kind::Copy:
      if (I.Dst != I.Src)
        Fr.Vars[I.Dst] = Fr.Vars[I.Src].clone(A);
      return;
    case Instr::Kind::LoadField: {
      PtsSet Result;
      Fr.Vars[I.Base].forEach([&](ObjectId Obj) {
        if (const PtsSet *S = fieldSetIfPresent(regularFieldKey(Obj, I.Name)))
          Result.unionWith(*S, A);
      });
      Fr.Vars[I.Dst] = std::move(Result);
      return;
    }
    case Instr::Kind::StoreField: {
      const PtsSet &Value = Fr.Vars[I.Src];
      Fr.Vars[I.Base].forEach([&](ObjectId Obj) {
        fieldSet(regularFieldKey(Obj, I.Name)).unionWith(Value, A);
      });
      return;
    }
    case Instr::Kind::Call:
      analyzeCall(I, Fr, F, Depth);
      return;
    case Instr::Kind::If: {
      Frame ElseFrame = cloneFrame(Fr);
      Flow ElseFlow = F;
      analyzeRange(I.thenRange(), Fr, F, Depth);
      analyzeRange(I.elseRange(), ElseFrame, ElseFlow, Depth);
      joinVars(Fr.Vars, ElseFrame.Vars);
      Fr.Ret.unionWith(ElseFrame.Ret, A);
      joinFlow(F, ElseFlow);
      return;
    }
    case Instr::Kind::While: {
      // Single loop unrolling (§3.2): join the skip path with one body pass.
      Frame OnceFrame = cloneFrame(Fr);
      Flow OnceFlow = F;
      analyzeRange(I.bodyRange(), OnceFrame, OnceFlow, Depth);
      joinVars(Fr.Vars, OnceFrame.Vars);
      Fr.Ret.unionWith(OnceFrame.Ret, A);
      joinFlow(F, OnceFlow);
      return;
    }
    case Instr::Kind::Return:
      if (I.Src != InvalidVar)
        Fr.Ret.unionWith(Fr.Vars[I.Src], A);
      return;
    }
  }

  //===--------------------------------------------------------------------===//
  // Calls
  //===--------------------------------------------------------------------===//

  /// Determines the receiver class: the unique allocation class if all
  /// receiver objects are New/This of one class, empty Symbol otherwise.
  Symbol receiverClass(const PtsSet &RecvSet) const {
    Symbol Class;
    bool Mixed = false;
    RecvSet.forEach([&](ObjectId Obj) {
      if (Mixed)
        return;
      const AbstractObject &AO = R.Objects.get(Obj);
      if (AO.Kind != ObjectKind::New && AO.Kind != ObjectKind::This) {
        Mixed = true;
        return;
      }
      if (Class.isEmpty())
        Class = AO.Class;
      else if (Class != AO.Class)
        Mixed = true;
    });
    return Mixed ? Symbol() : Class;
  }

  void analyzeCall(const Instr &I, Frame &Fr, Flow &F, unsigned Depth) {
    const PtsSet &RecvSet = Fr.Vars[I.Base];
    // Argument sets stay where they live (no per-call copies); Fr.Vars is
    // not resized or reassigned until the call completes, so the pointers
    // stay valid through inlineCall/apiCall.
    std::vector<const PtsSet *> ArgSets;
    ArgSets.reserve(I.Args.size());
    for (VarId Arg : Fr.Method->args(I))
      ArgSets.push_back(&Fr.Vars[Arg]);

    // Try to resolve to a program-defined method (inlined, no events).
    Symbol Class = receiverClass(RecvSet);
    if (!Class.isEmpty() && Depth < Opts.InlineDepth) {
      if (const IRClass *Callee = Program.findClass(Class)) {
        if (const IRMethod *Target = Callee->findMethod(I.Name)) {
          inlineCall(I, Fr, F, Depth, RecvSet, ArgSets, *Target);
          return;
        }
        // A program-defined class without this method: fall through and
        // treat as an (unknown) API call on that class.
      }
    }
    apiCall(I, Fr, F, Class, RecvSet, ArgSets);
  }

  void inlineCall(const Instr &I, Frame &Fr, Flow &F, unsigned Depth,
                  const PtsSet &RecvSet,
                  const std::vector<const PtsSet *> &ArgSets,
                  const IRMethod &Target) {
    Frame Callee;
    Callee.Method = &Target;
    uint32_t Ctx32 =
        static_cast<uint32_t>(hashValues(Fr.Ctx, I.SiteId) & 0x3FFFFFFF);
    Callee.Ctx = Ctx32 ? Ctx32 : 1;
    Callee.Vars.resize(Target.NumVars);
    Callee.Vars[0] = RecvSet.clone(A);
    for (uint32_t P = 0; P < Target.NumParams && P < ArgSets.size(); ++P)
      Callee.Vars[1 + P] = ArgSets[P]->clone(A);
    seedExternals(Target, Callee, F);
    analyzeRange(Target.body(), Callee, F, Depth + 1);
    if (I.Dst != InvalidVar)
      Fr.Vars[I.Dst] = std::move(Callee.Ret);
  }

  void apiCall(const Instr &I, Frame &Fr, Flow &F, Symbol Class,
               const PtsSet &RecvSet,
               const std::vector<const PtsSet *> &ArgSets) {
    MethodId Mid;
    Mid.Class = Class;
    Mid.Name = I.Name;
    Mid.Arity = static_cast<uint8_t>(
        std::min<size_t>(I.Args.size(), 250));

    // Receiver and argument events.
    auto MakeEvent = [&](EventPos Pos) {
      Event E;
      E.Kind = EventKind::ApiCall;
      E.Site = I.SiteId;
      E.Ctx = Fr.Ctx;
      E.Pos = Pos;
      E.Method = Mid;
      E.Guard = I.GuardId;
      return R.Events.getOrCreate(E);
    };

    EventId RecvEvent = MakeEvent(PosReceiver);
    RecvSet.forEach([&](ObjectId Obj) { appendEvent(F, Obj, RecvEvent); });
    for (size_t Pos = 0; Pos < ArgSets.size(); ++Pos) {
      EventId ArgEvent = MakeEvent(static_cast<EventPos>(Pos + 1));
      ArgSets[Pos]->forEach(
          [&](ObjectId Obj) { appendEvent(F, Obj, ArgEvent); });
    }

    // Ghost writes (GhostW, Tab. 2) in API-aware mode.
    if (Opts.ApiAware)
      ghostWrites(Mid, RecvSet, ArgSets);

    // Return value (GhostR / fresh object).
    EventId RetEvent = MakeEvent(PosRet);
    PtsSet Ret;
    if (Opts.ApiAware) {
      Ret = ghostReads(Mid, RecvSet, ArgSets);
      // Experimental RetRecv pattern (§5.3): the call may return its
      // receiver.
      if (Opts.Specs->hasRetRecv(Mid))
        Ret.unionWith(RecvSet, A);
    }
    if (Ret.empty()) {
      ObjectId Fresh =
          R.Objects.getSiteObject(ObjectKind::ApiRet, I.SiteId, Fr.Ctx,
                                  Symbol());
      AbstractObject &AO = R.Objects.get(Fresh);
      if (AO.AllocEvent == InvalidEvent)
        AO.AllocEvent = RetEvent;
      Ret.assignSingle(Fresh);
    }
    Ret.forEach([&](ObjectId Obj) { appendEvent(F, Obj, RetEvent); });
    RetW.getOrCreate(RetEvent).unionWith(Ret, A);
    if (I.Dst != InvalidVar)
      Fr.Vars[I.Dst] = std::move(Ret);
  }

  //===--------------------------------------------------------------------===//
  // Ghost fields (§6.2, App. A)
  //===--------------------------------------------------------------------===//

  /// Enumerates the cartesian product of per-position value sets, capped at
  /// MaxGhostTuples tuples. Returns false if some position has no values
  /// (the field name is then unresolvable, §6.4).
  bool nameTuples(const std::vector<std::vector<uint64_t>> &Per,
                  std::vector<std::vector<uint64_t>> &Out) const {
    for (const auto &Values : Per)
      if (Values.empty())
        return false;
    Out.push_back({});
    for (const auto &Values : Per) {
      std::vector<std::vector<uint64_t>> Next;
      for (const auto &Prefix : Out) {
        for (uint64_t V : Values) {
          Next.push_back(Prefix);
          Next.back().push_back(V);
          if (Next.size() >= Opts.MaxGhostTuples)
            break;
        }
        if (Next.size() >= Opts.MaxGhostTuples)
          break;
      }
      Out = std::move(Next);
    }
    return true;
  }

  void ghostWrites(const MethodId &Mid, const PtsSet &RecvSet,
                   const std::vector<const PtsSet *> &ArgSets) {
    for (const Spec &S : Opts.Specs->retArgsBySource(Mid)) {
      unsigned X = S.ArgPos;
      if (X < 1 || X > ArgSets.size())
        continue;
      const PtsSet &Stored = *ArgSets[X - 1];
      if (Stored.empty())
        continue;

      // F(m, x, t): tuples over the values of the other arguments.
      std::vector<std::vector<uint64_t>> Per;
      for (size_t Pos = 0; Pos < ArgSets.size(); ++Pos)
        if (Pos != X - 1)
          Per.push_back(valuesOf(*ArgSets[Pos]));
      std::vector<std::vector<uint64_t>> Tuples;
      bool Resolvable = nameTuples(Per, Tuples);

      RecvSet.forEach([&](ObjectId Recv) {
        if (Resolvable)
          for (const auto &T : Tuples)
            fieldSet(ghostFieldKey(Recv, S.Target, T)).unionWith(Stored, A);
        if (Opts.CoverageExtension) {
          if (!Resolvable)
            fieldSet(ghostTopKey(Recv, S.Target)).unionWith(Stored, A);
          fieldSet(ghostBotKey(Recv, S.Target)).unionWith(Stored, A);
        }
      });
    }
  }

  PtsSet ghostReads(const MethodId &Mid, const PtsSet &RecvSet,
                    const std::vector<const PtsSet *> &ArgSets) {
    if (!Opts.Specs->hasRetSame(Mid))
      return {};

    std::vector<std::vector<uint64_t>> Per;
    Per.reserve(ArgSets.size());
    for (const PtsSet *Arg : ArgSets)
      Per.push_back(valuesOf(*Arg));
    std::vector<std::vector<uint64_t>> Tuples;
    bool Resolvable = nameTuples(Per, Tuples);

    PtsSet Ret;
    if (Resolvable) {
      RecvSet.forEach([&](ObjectId Recv) {
        for (const auto &T : Tuples) {
          uint64_t Key = ghostFieldKey(Recv, Mid, T);
          PtsSet &S = fieldSet(Key);
          if (S.empty())
            S.assignSingle(
                R.Objects.getGhostObject(Recv, Key)); // GhostR allocation
          Ret.unionWith(S, A);
        }
        if (Opts.CoverageExtension)
          if (const PtsSet *Top = fieldSetIfPresent(ghostTopKey(Recv, Mid)))
            Ret.unionWith(*Top, A);
      });
      return Ret;
    }

    // Unresolvable arguments: read ⊥ (App. A) when the coverage extension is
    // enabled; otherwise no ghost read applies.
    if (!Opts.CoverageExtension)
      return {};
    RecvSet.forEach([&](ObjectId Recv) {
      uint64_t Key = ghostBotKey(Recv, Mid);
      PtsSet &S = fieldSet(Key);
      if (S.empty())
        S.assignSingle(R.Objects.getGhostObject(Recv, Key));
      Ret.unionWith(S, A);
    });
    return Ret;
  }

  const IRProgram &Program;
  const StringInterner &Strings;
  AnalysisOptions Opts;
  AnalysisResult R;
  Arena &A;                  ///< Per-thread scratch; reset per program.
  FlatMap64<PtsSet> FieldsW; ///< Working field store (materialized at end).
  FlatMap64<PtsSet> RetW;    ///< Working ret-event points-to store.
  bool Exhausted = false;
};

} // namespace

AnalysisResult uspec::analyzeProgram(const IRProgram &Program,
                                     const StringInterner &Strings,
                                     const AnalysisOptions &Options) {
  // One arena per worker thread, rewound between programs: after the first
  // few programs a thread's analyses run entirely allocation-free on the
  // points-to side. Slabs persist for the thread's lifetime (bounded by the
  // largest program analyzed on it).
  thread_local Arena ScratchArena;
  ScratchArena.reset();
  AnalysisDriver Driver(Program, Strings, Options, ScratchArena);
  return Driver.run();
}
