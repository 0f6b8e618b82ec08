//===- ConstraintSolver.cpp - Reference Andersen-style solver ------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "pointsto/ConstraintSolver.h"

#include "support/Arena.h"
#include "support/FaultInject.h"
#include "support/FlatMap.h"
#include "support/Trace.h"

using namespace uspec;

namespace {

using NodeId = uint32_t;

/// Worklist solver over inclusion constraints. Nodes are variables (one per
/// method slot, context-insensitive), field cells (object × field), and a
/// per-method return collector. Complex constraints (field access, method
/// dispatch) add edges dynamically as points-to sets grow.
///
/// Data layout (struct-of-arrays): points-to sets and successor sets are
/// parallel vectors of arena-backed PtsSets indexed by NodeId; node lookup
/// goes through open-addressed flat maps; the worklist is a flat vector
/// with a head cursor (same FIFO order as the old deque, no per-block
/// allocation). Propagation unions whole sets word-at-a-time instead of
/// re-inserting object-by-object — the fixpoint (and any budget-bounded
/// prefix of it, which stops only at pop boundaries) is unchanged.
class Solver {
public:
  Solver(const IRProgram &Program, const StringInterner &Strings,
         Budget *B = nullptr)
      : Program(Program), Strings(Strings), StepBudget(B) {}

  ConstraintResult run() {
    // Create frames and collect constraints from every method body.
    for (const IRClass &Class : Program.Classes)
      for (const IRMethod &Method : Class.Methods)
        buildMethod(Class, Method);

    solve();

    ConstraintResult Out;
    Out.Objects = std::move(Objects);
    Out.NumNodes = Pts.size();
    Out.NumEdges = EdgeCount;
    Out.Propagations = Propagations;
    Out.Bounded = Bounded;
    RetNodes.forEach([&](uint64_t Site, NodeId Node) {
      Out.RetPointsTo[static_cast<uint32_t>(Site)] = Pts[Node].toObjSet();
    });
    RecvNodes.forEach([&](uint64_t Site, NodeId Node) {
      Out.RecvPointsTo[static_cast<uint32_t>(Site)] = Pts[Node].toObjSet();
    });
    return Out;
  }

private:
  //===--------------------------------------------------------------------===//
  // Node management
  //===--------------------------------------------------------------------===//

  NodeId newNode() {
    Pts.emplace_back();
    Succ.emplace_back();
    return static_cast<NodeId>(Pts.size() - 1);
  }

  NodeId namedNode(uint64_t Key) {
    bool Inserted = false;
    NodeId &Slot = NodeIndex.getOrCreate(Key, &Inserted);
    if (!Inserted)
      return Slot;
    NodeId N = newNode();
    Slot = N;
    return N;
  }

  NodeId varNode(uint32_t ClassIdx, uint32_t MethodIdx, VarId Slot) {
    return namedNode(hashValues(1, ClassIdx, MethodIdx, Slot));
  }

  NodeId fieldNode(ObjectId Obj, Symbol Field) {
    return namedNode(hashValues(2, Obj, Field.id()));
  }

  /// Return-collector node of a program method.
  NodeId returnNode(uint32_t ClassIdx, uint32_t MethodIdx) {
    return namedNode(hashValues(3, ClassIdx, MethodIdx));
  }

  void addEdge(NodeId From, NodeId To) {
    if (From == To)
      return;
    if (!Succ[From].insert(To, Scratch))
      return; // Succ reused as sorted NodeId set
    ++EdgeCount;
    if (!Pts[From].empty())
      enqueue(From);
  }

  void addObject(NodeId Node, ObjectId Obj) {
    if (Pts[Node].insert(Obj, Scratch))
      enqueue(Node);
  }

  void enqueue(NodeId Node) {
    if (InList.size() <= Node)
      InList.resize(Node + 1, false);
    if (InList[Node])
      return;
    InList[Node] = true;
    Worklist.push_back(Node);
  }

  //===--------------------------------------------------------------------===//
  // Constraint generation
  //===--------------------------------------------------------------------===//

  struct PendingLoad {
    NodeId Base;
    Symbol Field;
    NodeId Dst;
  };
  struct PendingStore {
    NodeId Base;
    Symbol Field;
    NodeId Src;
  };
  /// Unresolved call: dispatch on the receiver's classes as they appear.
  struct PendingCall {
    NodeId Recv;
    Symbol Method;
    std::vector<NodeId> Args;
    NodeId Dst; // may be ~0u
    uint32_t Site;
  };

  void buildMethod(const IRClass &Class, const IRMethod &Method) {
    uint32_t ClassIdx = indexOfClass(Class);
    uint32_t MethodIdx = indexOfMethod(Class, Method);

    // Entry seeding: this = This(class); params unknown; externals global.
    NodeId ThisNode = varNode(ClassIdx, MethodIdx, 0);
    ObjectId ThisObj = Objects.getThisObject(Class.Name);
    addObject(ThisNode, ThisObj);
    for (uint32_t P = 0; P < Method.NumParams; ++P)
      addObject(varNode(ClassIdx, MethodIdx, 1 + P),
                Objects.getParamObject(Class.Name, Method.Name, P));
    for (const auto &[Slot, Name] : Method.Externals)
      addObject(varNode(ClassIdx, MethodIdx, Slot),
                Objects.getExternalObject(Name));

    buildBody(Method, ClassIdx, MethodIdx);
  }

  /// Flow-insensitive: one pass over every instruction of the method, in
  /// layout order — then and else ranges and loop bodies included. A
  /// While's condition range precedes it in the array, so it is visited
  /// once, as its own instructions.
  void buildBody(const IRMethod &Method, uint32_t ClassIdx,
                 uint32_t MethodIdx) {
    for (const Instr &I : Method.Code) {
      auto Var = [&](VarId Slot) { return varNode(ClassIdx, MethodIdx, Slot); };
      switch (I.TheKind) {
      case Instr::Kind::Alloc:
        addObject(Var(I.Dst), Objects.getSiteObject(ObjectKind::New, I.SiteId,
                                                    0, I.Name));
        break;
      case Instr::Kind::Literal: {
        ObjectKind Kind = I.LitKind == LiteralKind::String
                              ? ObjectKind::LiteralStr
                              : (I.LitKind == LiteralKind::Int
                                     ? ObjectKind::LiteralInt
                                     : ObjectKind::LiteralNull);
        addObject(Var(I.Dst),
                  Objects.getSiteObject(Kind, I.SiteId, 0, I.StrValue));
        break;
      }
      case Instr::Kind::Copy:
        addEdge(Var(I.Src), Var(I.Dst));
        break;
      case Instr::Kind::LoadField:
        Loads.push_back({Var(I.Base), I.Name, Var(I.Dst)});
        enqueue(Var(I.Base));
        break;
      case Instr::Kind::StoreField:
        Stores.push_back({Var(I.Base), I.Name, Var(I.Src)});
        enqueue(Var(I.Base));
        break;
      case Instr::Kind::Call: {
        PendingCall Call;
        Call.Recv = Var(I.Base);
        Call.Method = I.Name;
        for (VarId Arg : Method.args(I))
          Call.Args.push_back(Var(Arg));
        Call.Dst = I.Dst == InvalidVar ? ~0u : Var(I.Dst);
        Call.Site = I.SiteId;
        // API fallback object: every call may be an API call (if any
        // receiver is not a program class); created lazily in dispatch.
        Calls.push_back(Call);
        {
          bool Inserted = false;
          NodeId &Slot = RecvNodes.getOrCreate(I.SiteId, &Inserted);
          if (Inserted)
            Slot = Call.Recv;
        }
        {
          bool Inserted = false;
          NodeId &Slot = RetNodes.getOrCreate(I.SiteId, &Inserted);
          if (Inserted)
            Slot = newNode();
          if (Call.Dst != ~0u)
            addEdge(Slot, Call.Dst);
        }
        enqueue(Call.Recv);
        break;
      }
      case Instr::Kind::If:
      case Instr::Kind::While:
        break; // their regions follow in Code
      case Instr::Kind::Return:
        if (I.Src != InvalidVar)
          addEdge(Var(I.Src), returnNode(ClassIdx, MethodIdx));
        break;
      }
    }
  }

  uint32_t indexOfClass(const IRClass &Class) {
    for (uint32_t I = 0; I < Program.Classes.size(); ++I)
      if (&Program.Classes[I] == &Class)
        return I;
    return 0;
  }

  uint32_t indexOfMethod(const IRClass &Class, const IRMethod &Method) {
    for (uint32_t I = 0; I < Class.Methods.size(); ++I)
      if (&Class.Methods[I] == &Method)
        return I;
    return 0;
  }

  //===--------------------------------------------------------------------===//
  // Dispatch
  //===--------------------------------------------------------------------===//

  /// Reacts to a receiver object appearing at a call: program-class methods
  /// get parameter/return edges; anything else makes the site an API call.
  void dispatch(const PendingCall &Call, ObjectId Recv) {
    uint64_t Done = hashValues(Call.Site, Recv, Call.Method.id());
    if (!Dispatched.insert(Done))
      return;

    const AbstractObject &AO = Objects.get(Recv);
    const IRClass *Callee = nullptr;
    if (AO.Kind == ObjectKind::New || AO.Kind == ObjectKind::This)
      Callee = Program.findClass(AO.Class);
    const IRMethod *Target =
        Callee ? Callee->findMethod(Call.Method) : nullptr;

    NodeId RetNode = *RetNodes.find(Call.Site);
    if (!Target) {
      // API call: fresh object per site (context-insensitive).
      addObject(RetNode, Objects.getSiteObject(ObjectKind::ApiRet, Call.Site,
                                               0, Symbol()));
      return;
    }

    uint32_t ClassIdx = 0, MethodIdx = 0;
    for (uint32_t I = 0; I < Program.Classes.size(); ++I)
      if (&Program.Classes[I] == Callee)
        ClassIdx = I;
    for (uint32_t I = 0; I < Callee->Methods.size(); ++I)
      if (&Callee->Methods[I] == Target)
        MethodIdx = I;

    addEdge(Call.Recv, varNode(ClassIdx, MethodIdx, 0));
    for (uint32_t P = 0; P < Target->NumParams && P < Call.Args.size(); ++P)
      addEdge(Call.Args[P], varNode(ClassIdx, MethodIdx, 1 + P));
    addEdge(returnNode(ClassIdx, MethodIdx), RetNode);
  }

  //===--------------------------------------------------------------------===//
  // Fixpoint
  //===--------------------------------------------------------------------===//

  void solve() {
    // One span per fixpoint plus one per outer round; the per-pop worklist
    // loop is deliberately unspanned — a probe there would cost an atomic
    // load per propagation even when tracing is off.
    TraceSpan FixpointSpan("solver.fixpoint");
    size_t Rounds = 0;
    bool Changed = true;
    while (Changed) {
      TraceSpan RoundSpan("solver.round");
      ++Rounds;
      Changed = false;
      while (WorklistHead < Worklist.size()) {
        // Cooperative bound: stop mid-fixpoint when the budget runs out or
        // the `solver.step` site injects simulated exhaustion. The partial
        // sets stay in the result but Bounded forces ⊤ answers.
        if ((StepBudget && !StepBudget->consume()) ||
            USPEC_FAULT_SOFT("solver.step")) {
          Bounded = true;
          return;
        }
        NodeId Node = Worklist[WorklistHead++];
        InList[Node] = false;
        ++Propagations;

        // Copy edges: union the whole source set into each successor. No
        // newNode() runs here, so Pts/Succ never reallocate mid-iteration.
        const PtsSet &SuccSet = Succ[Node];
        SuccSet.forEach([&](NodeId To) {
          if (Pts[To].unionWith(Pts[Node], Scratch))
            enqueue(To);
        });
        Changed = true;
      }
      Worklist.clear();
      WorklistHead = 0;
      // Complex constraints: re-examine with current points-to sets. The
      // bases are snapshotted because fieldNode/dispatch may create nodes,
      // reallocating the Pts vector (and with it inline small-set storage).
      for (const PendingLoad &L : Loads) {
        snapshot(Pts[L.Base]);
        for (ObjectId Obj : Snapshot)
          addEdge(fieldNode(Obj, L.Field), L.Dst);
      }
      for (const PendingStore &St : Stores) {
        snapshot(Pts[St.Base]);
        for (ObjectId Obj : Snapshot)
          addEdge(St.Src, fieldNode(Obj, St.Field));
      }
      for (const PendingCall &Call : Calls) {
        if (Pts[Call.Recv].empty()) {
          // Unknown receiver (e.g. null): still an API call.
          dispatchApiOnly(Call);
          continue;
        }
        snapshot(Pts[Call.Recv]);
        for (ObjectId Obj : Snapshot)
          dispatch(Call, Obj);
      }
      if (WorklistHead < Worklist.size())
        Changed = true;
    }
    if (FixpointSpan.active()) {
      FixpointSpan.arg("rounds", std::to_string(Rounds));
      FixpointSpan.arg("propagations", std::to_string(Propagations));
    }
  }

  void dispatchApiOnly(const PendingCall &Call) {
    uint64_t Done = hashValues(Call.Site, 0xFFFFFFFFu, Call.Method.id());
    if (!Dispatched.insert(Done))
      return;
    addObject(*RetNodes.find(Call.Site),
              Objects.getSiteObject(ObjectKind::ApiRet, Call.Site, 0,
                                    Symbol()));
  }

  void snapshot(const PtsSet &Set) {
    Snapshot.clear();
    Set.appendTo(Snapshot);
  }

  const IRProgram &Program;
  const StringInterner &Strings;

  ObjectTable Objects;
  Arena Scratch;                 ///< Owns all PtsSet storage below.
  std::vector<PtsSet> Pts;       ///< Per-node points-to sets.
  std::vector<PtsSet> Succ;      ///< Copy edges (sorted NodeId sets).
  FlatMap64<NodeId> NodeIndex;
  FlatMap64<NodeId> RetNodes;    ///< Keyed by call SiteId.
  FlatMap64<NodeId> RecvNodes;   ///< Keyed by call SiteId.
  std::vector<PendingLoad> Loads;
  std::vector<PendingStore> Stores;
  std::vector<PendingCall> Calls;
  FlatSet64 Dispatched;
  std::vector<NodeId> Worklist;  ///< FIFO via head cursor.
  size_t WorklistHead = 0;
  std::vector<ObjectId> Snapshot; ///< Reused base-set snapshot buffer.
  std::vector<bool> InList;
  size_t EdgeCount = 0;
  size_t Propagations = 0;
  Budget *StepBudget = nullptr;
  bool Bounded = false;
};

} // namespace

ConstraintResult uspec::solveConstraints(const IRProgram &Program,
                                         const StringInterner &Strings,
                                         Budget *B) {
  Solver S(Program, Strings, B);
  return S.run();
}
