//===- AST.h - MiniLang abstract syntax tree -------------------*- C++ -*-===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST node definitions for MiniLang. The hierarchy uses LLVM-style kind
/// discriminators (no RTTI). Every node, child list and name lives in a
/// pool the Module owns: nodes are trivially destructible, children are
/// plain pointers, and freeing a Module frees a few slabs instead of
/// walking the tree.
///
/// MiniLang in one example:
/// \code
///   class Main {
///     var cache;
///     def main() {
///       var map = new Map();
///       map.put("key", db.getFile("a"));
///       var f = map.get("key");
///       if (f != null) { f.getName(); }
///     }
///   }
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef USPEC_LANG_AST_H
#define USPEC_LANG_AST_H

#include "support/Arena.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

namespace uspec {

/// A fixed-size array in a Module's pool: a pointer and a length, trivially
/// copyable. The parser fills it once; nothing resizes it afterwards.
template <typename T> class PoolArray {
public:
  PoolArray() = default;
  PoolArray(const T *Data, uint32_t Size) : Data(Data), Size(Size) {}

  const T *begin() const { return Data; }
  const T *end() const { return Data + Size; }
  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  const T &operator[](size_t I) const {
    assert(I < Size && "PoolArray index out of range");
    return Data[I];
  }

private:
  const T *Data = nullptr;
  uint32_t Size = 0;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Base class for all expressions.
class Expr {
public:
  enum class Kind : uint8_t {
    New,       ///< new C(args)
    StringLit, ///< "text"
    IntLit,    ///< 42
    Null,      ///< null
    This,      ///< this
    VarRef,    ///< x
    FieldRead, ///< e.f
    Call,      ///< e.m(args) or m(args) with implicit this
  };

  Kind getKind() const { return TheKind; }
  int getLine() const { return Line; }

protected:
  // No virtual destructor: nodes live in the Module's pool and are never
  // destroyed one by one.
  Expr(Kind TheKind, int Line) : TheKind(TheKind), Line(Line) {}

private:
  Kind TheKind;
  int Line;
};

using ExprList = PoolArray<const Expr *>;

/// Allocation expression `new C(args)`. For program-defined classes, the
/// arguments are passed to the class's `init` method if one exists.
class NewExpr : public Expr {
public:
  NewExpr(std::string_view ClassName, ExprList Args, int Line)
      : Expr(Kind::New, Line), ClassName(ClassName), Args(Args) {}

  static bool classof(const Expr *E) { return E->getKind() == Kind::New; }

  std::string_view ClassName;
  ExprList Args;
};

/// String literal.
class StringLitExpr : public Expr {
public:
  StringLitExpr(std::string_view Value, int Line)
      : Expr(Kind::StringLit, Line), Value(Value) {}

  static bool classof(const Expr *E) {
    return E->getKind() == Kind::StringLit;
  }

  std::string_view Value; ///< Decoded (escapes resolved).
};

/// Integer literal.
class IntLitExpr : public Expr {
public:
  IntLitExpr(int64_t Value, int Line) : Expr(Kind::IntLit, Line), Value(Value) {}

  static bool classof(const Expr *E) { return E->getKind() == Kind::IntLit; }

  int64_t Value;
};

/// The `null` constant.
class NullExpr : public Expr {
public:
  explicit NullExpr(int Line) : Expr(Kind::Null, Line) {}

  static bool classof(const Expr *E) { return E->getKind() == Kind::Null; }
};

/// The `this` reference, valid inside methods.
class ThisExpr : public Expr {
public:
  explicit ThisExpr(int Line) : Expr(Kind::This, Line) {}

  static bool classof(const Expr *E) { return E->getKind() == Kind::This; }
};

/// A reference to a local variable or parameter.
class VarRefExpr : public Expr {
public:
  VarRefExpr(std::string_view Name, int Line)
      : Expr(Kind::VarRef, Line), Name(Name) {}

  static bool classof(const Expr *E) { return E->getKind() == Kind::VarRef; }

  std::string_view Name;
};

/// Field read `Base.Field` (without a following call).
class FieldReadExpr : public Expr {
public:
  FieldReadExpr(const Expr *Base, std::string_view Field, int Line)
      : Expr(Kind::FieldRead, Line), Base(Base), Field(Field) {}

  static bool classof(const Expr *E) {
    return E->getKind() == Kind::FieldRead;
  }

  const Expr *Base;
  std::string_view Field;
};

/// Method call `Receiver.Method(Args)`. A null Receiver denotes an implicit
/// `this` call (`m(args)` inside a method body).
class CallExpr : public Expr {
public:
  CallExpr(const Expr *Receiver, std::string_view Method, ExprList Args,
           int Line)
      : Expr(Kind::Call, Line), Receiver(Receiver), Method(Method),
        Args(Args) {}

  static bool classof(const Expr *E) { return E->getKind() == Kind::Call; }

  const Expr *Receiver; // may be null: implicit this
  std::string_view Method;
  ExprList Args;
};

//===----------------------------------------------------------------------===//
// Conditions
//===----------------------------------------------------------------------===//

/// Comparison operator in a branch/loop condition.
enum class CmpOp : uint8_t { None, Eq, Ne, Lt, Gt };

/// Branch/loop condition: `Lhs` alone (truthiness) or `Lhs op Rhs`.
struct Condition {
  const Expr *Lhs = nullptr;
  CmpOp Op = CmpOp::None;
  const Expr *Rhs = nullptr; // null when Op == None
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

/// Base class for all statements.
class Stmt {
public:
  enum class Kind : uint8_t {
    VarDecl,
    Assign,
    ExprStmt,
    If,
    While,
    Return,
  };

  Kind getKind() const { return TheKind; }
  int getLine() const { return Line; }

protected:
  // Pool-allocated like Expr: no virtual destructor.
  Stmt(Kind TheKind, int Line) : TheKind(TheKind), Line(Line) {}

private:
  Kind TheKind;
  int Line;
};

using Block = PoolArray<const Stmt *>;

/// `var x;` or `var x = init;`
class VarDeclStmt : public Stmt {
public:
  VarDeclStmt(std::string_view Name, const Expr *Init, int Line)
      : Stmt(Kind::VarDecl, Line), Name(Name), Init(Init) {}

  static bool classof(const Stmt *S) { return S->getKind() == Kind::VarDecl; }

  std::string_view Name;
  const Expr *Init; // may be null
};

/// `lvalue = expr;` where lvalue is a VarRef or FieldRead.
class AssignStmt : public Stmt {
public:
  AssignStmt(const Expr *Target, const Expr *Value, int Line)
      : Stmt(Kind::Assign, Line), Target(Target), Value(Value) {}

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Assign; }

  const Expr *Target;
  const Expr *Value;
};

/// A bare expression evaluated for effect (typically a call).
class ExprStmt : public Stmt {
public:
  ExprStmt(const Expr *E, int Line) : Stmt(Kind::ExprStmt, Line), E(E) {}

  static bool classof(const Stmt *S) { return S->getKind() == Kind::ExprStmt; }

  const Expr *E;
};

/// `if (cond) { ... } else { ... }`
class IfStmt : public Stmt {
public:
  IfStmt(Condition Cond, Block Then, Block Else, int Line)
      : Stmt(Kind::If, Line), Cond(Cond), Then(Then), Else(Else) {}

  static bool classof(const Stmt *S) { return S->getKind() == Kind::If; }

  Condition Cond;
  Block Then;
  Block Else; // possibly empty
};

/// `while (cond) { ... }`
class WhileStmt : public Stmt {
public:
  WhileStmt(Condition Cond, Block Body, int Line)
      : Stmt(Kind::While, Line), Cond(Cond), Body(Body) {}

  static bool classof(const Stmt *S) { return S->getKind() == Kind::While; }

  Condition Cond;
  Block Body;
};

/// `return;` or `return expr;`
class ReturnStmt : public Stmt {
public:
  ReturnStmt(const Expr *Value, int Line)
      : Stmt(Kind::Return, Line), Value(Value) {}

  static bool classof(const Stmt *S) { return S->getKind() == Kind::Return; }

  const Expr *Value; // may be null
};

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

/// `def name(params) { body }`
struct MethodDecl {
  std::string_view Name;
  PoolArray<std::string_view> Params;
  Block Body;
  int Line = 0;
};

/// `class Name { var f; def m() {...} ... }`
struct ClassDecl {
  std::string_view Name;
  PoolArray<std::string_view> Fields;
  PoolArray<MethodDecl> Methods;
  int Line = 0;

  /// Returns the method named \p Name or null.
  const MethodDecl *findMethod(std::string_view MethodName) const {
    for (const MethodDecl &M : Methods)
      if (M.Name == MethodName)
        return &M;
    return nullptr;
  }
};

/// A parsed source file. Owns the pool every node, list and name of the
/// module lives in; the pool's slabs stay put when the Module moves, so the
/// views and pointers into it stay valid.
struct Module {
  std::string Name; // source identifier, e.g. file name
  PoolArray<ClassDecl> Classes;
  std::unique_ptr<Arena> Pool;

  /// Returns the class named \p ClassName or null.
  const ClassDecl *findClass(std::string_view ClassName) const {
    for (const ClassDecl &C : Classes)
      if (C.Name == ClassName)
        return &C;
    return nullptr;
  }
};

/// LLVM-style checked cast helpers for Expr/Stmt (no RTTI).
template <typename To, typename From> bool isa(const From *Node) {
  return To::classof(Node);
}

template <typename To, typename From> const To *cast(const From *Node) {
  assert(isa<To>(Node) && "cast to wrong node kind");
  return static_cast<const To *>(Node);
}

template <typename To, typename From> To *cast(From *Node) {
  assert(isa<To>(static_cast<const From *>(Node)) &&
         "cast to wrong node kind");
  return static_cast<To *>(Node);
}

template <typename To, typename From> const To *dyn_cast(const From *Node) {
  return isa<To>(Node) ? static_cast<const To *>(Node) : nullptr;
}

template <typename To, typename From> To *dyn_cast(From *Node) {
  return isa<To>(static_cast<const From *>(Node)) ? static_cast<To *>(Node)
                                                  : nullptr;
}

} // namespace uspec

#endif // USPEC_LANG_AST_H
