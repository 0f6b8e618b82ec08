//===- Printer.cpp - MiniLang pretty printer --------------------------------===//
//
// Part of the USpec reproduction (PLDI 2019). MIT license.
//
//===----------------------------------------------------------------------===//

#include "lang/Printer.h"

#include <sstream>

using namespace uspec;

namespace {

/// Escapes a string literal body for re-lexing.
std::string escapeString(std::string_view Value) {
  std::string Out;
  for (char C : Value) {
    switch (C) {
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    default:
      Out += C;
      break;
    }
  }
  return Out;
}

class PrinterImpl {
public:
  void printModuleNode(const Module &M) {
    for (const ClassDecl &Class : M.Classes)
      printClass(Class);
  }

  void printExprNode(const Expr &E) {
    switch (E.getKind()) {
    case Expr::Kind::New: {
      const auto &New = *cast<NewExpr>(&E);
      Out << "new " << New.ClassName << "(";
      printArgs(New.Args);
      Out << ")";
      return;
    }
    case Expr::Kind::StringLit:
      Out << '"' << escapeString(cast<StringLitExpr>(&E)->Value) << '"';
      return;
    case Expr::Kind::IntLit:
      Out << cast<IntLitExpr>(&E)->Value;
      return;
    case Expr::Kind::Null:
      Out << "null";
      return;
    case Expr::Kind::This:
      Out << "this";
      return;
    case Expr::Kind::VarRef:
      Out << cast<VarRefExpr>(&E)->Name;
      return;
    case Expr::Kind::FieldRead: {
      const auto &Read = *cast<FieldReadExpr>(&E);
      printExprNode(*Read.Base);
      Out << "." << Read.Field;
      return;
    }
    case Expr::Kind::Call: {
      const auto &Call = *cast<CallExpr>(&E);
      if (Call.Receiver) {
        printExprNode(*Call.Receiver);
        Out << ".";
      }
      Out << Call.Method << "(";
      printArgs(Call.Args);
      Out << ")";
      return;
    }
    }
  }

  void printStmtNode(const Stmt &S, int Indent) {
    pad(Indent);
    switch (S.getKind()) {
    case Stmt::Kind::VarDecl: {
      const auto &Decl = *cast<VarDeclStmt>(&S);
      Out << "var " << Decl.Name;
      if (Decl.Init) {
        Out << " = ";
        printExprNode(*Decl.Init);
      }
      Out << ";\n";
      return;
    }
    case Stmt::Kind::Assign: {
      const auto &Assign = *cast<AssignStmt>(&S);
      printExprNode(*Assign.Target);
      Out << " = ";
      printExprNode(*Assign.Value);
      Out << ";\n";
      return;
    }
    case Stmt::Kind::ExprStmt:
      printExprNode(*cast<ExprStmt>(&S)->E);
      Out << ";\n";
      return;
    case Stmt::Kind::If: {
      const auto &If = *cast<IfStmt>(&S);
      Out << "if (";
      printCondition(If.Cond);
      Out << ") {\n";
      for (const Stmt *Inner : If.Then)
        printStmtNode(*Inner, Indent + 1);
      pad(Indent);
      Out << "}";
      if (!If.Else.empty()) {
        Out << " else {\n";
        for (const Stmt *Inner : If.Else)
          printStmtNode(*Inner, Indent + 1);
        pad(Indent);
        Out << "}";
      }
      Out << "\n";
      return;
    }
    case Stmt::Kind::While: {
      const auto &While = *cast<WhileStmt>(&S);
      Out << "while (";
      printCondition(While.Cond);
      Out << ") {\n";
      for (const Stmt *Inner : While.Body)
        printStmtNode(*Inner, Indent + 1);
      pad(Indent);
      Out << "}\n";
      return;
    }
    case Stmt::Kind::Return: {
      const auto &Ret = *cast<ReturnStmt>(&S);
      Out << "return";
      if (Ret.Value) {
        Out << " ";
        printExprNode(*Ret.Value);
      }
      Out << ";\n";
      return;
    }
    }
  }

  std::string take() { return Out.str(); }

private:
  void pad(int Indent) {
    for (int I = 0; I < Indent; ++I)
      Out << "  ";
  }

  void printArgs(const ExprList &Args) {
    for (size_t I = 0; I < Args.size(); ++I) {
      if (I)
        Out << ", ";
      printExprNode(*Args[I]);
    }
  }

  void printCondition(const Condition &Cond) {
    printExprNode(*Cond.Lhs);
    switch (Cond.Op) {
    case CmpOp::None:
      return;
    case CmpOp::Eq:
      Out << " == ";
      break;
    case CmpOp::Ne:
      Out << " != ";
      break;
    case CmpOp::Lt:
      Out << " < ";
      break;
    case CmpOp::Gt:
      Out << " > ";
      break;
    }
    printExprNode(*Cond.Rhs);
  }

  void printClass(const ClassDecl &Class) {
    Out << "class " << Class.Name << " {\n";
    for (std::string_view Field : Class.Fields)
      Out << "  var " << Field << ";\n";
    for (const MethodDecl &Method : Class.Methods) {
      Out << "  def " << Method.Name << "(";
      for (size_t I = 0; I < Method.Params.size(); ++I) {
        if (I)
          Out << ", ";
        Out << Method.Params[I];
      }
      Out << ") {\n";
      for (const Stmt *S : Method.Body)
        printStmtNode(*S, 2);
      Out << "  }\n";
    }
    Out << "}\n";
  }

  std::ostringstream Out;
};

} // namespace

std::string uspec::printModule(const Module &M) {
  PrinterImpl Printer;
  Printer.printModuleNode(M);
  return Printer.take();
}

std::string uspec::printExpr(const Expr &E) {
  PrinterImpl Printer;
  Printer.printExprNode(E);
  return Printer.take();
}

std::string uspec::printStmt(const Stmt &S, int Indent) {
  PrinterImpl Printer;
  Printer.printStmtNode(S, Indent);
  return Printer.take();
}
