//===- IlSource.cpp - Complete IL text for in-memory programs -------------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "IlSource.h"

#include "arith/Printer.h"
#include "ir/DSL.h"
#include "support/Casting.h"

#include <map>
#include <optional>
#include <set>
#include <sstream>

using namespace lift;
using namespace lift::ir;

namespace {

std::optional<int64_t> at(const IndexFun &F, int64_t I, int64_t N) {
  return arith::asConstant(F.Fn(arith::cst(I), arith::cst(N)));
}

/// True when \p A and \p B map every probed index of a few extents alike.
bool sameMapping(const IndexFun &A, const IndexFun &B) {
  for (int64_t N : {int64_t(64), int64_t(1) << 12, int64_t(1) << 20})
    for (int64_t I = 0; I < 257 && I < N; ++I) {
      std::optional<int64_t> X = at(A, I, N), Y = at(B, I, N);
      if (!X || !Y || *X != *Y)
        return false;
    }
  return true;
}

/// First index at which the mapping of extent \p N steps backwards: the
/// wrap-around point of a stride or transpose permutation.
std::optional<int64_t> firstDescent(const IndexFun &F, int64_t N) {
  std::optional<int64_t> Prev = at(F, 0, N);
  for (int64_t I = 1; Prev && I < (int64_t(1) << 16); ++I) {
    std::optional<int64_t> Cur = at(F, I, N);
    if (!Cur)
      return std::nullopt;
    if (*Cur < *Prev)
      return I;
    Prev = Cur;
  }
  return std::nullopt;
}

/// The parser's spelling of \p F (`stride(4)`, `transpose(8, 16)`). An
/// IndexFun keeps only a name and a closure, so the arguments are
/// recovered by probing the mapping with constant indices, and checked by
/// rebuilding the function from them.
std::optional<std::string> spellIndexFun(const IndexFun &F) {
  const int64_t N = int64_t(1) << 20;
  if (F.Name == "reverse" && sameMapping(F, dsl::reverseIndex()))
    return std::string("reverse");
  if (F.Name == "stride") {
    // i -> (i % S) * (N / S) + i / S first steps back at i = S.
    std::optional<int64_t> S = firstDescent(F, N);
    if (S && sameMapping(F, dsl::strideIndex(arith::cst(*S))))
      return "stride(" + std::to_string(*S) + ")";
  }
  if (F.Name == "transpose") {
    // i -> (i % R) * C + i / R first steps back at i = R, and f(1) = C.
    std::optional<int64_t> R = firstDescent(F, N);
    std::optional<int64_t> C = at(F, 1, N);
    if (R && C &&
        sameMapping(F, dsl::transposeIndex(arith::cst(*R), arith::cst(*C))))
      return "transpose(" + std::to_string(*R) + ", " + std::to_string(*C) +
             ")";
  }
  return std::nullopt;
}

bool sameUserFun(const UserFun &A, const UserFun &B) {
  if (A.getBody() != B.getBody() || A.getParamNames() != B.getParamNames() ||
      !typeEquals(A.getReturnType(), B.getReturnType()))
    return false;
  for (size_t I = 0; I != A.getParamTypes().size(); ++I)
    if (!typeEquals(A.getParamTypes()[I], B.getParamTypes()[I]))
      return false;
  return true;
}

/// Prints a program in the notation ir::printProgram uses, with three
/// differences that make the text parse back to the same program: user
/// functions get `def` lines, index functions carry their arguments, and
/// every parameter object gets its own name (the DSL names many lambda
/// parameters alike, and the parser resolves a name to the innermost one).
class IlWriter {
public:
  std::string Err;

  std::string program(const LambdaPtr &Program) {
    OS << "fun(";
    const std::vector<ParamPtr> &Params = Program->getParams();
    for (size_t I = 0; I != Params.size(); ++I)
      OS << (I ? ", " : "") << bind(Params[I]) << ": "
         << typeToString(Params[I]->Ty);
    OS << ") =>\n";
    Indent = 1;
    indent();
    expr(Program->getBody());
    OS << "\n";
    return defs() + OS.str();
  }

  /// Literals of the printed program, in print order.
  std::vector<const Literal *> Literals;

private:
  std::ostringstream OS;
  unsigned Indent = 0;
  std::map<const Param *, std::string> Names;
  std::set<std::string> Taken;
  std::vector<const UserFun *> Funs;

  const std::string &bind(const ParamPtr &P) {
    auto [It, New] = Names.emplace(P.get(), "");
    if (New) {
      std::string Name = P->getName();
      for (unsigned K = 1; Taken.count(Name); ++K)
        Name = P->getName() + "_" + std::to_string(K);
      Taken.insert(Name);
      It->second = Name;
    }
    return It->second;
  }

  void indent() {
    for (unsigned I = 0; I != Indent; ++I)
      OS << "  ";
  }

  void expr(const ExprPtr &E) {
    if (const auto *L = dyn_cast<Literal>(E.get())) {
      Literals.push_back(L);
      OS << L->getValue();
      return;
    }
    if (const auto *P = dyn_cast<Param>(E.get())) {
      auto It = Names.find(P);
      if (It == Names.end())
        Err = "parameter '" + P->getName() + "' is used outside its lambda";
      OS << (It == Names.end() ? P->getName() : It->second);
      return;
    }
    const auto *C = cast<FunCall>(E.get());
    // A lambda applied directly is parenthesized: (λ(p) -> body)(args).
    const bool Direct = isa<Lambda>(C->getFun().get());
    OS << (Direct ? "(" : "");
    fun(C->getFun());
    OS << (Direct ? ")(" : "(");
    const std::vector<ExprPtr> &Args = C->getArgs();
    for (size_t I = 0; I != Args.size(); ++I) {
      OS << (I ? ", " : "");
      if (isa<FunCall>(Args[I].get())) {
        ++Indent;
        OS << "\n";
        indent();
        expr(Args[I]);
        --Indent;
      } else {
        expr(Args[I]);
      }
    }
    OS << ")";
  }

  void nested(const char *Name, const FunDeclPtr &F) {
    OS << Name << "(";
    fun(F);
    OS << ")";
  }

  void fun(const FunDeclPtr &F) {
    const FunDecl *D = F.get();
    switch (D->getKind()) {
    case FunKind::Lambda: {
      const auto *L = cast<Lambda>(D);
      OS << "λ(";
      for (size_t I = 0; I != L->getParams().size(); ++I)
        OS << (I ? ", " : "") << bind(L->getParams()[I]);
      OS << ") -> ";
      ++Indent;
      OS << "\n";
      indent();
      expr(L->getBody());
      --Indent;
      return;
    }
    case FunKind::UserFun:
      useUserFun(cast<UserFun>(D));
      OS << cast<UserFun>(D)->getName();
      return;
    case FunKind::Map:
    case FunKind::MapSeq:
    case FunKind::MapVec:
      return nested(funKindName(D->getKind()), cast<AbstractMap>(D)->getF());
    case FunKind::MapGlb:
    case FunKind::MapWrg:
    case FunKind::MapLcl: {
      const auto *M = cast<ParallelMap>(D);
      return nested((std::string(funKindName(D->getKind())) +
                     std::to_string(M->getDim()))
                        .c_str(),
                    M->getF());
    }
    case FunKind::ReduceSeq:
      return nested("reduceSeq", cast<ReduceSeq>(D)->getF());
    case FunKind::Id:
      OS << "id";
      return;
    case FunKind::Iterate: {
      const auto *I = cast<Iterate>(D);
      OS << "iterate(" << I->getCount() << ", ";
      fun(I->getF());
      OS << ")";
      return;
    }
    case FunKind::Split:
      OS << "split(" << arith::toString(cast<Split>(D)->getFactor()) << ")";
      return;
    case FunKind::Join:
      OS << "join";
      return;
    case FunKind::Gather:
      OS << "gather(" << indexFun(cast<Gather>(D)->getIndexFun()) << ")";
      return;
    case FunKind::Scatter:
      OS << "scatter(" << indexFun(cast<Scatter>(D)->getIndexFun()) << ")";
      return;
    case FunKind::Zip:
      OS << (cast<Zip>(D)->arity() == 3 ? "zip3" : "zip");
      return;
    case FunKind::Unzip:
      OS << "unzip";
      return;
    case FunKind::Get:
      OS << "get(" << cast<Get>(D)->getIndex() << ")";
      return;
    case FunKind::Slide: {
      const auto *S = cast<Slide>(D);
      OS << "slide(" << arith::toString(S->getSize()) << ", "
         << arith::toString(S->getStep()) << ")";
      return;
    }
    case FunKind::Transpose:
      OS << "transpose";
      return;
    case FunKind::GatherIndices:
      OS << "gatherIndices";
      return;
    case FunKind::AsVector:
      OS << "asVector(" << cast<AsVector>(D)->getWidth() << ")";
      return;
    case FunKind::AsScalar:
      OS << "asScalar";
      return;
    case FunKind::ToGlobal:
    case FunKind::ToLocal:
    case FunKind::ToPrivate:
      return nested(funKindName(D->getKind()),
                    cast<AddressSpaceWrapper>(D)->getF());
    }
  }

  std::string indexFun(const IndexFun &F) {
    std::optional<std::string> S = spellIndexFun(F);
    if (!S)
      Err = "cannot recover the arguments of index function '" + F.Name + "'";
    return S ? *S : F.Name;
  }

  void useUserFun(const UserFun *U) {
    for (const UserFun *E : Funs)
      if (E->getName() == U->getName()) {
        if (E != U && !sameUserFun(*E, *U))
          Err = "two different user functions are both named '" +
                U->getName() + "'";
        return;
      }
    if (U->getBody().find('"') != std::string::npos)
      Err = "user function '" + U->getName() +
            "' has a double quote in its body, which IL strings cannot hold";
    Funs.push_back(U);
  }

  std::string defs() const {
    std::string Out;
    for (const UserFun *U : Funs) {
      Out += "def " + U->getName() + "(";
      for (size_t I = 0; I != U->getParamNames().size(); ++I)
        Out += (I ? ", " : "") + U->getParamNames()[I] + ": " +
               typeToString(U->getParamTypes()[I]);
      Out += "): " + typeToString(U->getReturnType()) + " = \"" +
             U->getBody() + "\"\n";
    }
    return Out + (Out.empty() ? "" : "\n");
  }
};

} // namespace

bool perfbench::completeIlSource(const LambdaPtr &Program, std::string &Out,
                                 std::string &Err) {
  IlWriter W;
  Out = W.program(Program);
  Err = W.Err;
  return Err.empty();
}

std::string perfbench::unspellableLiteral(const LambdaPtr &Program) {
  IlWriter W;
  W.program(Program);
  for (const Literal *L : W.Literals)
    if (L->getValue().find_first_not_of("0123456789.eE+-f") !=
        std::string::npos)
      return L->getValue();
  return "";
}
