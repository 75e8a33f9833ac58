//===- NativePrinter.cpp - C++/OpenMP source emission ---------------------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// The native lowering mirrors the simulated runtime's value model exactly:
//
//  * every float computation happens on IEEE doubles (Value::Flt is a
//    double, float literals are stored as doubles, casts to float do not
//    narrow) — so the generated source spells every float type `double`
//    and every float literal with max_digits10 precision;
//  * every integer computation happens on wrapping int64 (Value::Int) —
//    add/sub/mul/neg go through explicit uint64 helpers, `/` and `%`
//    report division by zero through the launch control word with the
//    same E0504 the interpreter raises, and -1 divisors take the wrapped
//    special case;
//  * boolean contexts truncate floats (`asBool` is `asInt() != 0`), which
//    `lift_asbool` reproduces;
//  * vectors are structs of doubles with elementwise operators, including
//    the interpreter's elementwise comparisons that produce 0.0/1.0.
//
// Work-group parallelism: the group loop is one OpenMP `parallel for`.
// Inside a group, the kernel body is split into maximal barrier-free runs
// (exactly the partition the lockstep interpreter executes between
// barriers) and each run becomes a sequential loop over the group's
// work-items. Group-level control flow that contains barriers keeps a
// single loop/branch header, which therefore must be provably uniform
// across the group — the static counterpart of the interpreter's dynamic
// divergence check. Local-memory arrays are allocated once per group (the
// interpreter's once-per-group-epoch zeroing); private variables that are
// live across a barrier are spilled to per-item arrays indexed by the
// work-item id.
//
// Anything outside this subset throws E0607 (NativeUnsupported); the
// launch boundary reports it and callers fall back to the simulator.
//
//===----------------------------------------------------------------------===//

#include "native/NativePrinter.h"

#include "arith/Printer.h"
#include "cast/CPrinter.h"
#include "support/Diagnostics.h"

#include <array>
#include <cassert>
#include <cctype>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace lift;
using namespace lift::c;
using namespace lift::native;

const char *const lift::native::kEntryName = "lift_native_entry";

namespace {

//===----------------------------------------------------------------------===//
// Fixed runtime preamble
//===----------------------------------------------------------------------===//

const char *const kPreambleHead =
    R"cpp(// Generated by the lift native C++/OpenMP backend. Do not edit.
#include <cmath>
#include <cstdint>

namespace {

using i64 = int64_t;
)cpp";

// Exact mode: the simulator's widened value model, bit for bit.
const char *const kExactTypes = R"cpp(using lift_f = double;
using lift_i = int64_t;
)cpp";

// Fast mode: natively-typed scalars. Index computation and the runtime
// checks below stay in the i64 domain regardless.
const char *const kFastTypes = R"cpp(using lift_f = float;
using lift_i = int32_t;
)cpp";

const char *const kPreamble = R"cpp(
template <int W> struct lvec {
  lift_f s[W];
};

template <int W> inline lvec<W> lift_splat(lift_f X) {
  lvec<W> R;
  for (int I = 0; I < W; ++I)
    R.s[I] = X;
  return R;
}

#define LIFT_VEC_ARITH(op)                                                     \
  template <int W> inline lvec<W> operator op(lvec<W> A, lvec<W> B) {          \
    lvec<W> R;                                                                 \
    for (int I = 0; I < W; ++I)                                                \
      R.s[I] = A.s[I] op B.s[I];                                               \
    return R;                                                                  \
  }                                                                            \
  template <int W> inline lvec<W> operator op(lvec<W> A, lift_f B) {           \
    lvec<W> R;                                                                 \
    for (int I = 0; I < W; ++I)                                                \
      R.s[I] = A.s[I] op B;                                                    \
    return R;                                                                  \
  }                                                                            \
  template <int W> inline lvec<W> operator op(lift_f A, lvec<W> B) {           \
    lvec<W> R;                                                                 \
    for (int I = 0; I < W; ++I)                                                \
      R.s[I] = A op B.s[I];                                                    \
    return R;                                                                  \
  }
LIFT_VEC_ARITH(+)
LIFT_VEC_ARITH(-)
LIFT_VEC_ARITH(*)
LIFT_VEC_ARITH(/)
#undef LIFT_VEC_ARITH

// The interpreter's elementwise comparisons yield 0.0/1.0 components.
#define LIFT_VEC_CMP(name, op)                                                 \
  template <int W> inline lvec<W> name(lvec<W> A, lvec<W> B) {                 \
    lvec<W> R;                                                                 \
    for (int I = 0; I < W; ++I)                                                \
      R.s[I] = (lift_f)(A.s[I] op B.s[I]);                                     \
    return R;                                                                  \
  }                                                                            \
  template <int W> inline lvec<W> name(lvec<W> A, lift_f B) {                  \
    return name(A, lift_splat<W>(B));                                          \
  }                                                                            \
  template <int W> inline lvec<W> name(lift_f A, lvec<W> B) {                  \
    return name(lift_splat<W>(A), B);                                          \
  }
LIFT_VEC_CMP(lift_vlt, <)
LIFT_VEC_CMP(lift_vle, <=)
LIFT_VEC_CMP(lift_vgt, >)
LIFT_VEC_CMP(lift_vge, >=)
LIFT_VEC_CMP(lift_veq, ==)
LIFT_VEC_CMP(lift_vne, !=)
#undef LIFT_VEC_CMP

template <int W> inline lvec<W> operator-(lvec<W> A) {
  lvec<W> R;
  for (int I = 0; I < W; ++I)
    R.s[I] = -A.s[I];
  return R;
}

template <int W, class F> inline lvec<W> lift_vmap(lvec<W> A, F Fn) {
  for (int I = 0; I < W; ++I)
    A.s[I] = Fn(A.s[I]);
  return A;
}

template <int W> inline lift_f lift_dot(lvec<W> A, lvec<W> B) {
  lift_f S = 0;
  for (int I = 0; I < W; ++I)
    S += A.s[I] * B.s[I];
  return S;
}

// Wrapping int64 arithmetic, matching the interpreter's wrapAdd family.
inline i64 lift_add(i64 A, i64 B) { return (i64)((uint64_t)A + (uint64_t)B); }
inline i64 lift_sub(i64 A, i64 B) { return (i64)((uint64_t)A - (uint64_t)B); }
inline i64 lift_mul(i64 A, i64 B) { return (i64)((uint64_t)A * (uint64_t)B); }
inline i64 lift_neg(i64 A) { return (i64)(0 - (uint64_t)A); }

// Reports a runtime error through the control block and cancels the
// launch: Ctl[1] is the error code (first error wins), Ctl[2..3]/[4..5]
// carry two int64 details (an index and an extent) split into 32-bit
// words, Ctl[0] is the cancel flag every group polls. The host formats
// the matching simulator diagnostic from the code and details.
inline void lift_fail(int32_t Code, i64 A, i64 B, int32_t *Ctl) {
  int32_t Expected = 0;
  if (__atomic_compare_exchange_n(&Ctl[1], &Expected, Code, false,
                                  __ATOMIC_RELAXED, __ATOMIC_RELAXED)) {
    __atomic_store_n(&Ctl[2], (int32_t)(uint32_t)(uint64_t)A,
                     __ATOMIC_RELAXED);
    __atomic_store_n(&Ctl[3], (int32_t)(uint32_t)((uint64_t)A >> 32),
                     __ATOMIC_RELAXED);
    __atomic_store_n(&Ctl[4], (int32_t)(uint32_t)(uint64_t)B,
                     __ATOMIC_RELAXED);
    __atomic_store_n(&Ctl[5], (int32_t)(uint32_t)((uint64_t)B >> 32),
                     __ATOMIC_RELAXED);
  }
  __atomic_store_n(&Ctl[0], 1, __ATOMIC_RELAXED);
}

// Division by zero sets the error word (the interpreter's E0504) and
// cancels the launch; INT64_MIN / -1 takes the wrapped special case.
inline i64 lift_div(i64 A, i64 B, int32_t *Ctl) {
  if (B == 0) {
    lift_fail(504, 0, 0, Ctl);
    return 0;
  }
  if (B == -1)
    return lift_neg(A);
  return A / B;
}

inline i64 lift_rem(i64 A, i64 B, int32_t *Ctl) {
  if (B == 0) {
    lift_fail(504, 0, 0, Ctl);
    return 0;
  }
  if (B == -1)
    return 0;
  return A % B;
}

// Bounds check for array accesses whose index is data-dependent (it
// contains a Lookup): the interpreter's load/store out-of-bounds errors
// (E0503). Codes 5031 (load) and 5032 (store); returns a safe index of 0
// after reporting, the launch is cancelled anyway.
inline i64 lift_chk(i64 I, i64 N, int32_t Code, int32_t *Ctl) {
  if (I < 0 || I >= N) {
    lift_fail(Code, I, N, Ctl);
    return 0;
  }
  return I;
}

// Data-dependent table lookup (the interpreter's LookupValue). An index
// outside [0, N) sets the error word (the interpreter's E0502) and
// cancels the launch; float tables truncate toward zero like asInt.
inline i64 lift_lookup(const lift_i *T, i64 N, i64 I, int32_t *Ctl) {
  if (I < 0 || I >= N) {
    lift_fail(502, I, N, Ctl);
    return 0;
  }
  return (i64)T[I];
}

inline i64 lift_lookup(const lift_f *T, i64 N, i64 I, int32_t *Ctl) {
  if (I < 0 || I >= N) {
    lift_fail(502, I, N, Ctl);
    return 0;
  }
  return (i64)T[I];
}

// Value::asBool truncates floats to int64 first (for an integer operand
// the i64 round-trip is the identity).
template <class T> inline i64 lift_asbool(T X) { return (i64)X != 0; }
template <class T> inline i64 lift_not(T X) { return (i64)X == 0; }

// Logical ops evaluate both operands (the interpreter evaluates both
// sides before combining) and compare each against zero in its own
// domain — no truncation of float operands, matching applyBinary.
template <class A, class B> inline i64 lift_and(A X, B Y) {
  return (i64)((X != 0) && (Y != 0));
}
template <class A, class B> inline i64 lift_or(A X, B Y) {
  return (i64)((X != 0) || (Y != 0));
}

inline lift_f lift_rsqrt(lift_f X) { return lift_f(1) / std::sqrt(X); }

// Heap storage for local-memory arrays and barrier-crossing private
// spills; value-initialized, i.e. zero-filled like freshly allocated
// simulator memory.
template <class T> struct lift_buf {
  T *p;
  explicit lift_buf(i64 N) : p(new T[N]()) {}
  ~lift_buf() { delete[] p; }
  lift_buf(const lift_buf &) = delete;
  lift_buf &operator=(const lift_buf &) = delete;
  T &operator[](i64 I) const { return p[I]; }
  operator T *() const { return p; }
};

template <int W> inline lvec<W> lift_vload(i64 I, const lift_f *P) {
  lvec<W> R;
  for (int K = 0; K < W; ++K)
    R.s[K] = P[I * W + K];
  return R;
}

template <int W> inline i64 lift_vstore(lvec<W> V, i64 I, lift_f *P) {
  for (int K = 0; K < W; ++K)
    P[I * W + K] = V.s[K];
  return 0;
}

// Data-dependent vector accesses: the interpreter checks every component
// offset Idx*W+K against the buffer's component count and raises its
// detail-free "vload/vstore out of bounds" error (E0503). Codes 5033
// (vload) and 5034 (vstore); the access is skipped after reporting, the
// launch is cancelled anyway.
// The component offsets are computed in uint64, exactly the size_t
// arithmetic the interpreter uses — a negative or huge index wraps to an
// out-of-range offset there too.
template <int W> inline bool lift_voob(i64 I, i64 N) {
  for (int K = 0; K < W; ++K)
    if ((uint64_t)I * (uint64_t)W + (uint64_t)K >= (uint64_t)N)
      return true;
  return false;
}

template <int W>
inline lvec<W> lift_vload_chk(i64 I, const lift_f *P, i64 N, int32_t *Ctl) {
  if (lift_voob<W>(I, N)) {
    lift_fail(5033, 0, 0, Ctl);
    return lift_splat<W>(0);
  }
  return lift_vload<W>(I, P);
}

template <int W>
inline i64 lift_vstore_chk(lvec<W> V, i64 I, lift_f *P, i64 N,
                           int32_t *Ctl) {
  if (lift_voob<W>(I, N)) {
    lift_fail(5034, 0, 0, Ctl);
    return 0;
  }
  return lift_vstore<W>(V, I, P);
}

} // namespace
)cpp";

//===----------------------------------------------------------------------===//
// The printer
//===----------------------------------------------------------------------===//

bool isFloatKind(CScalarKind K) {
  return K == CScalarKind::Float || K == CScalarKind::Double;
}

class NativePrinter {
public:
  NativePrinter(const codegen::CompiledKernel &K,
                const std::array<int64_t, 3> &Global,
                const std::array<int64_t, 3> &Local, NativeMode Mode)
      : K(K), Global(Global), Local(Local), Mode(Mode) {}

  std::string print();

private:
  const codegen::CompiledKernel &K;
  std::array<int64_t, 3> Global, Local;
  NativeMode Mode = NativeMode::Exact;

  std::ostringstream Out;
  std::string Indent;

  /// Static type of every variable in scope, lowered: float kinds become
  /// double, int kinds int64, arrays and pointer params are Pointer types.
  std::unordered_map<const CVar *, CTypePtr> VarTy;
  /// Private scalars live across a run boundary: stored as name[lift_li].
  std::unordered_set<const CVar *> HoistScalars;
  /// Private arrays live across a run boundary: per-item strides into one
  /// group-level lift_buf. Value is the printed per-item element count.
  std::unordered_map<const CVar *, std::string> HoistArrays;
  /// ArithId -> the C variable carrying its runtime value.
  std::unordered_map<unsigned, const CVar *> ArithVars;
  /// Variables whose value is uniform across a work-group (kernel params,
  /// group-level loop IVs) — legal in group-level control headers.
  std::unordered_set<const CVar *> GroupUniform;
  /// Variables assigned anywhere in the kernel body (directly or through
  /// a struct member) — never eligible for the uniform-decl hoist.
  std::unordered_set<const CVar *> AssignedVars;
  /// Group-level scalar declarations hoisted to group scope because their
  /// initializer is group-uniform and the variable is never reassigned
  /// (the `int wg_id = get_group_id(0)` idiom).
  std::unordered_set<const CVar *> UniformDecls;
  /// User functions currently being analyzed (recursion guard).
  std::unordered_set<const CFunction *> FnInProgress;
  /// One monomorphic specialization of a user function. The simulator
  /// binds arguments to parameter slots dynamically — the declared
  /// parameter types never convert anything — so the native backend
  /// specializes each function per call-site argument classes instead of
  /// trusting the declaration (an integer-valued scalar program
  /// parameter flowing into a `float` parameter must stay an integer
  /// inside the body, or integer division would turn into float
  /// division).
  struct FnSpec {
    std::string Symbol;             ///< Emitted C++ function name.
    CTypePtr Ret;                   ///< Null when it never returns.
    std::vector<CTypePtr> ParamTys; ///< The call site's argument classes.
  };
  /// Function -> (argument-class signature -> specialization).
  std::unordered_map<const CFunction *, std::map<std::string, FnSpec>>
      FnSpecs;
  /// Emitted specialization bodies, in define-before-use order.
  std::vector<std::string> SpecTexts;
  int SpecCounter = 0;
  /// Fallback slot numbers for variables computeVarSlots did not reach.
  std::unordered_map<const CVar *, int> ExtraSlots;
  /// Lookup TableId -> (buffer-parameter variable, declared element
  /// count). Built from K.StorageVars restricted to kernel parameters:
  /// data-dependent Lookup indices read these tables at runtime.
  std::unordered_map<unsigned, std::pair<const CVar *, arith::Expr>>
      LookupTables;
  /// Buffer parameter -> declared element count, for bounds-checking
  /// array accesses whose index is data-dependent (contains a Lookup).
  std::unordered_map<const CVar *, arith::Expr> BufferCount;

  bool InKernel = false;

  //===------------------------------------------------------------------===//
  // Diagnostics
  //===------------------------------------------------------------------===//

  [[noreturn]] void unsupported(const std::string &What) const {
    throwDiag(DiagCode::NativeUnsupported,
              DiagLocation::inContext(K.Options.KernelName),
              "native backend: " + What,
              {"the simulated runtime executes this program; see "
               "docs/NATIVE_BACKEND.md for the native subset"});
  }

  //===------------------------------------------------------------------===//
  // Names and types
  //===------------------------------------------------------------------===//

  static std::string sanitize(const std::string &Name) {
    std::string R;
    for (char C : Name)
      R += (std::isalnum(static_cast<unsigned char>(C)) || C == '_') ? C : '_';
    if (R.empty() || std::isdigit(static_cast<unsigned char>(R[0])))
      R.insert(R.begin(), 'v');
    return R;
  }

  std::string varName(const CVar *V) {
    int Slot = V->Slot;
    if (Slot < 0) {
      auto It = ExtraSlots.find(V);
      if (It == ExtraSlots.end())
        It = ExtraSlots.emplace(V, 100000 + (int)ExtraSlots.size()).first;
      Slot = It->second;
    }
    return sanitize(V->Name) + "_" + std::to_string(Slot);
  }

  /// Lowered spelling of a type; doubles as the structural-equality key.
  /// Scalars spell as the lift_f/lift_i typedefs so one translation-unit
  /// header line selects the numeric model (double/int64 in exact mode,
  /// float/int32 in fast mode) without splitting the type classes.
  std::string typeName(const CTypePtr &T) const {
    if (!T)
      unsupported("value of unknown type");
    switch (T->getKind()) {
    case CTypeKind::Void:
      return "void";
    case CTypeKind::Scalar:
      return isFloatKind(static_cast<const ScalarCType &>(*T).getScalarKind())
                 ? "lift_f"
                 : "lift_i";
    case CTypeKind::Vector:
      return "lvec<" +
             std::to_string(static_cast<const VectorCType &>(*T).getWidth()) +
             ">";
    case CTypeKind::Struct:
      return "ls_" + sanitize(static_cast<const StructCType &>(*T).getName());
    case CTypeKind::Pointer:
      return typeName(static_cast<const PointerCType &>(*T).getPointee()) +
             " *";
    }
    unsupported("value of unknown type");
  }

  bool sameClass(const CTypePtr &A, const CTypePtr &B) const {
    return typeName(A) == typeName(B);
  }

  static bool isIntClass(const CTypePtr &T) {
    if (auto *S = T && T->getKind() == CTypeKind::Scalar
                      ? static_cast<const ScalarCType *>(T.get())
                      : nullptr)
      return !isFloatKind(S->getScalarKind());
    return false;
  }

  static bool isFloatClass(const CTypePtr &T) {
    if (auto *S = T && T->getKind() == CTypeKind::Scalar
                      ? static_cast<const ScalarCType *>(T.get())
                      : nullptr)
      return isFloatKind(S->getScalarKind());
    return false;
  }

  static unsigned vecWidth(const CTypePtr &T) {
    if (T && T->getKind() == CTypeKind::Vector)
      return static_cast<const VectorCType &>(*T).getWidth();
    return 0;
  }

  static bool isScalarClass(const CTypePtr &T) {
    return isIntClass(T) || isFloatClass(T);
  }

  /// Zero value of a lowered type (what the simulator's zero-filled
  /// memory reads back as).
  std::string zeroOf(const CTypePtr &T) const {
    if (isIntClass(T))
      return "0";
    if (isFloatClass(T))
      return "0.0";
    if (unsigned W = vecWidth(T))
      return "lift_splat<" + std::to_string(W) + ">(0.0)";
    if (T && T->getKind() == CTypeKind::Struct)
      return typeName(T) + "{}";
    unsupported("zero value of type " + cTypeToString(T));
  }

  //===------------------------------------------------------------------===//
  // Static typing
  //===------------------------------------------------------------------===//

  CTypePtr varTypeOf(const CVar *V) const {
    auto It = VarTy.find(V);
    if (It != VarTy.end())
      return It->second;
    // Not yet declared in native scope: lower the declared type. (The
    // interpreter would report an uninitialized read; the C++ compiler
    // rejects the reference, surfacing as a compile failure.)
    return V->Ty;
  }

  CTypePtr structFieldType(const CTypePtr &BaseTy,
                           const std::string &Field) const {
    const auto &S = static_cast<const StructCType &>(*BaseTy);
    // The interpreter resolves tuple fields by the _N spelling only.
    if (Field.size() < 2 || Field[0] != '_')
      unsupported("struct field '" + Field + "' (only _N tuple fields)");
    int Idx = 0;
    for (size_t I = 1; I < Field.size(); ++I) {
      if (!std::isdigit(static_cast<unsigned char>(Field[I])))
        unsupported("struct field '" + Field + "' (only _N tuple fields)");
      Idx = Idx * 10 + (Field[I] - '0');
    }
    if (Idx < 0 || static_cast<size_t>(Idx) >= S.getFields().size())
      unsupported("struct field '" + Field + "' out of range for " +
                  S.getName());
    return S.getFields()[static_cast<size_t>(Idx)].second;
  }

  int structFieldIndex(const std::string &Field) const {
    int Idx = 0;
    for (size_t I = 1; I < Field.size(); ++I)
      Idx = Idx * 10 + (Field[I] - '0');
    return Idx;
  }

  /// Vector component index for x/y/z/w/sN, range-checked against the
  /// width (the interpreter leaves xyzw unchecked; out-of-range reads are
  /// undefined there too, so the native subset rejects them).
  unsigned vectorComponent(const std::string &Field, unsigned Width) const {
    unsigned Idx = ~0u;
    if (Field == "x")
      Idx = 0;
    else if (Field == "y")
      Idx = 1;
    else if (Field == "z")
      Idx = 2;
    else if (Field == "w")
      Idx = 3;
    else if (Field.size() >= 2 && Field[0] == 's') {
      Idx = 0;
      for (size_t I = 1; I < Field.size(); ++I) {
        if (!std::isdigit(static_cast<unsigned char>(Field[I])))
          unsupported("vector component '" + Field + "'");
        Idx = Idx * 10 + static_cast<unsigned>(Field[I] - '0');
      }
    } else {
      unsupported("vector component '" + Field + "'");
    }
    if (Idx >= Width)
      unsupported("vector component '" + Field + "' out of range for width " +
                  std::to_string(Width));
    return Idx;
  }

  CTypePtr typeOf(const CExprPtr &E) {
    switch (E->getKind()) {
    case CExprKind::IntLit:
      return intTy();
    case CExprKind::FloatLit:
      return doubleTy();
    case CExprKind::VarRef:
      return varTypeOf(static_cast<const VarRef &>(*E).getVar().get());
    case CExprKind::ArithValue:
      return intTy();
    case CExprKind::ArrayAccess: {
      CTypePtr BaseTy = typeOf(static_cast<const ArrayAccess &>(*E).getBase());
      if (!BaseTy || BaseTy->getKind() != CTypeKind::Pointer)
        unsupported("array access on a non-pointer value");
      return static_cast<const PointerCType &>(*BaseTy).getPointee();
    }
    case CExprKind::Member: {
      const auto &M = static_cast<const Member &>(*E);
      CTypePtr BaseTy = typeOf(M.getBase());
      if (BaseTy && BaseTy->getKind() == CTypeKind::Struct)
        return structFieldType(BaseTy, M.getField());
      if (unsigned W = vecWidth(BaseTy)) {
        vectorComponent(M.getField(), W);
        return doubleTy();
      }
      unsupported("member access on a non-struct, non-vector value");
    }
    case CExprKind::Binary:
      return binaryType(static_cast<const Binary &>(*E));
    case CExprKind::Unary: {
      const auto &U = static_cast<const Unary &>(*E);
      if (U.getOp() == UnOp::Not) {
        CTypePtr T = typeOf(U.getSub());
        if (!isScalarClass(T))
          unsupported("logical not of a non-scalar value");
        return intTy();
      }
      CTypePtr T = typeOf(U.getSub());
      if (isIntClass(T))
        return intTy();
      if (isFloatClass(T))
        return doubleTy();
      if (vecWidth(T))
        return T;
      unsupported("negation of a non-numeric value");
    }
    case CExprKind::Call:
      return callType(static_cast<const Call &>(*E));
    case CExprKind::Ternary: {
      const auto &T = static_cast<const Ternary &>(*E);
      CTypePtr CondTy = typeOf(T.getCond());
      if (!isScalarClass(CondTy))
        unsupported("ternary condition of non-scalar type");
      CTypePtr A = typeOf(T.getThen()), B = typeOf(T.getElse());
      if (!sameClass(A, B))
        unsupported("ternary branches of different lowered types (" +
                    typeName(A) + " vs " + typeName(B) + ")");
      return A;
    }
    case CExprKind::CastExpr: {
      const auto &C = static_cast<const CastExpr &>(*E);
      CTypePtr SubTy = typeOf(C.getSub());
      const CTypePtr &Target = C.getType();
      if (Target && Target->getKind() == CTypeKind::Scalar) {
        if (!isScalarClass(SubTy))
          unsupported("scalar cast of a non-scalar value");
        return isFloatClass(Target) ? doubleTy() : intTy();
      }
      // Non-scalar casts are value-preserving in the interpreter (no
      // layout reinterpretation), so the lowered types must agree.
      if (!sameClass(SubTy, Target))
        unsupported("cast between distinct lowered types (" +
                    typeName(SubTy) + " to " + typeName(Target) + ")");
      return SubTy;
    }
    case CExprKind::ConstructVector: {
      const auto &CV = static_cast<const ConstructVector &>(*E);
      unsigned W = vecWidth(CV.getType());
      if (!W)
        unsupported("vector construction with a non-vector type");
      if (CV.getArgs().size() != 1 && CV.getArgs().size() != W)
        unsupported("vector construction arity mismatch");
      for (const CExprPtr &A : CV.getArgs())
        if (!isScalarClass(typeOf(A)))
          unsupported("vector construction from a non-scalar component");
      return vectorTy(CScalarKind::Double, W);
    }
    case CExprKind::ConstructStruct: {
      const auto &CS = static_cast<const ConstructStruct &>(*E);
      const CTypePtr &Ty = CS.getType();
      if (!Ty || Ty->getKind() != CTypeKind::Struct)
        unsupported("struct construction with a non-struct type");
      const auto &Fields = static_cast<const StructCType &>(*Ty).getFields();
      if (CS.getArgs().size() != Fields.size())
        unsupported("struct construction arity mismatch");
      for (size_t I = 0; I != Fields.size(); ++I)
        if (!sameClass(typeOf(CS.getArgs()[I]), Fields[I].second))
          unsupported("struct field initializer of mismatched lowered type");
      return Ty;
    }
    case CExprKind::VectorLoad: {
      const auto &VL = static_cast<const VectorLoad &>(*E);
      requireFloatPointer(typeOf(VL.getPointer()), "vload");
      return vectorTy(CScalarKind::Double, VL.getWidth());
    }
    case CExprKind::VectorStore: {
      const auto &VS = static_cast<const VectorStore &>(*E);
      requireFloatPointer(typeOf(VS.getPointer()), "vstore");
      if (vecWidth(typeOf(VS.getValue())) != VS.getWidth())
        unsupported("vstore of a non-vector or mismatched-width value");
      return intTy();
    }
    }
    unsupported("expression of unknown kind");
  }

  void requireFloatPointer(const CTypePtr &T, const char *What) const {
    if (!T || T->getKind() != CTypeKind::Pointer ||
        !isFloatClass(static_cast<const PointerCType &>(*T).getPointee()))
      unsupported(std::string(What) +
                  " through a non-float pointer (scalar float buffers only)");
  }

  CTypePtr binaryType(const Binary &B) {
    CTypePtr L = typeOf(B.getLhs()), R = typeOf(B.getRhs());
    unsigned WL = vecWidth(L), WR = vecWidth(R);
    const bool AnyVec = WL || WR;
    if (AnyVec && WL && WR && WL != WR)
      unsupported("binary operation on vectors of different widths");
    switch (B.getOp()) {
    case BinOp::Add:
    case BinOp::Sub:
    case BinOp::Mul:
    case BinOp::Div:
      if (AnyVec) {
        if ((WL && !WR && !isScalarClass(R)) ||
            (WR && !WL && !isScalarClass(L)))
          unsupported("vector arithmetic with a non-scalar operand");
        return vectorTy(CScalarKind::Double, WL ? WL : WR);
      }
      if (!isScalarClass(L) || !isScalarClass(R))
        unsupported("arithmetic on non-numeric values");
      return (isIntClass(L) && isIntClass(R)) ? intTy() : doubleTy();
    case BinOp::Rem:
      if (!isIntClass(L) || !isIntClass(R))
        unsupported("remainder of non-integer operands (the simulator "
                    "rejects float %% too, E0505)");
      return intTy();
    case BinOp::Lt:
    case BinOp::Le:
    case BinOp::Gt:
    case BinOp::Ge:
    case BinOp::Eq:
    case BinOp::Ne:
      if (AnyVec) {
        if ((WL && !WR && !isScalarClass(R)) ||
            (WR && !WL && !isScalarClass(L)))
          unsupported("vector comparison with a non-scalar operand");
        return vectorTy(CScalarKind::Double, WL ? WL : WR);
      }
      if (!isScalarClass(L) || !isScalarClass(R))
        unsupported("comparison of non-scalar values");
      return intTy();
    case BinOp::And:
    case BinOp::Or:
      if (AnyVec || !isScalarClass(L) || !isScalarClass(R))
        unsupported("logical operation on non-scalar operands");
      return intTy();
    }
    unsupported("binary operation of unknown kind");
  }

  const CFunction *resolveUserFn(const Call &C) {
    CFunctionPtr Fn = K.Module.findFunction(C.getCallee());
    if (!Fn)
      unsupported("call to unknown function '" + C.getCallee() + "'");
    return Fn.get();
  }

  CTypePtr callType(const Call &C) {
    CallKind Kind = classifyBuiltin(C.getCallee());
    switch (Kind) {
    case CallKind::GetLocalId:
    case CallKind::GetGroupId:
    case CallKind::GetGlobalId:
    case CallKind::GetLocalSize:
    case CallKind::GetNumGroups:
    case CallKind::GetGlobalSize:
      return intTy();
    case CallKind::Sqrt:
    case CallKind::Rsqrt:
    case CallKind::Sin:
    case CallKind::Cos:
    case CallKind::Exp:
    case CallKind::Log:
    case CallKind::Fabs:
    case CallKind::Floor: {
      if (C.getArgs().size() != 1)
        unsupported("math builtin arity mismatch");
      CTypePtr T = typeOf(C.getArgs()[0]);
      if (unsigned W = vecWidth(T))
        return vectorTy(CScalarKind::Double, W);
      if (!isScalarClass(T))
        unsupported("math builtin on a non-numeric value");
      return doubleTy();
    }
    case CallKind::Fmin:
    case CallKind::Fmax:
    case CallKind::Pow:
      if (C.getArgs().size() != 2 || !isScalarClass(typeOf(C.getArgs()[0])) ||
          !isScalarClass(typeOf(C.getArgs()[1])))
        unsupported("fmin/fmax/pow take two scalar operands");
      return doubleTy();
    case CallKind::Dot: {
      if (C.getArgs().size() != 2)
        unsupported("dot takes two vector operands");
      unsigned WA = vecWidth(typeOf(C.getArgs()[0]));
      unsigned WB = vecWidth(typeOf(C.getArgs()[1]));
      if (!WA || WA != WB)
        unsupported("dot of non-vectors or mismatched widths");
      return doubleTy();
    }
    case CallKind::User:
      break;
    }
    const CFunction *Fn = resolveUserFn(C);
    std::vector<CTypePtr> ArgTys;
    for (const CExprPtr &A : C.getArgs())
      ArgTys.push_back(typeOf(A));
    const FnSpec &S = specialize(Fn, ArgTys);
    if (!S.Ret)
      unsupported("call to '" + Fn->Name + "' which never returns a value");
    return S.Ret;
  }

  //===------------------------------------------------------------------===//
  // Arith expressions
  //===------------------------------------------------------------------===//

  /// Every variable in \p E must resolve to an in-scope C variable, and
  /// every Lookup node (data-dependent table index) must name a scalar
  /// kernel-parameter table readable from the entry body — the stock
  /// arith printer cannot resolve tables, so emission goes through the
  /// backend's own arithToC below.
  void checkArith(const arith::Expr &E) {
    if (!E)
      return;
    switch (E->getKind()) {
    case arith::ExprKind::Cst:
      return;
    case arith::ExprKind::Var: {
      const auto &V = static_cast<const arith::VarNode &>(*E);
      if (!ArithVars.count(V.getId()))
        unsupported("symbolic index variable '" + V.getName() +
                    "' has no carrying C variable");
      return;
    }
    case arith::ExprKind::Sum:
      for (const arith::Expr &Op :
           static_cast<const arith::SumNode &>(*E).getOperands())
        checkArith(Op);
      return;
    case arith::ExprKind::Prod:
      for (const arith::Expr &Op :
           static_cast<const arith::ProdNode &>(*E).getOperands())
        checkArith(Op);
      return;
    case arith::ExprKind::IntDiv: {
      const auto &D = static_cast<const arith::IntDivNode &>(*E);
      checkArith(D.getNumerator());
      checkArith(D.getDenominator());
      return;
    }
    case arith::ExprKind::Mod: {
      const auto &M = static_cast<const arith::ModNode &>(*E);
      checkArith(M.getDividend());
      checkArith(M.getDivisor());
      return;
    }
    case arith::ExprKind::Pow:
      checkArith(static_cast<const arith::PowNode &>(*E).getBase());
      return;
    case arith::ExprKind::Lookup: {
      const auto &L = static_cast<const arith::LookupNode &>(*E);
      if (!InKernel)
        unsupported("Lookup into table '" + L.getTableName() +
                    "' outside the kernel body");
      auto It = LookupTables.find(L.getTableId());
      if (It == LookupTables.end())
        unsupported("Lookup into '" + L.getTableName() +
                    "' which is not a kernel buffer parameter");
      checkArith(It->second.second);
      checkArith(L.getIndex());
      return;
    }
    }
  }

  /// The backend's own arith-to-C emitter. arith::toString cannot be used
  /// here: it has no resolver hook for Lookup tables, and the native
  /// spelling routes lookups through the bounds-checked lift_lookup
  /// helper. Sum/Prod/IntDiv/Mod print as plain C operators — the same
  /// truncating semantics the simulator's arith evaluator uses — with
  /// liberal parenthesization.
  std::string arithToC(const arith::Expr &E) {
    switch (E->getKind()) {
    case arith::ExprKind::Cst: {
      int64_t V = static_cast<const arith::CstNode &>(*E).getValue();
      return V < 0 ? "(" + std::to_string(V) + ")" : std::to_string(V);
    }
    case arith::ExprKind::Var:
      return varUse(
          ArithVars.at(static_cast<const arith::VarNode &>(*E).getId()));
    case arith::ExprKind::Sum: {
      std::string S = "(";
      const auto &Ops = static_cast<const arith::SumNode &>(*E).getOperands();
      for (size_t I = 0; I != Ops.size(); ++I)
        S += (I ? " + " : "") + arithToC(Ops[I]);
      return S + ")";
    }
    case arith::ExprKind::Prod: {
      std::string S = "(";
      const auto &Ops =
          static_cast<const arith::ProdNode &>(*E).getOperands();
      for (size_t I = 0; I != Ops.size(); ++I)
        S += (I ? " * " : "") + arithToC(Ops[I]);
      return S + ")";
    }
    case arith::ExprKind::IntDiv: {
      const auto &D = static_cast<const arith::IntDivNode &>(*E);
      return "(" + arithToC(D.getNumerator()) + " / " +
             arithToC(D.getDenominator()) + ")";
    }
    case arith::ExprKind::Mod: {
      const auto &M = static_cast<const arith::ModNode &>(*E);
      return "(" + arithToC(M.getDividend()) + " % " +
             arithToC(M.getDivisor()) + ")";
    }
    case arith::ExprKind::Pow: {
      // Constant non-negative exponent: expand to a product, the form the
      // OpenCL printer emits too.
      const auto &P = static_cast<const arith::PowNode &>(*E);
      std::string B = arithToC(P.getBase());
      if (P.getExponent() == 0)
        return "1";
      std::string S = "(" + B;
      for (int64_t I = 1; I != P.getExponent(); ++I)
        S += " * " + B;
      return S + ")";
    }
    case arith::ExprKind::Lookup: {
      const auto &L = static_cast<const arith::LookupNode &>(*E);
      const auto &[Table, Count] = LookupTables.at(L.getTableId());
      return "lift_lookup(" + varUse(Table) + ", " + arithToC(Count) +
             ", " + arithToC(L.getIndex()) + ", lift_ctl)";
    }
    }
    unsupported("unknown arith node kind");
  }

  std::string emitArith(const arith::Expr &E) {
    checkArith(E);
    return "(" + arithToC(E) + ")";
  }

  bool arithHasLookup(const arith::Expr &E) const {
    if (!E)
      return false;
    switch (E->getKind()) {
    case arith::ExprKind::Cst:
    case arith::ExprKind::Var:
      return false;
    case arith::ExprKind::Sum:
      for (const arith::Expr &Op :
           static_cast<const arith::SumNode &>(*E).getOperands())
        if (arithHasLookup(Op))
          return true;
      return false;
    case arith::ExprKind::Prod:
      for (const arith::Expr &Op :
           static_cast<const arith::ProdNode &>(*E).getOperands())
        if (arithHasLookup(Op))
          return true;
      return false;
    case arith::ExprKind::IntDiv: {
      const auto &D = static_cast<const arith::IntDivNode &>(*E);
      return arithHasLookup(D.getNumerator()) ||
             arithHasLookup(D.getDenominator());
    }
    case arith::ExprKind::Mod: {
      const auto &M = static_cast<const arith::ModNode &>(*E);
      return arithHasLookup(M.getDividend()) ||
             arithHasLookup(M.getDivisor());
    }
    case arith::ExprKind::Pow:
      return arithHasLookup(
          static_cast<const arith::PowNode &>(*E).getBase());
    case arith::ExprKind::Lookup:
      return true;
    }
    return false;
  }

  /// True when \p E computes through a data-dependent Lookup anywhere —
  /// such values can carry out-of-range indices, so array accesses they
  /// feed get the interpreter's bounds check.
  bool exprHasLookup(const CExprPtr &E) const {
    if (!E)
      return false;
    switch (E->getKind()) {
    case CExprKind::IntLit:
    case CExprKind::FloatLit:
    case CExprKind::VarRef:
      return false;
    case CExprKind::ArithValue:
      return arithHasLookup(static_cast<const ArithValue &>(*E).getValue());
    case CExprKind::ArrayAccess: {
      const auto &A = static_cast<const ArrayAccess &>(*E);
      return exprHasLookup(A.getBase()) || exprHasLookup(A.getIndex());
    }
    case CExprKind::Member:
      return exprHasLookup(static_cast<const Member &>(*E).getBase());
    case CExprKind::Binary: {
      const auto &B = static_cast<const Binary &>(*E);
      return exprHasLookup(B.getLhs()) || exprHasLookup(B.getRhs());
    }
    case CExprKind::Unary:
      return exprHasLookup(static_cast<const Unary &>(*E).getSub());
    case CExprKind::Call:
      for (const CExprPtr &A : static_cast<const Call &>(*E).getArgs())
        if (exprHasLookup(A))
          return true;
      return false;
    case CExprKind::Ternary: {
      const auto &T = static_cast<const Ternary &>(*E);
      return exprHasLookup(T.getCond()) || exprHasLookup(T.getThen()) ||
             exprHasLookup(T.getElse());
    }
    case CExprKind::CastExpr:
      return exprHasLookup(static_cast<const CastExpr &>(*E).getSub());
    case CExprKind::ConstructVector:
      for (const CExprPtr &A :
           static_cast<const ConstructVector &>(*E).getArgs())
        if (exprHasLookup(A))
          return true;
      return false;
    case CExprKind::ConstructStruct:
      for (const CExprPtr &A :
           static_cast<const ConstructStruct &>(*E).getArgs())
        if (exprHasLookup(A))
          return true;
      return false;
    case CExprKind::VectorLoad: {
      const auto &V = static_cast<const VectorLoad &>(*E);
      return exprHasLookup(V.getIndex()) || exprHasLookup(V.getPointer());
    }
    case CExprKind::VectorStore: {
      const auto &V = static_cast<const VectorStore &>(*E);
      return exprHasLookup(V.getValue()) || exprHasLookup(V.getIndex()) ||
             exprHasLookup(V.getPointer());
    }
    }
    return false;
  }

  /// Emits the index of \p A, wrapped in the lift_chk bounds check when
  /// it is data-dependent (the simulator's load/store out-of-bounds
  /// errors are reachable then). The base must be a buffer parameter
  /// with a declared extent for the check to know the bound.
  std::string checkedIndex(const ArrayAccess &A, bool IsStore) {
    std::string Idx = emitIndex(A.getIndex());
    if (!exprHasLookup(A.getIndex()))
      return Idx;
    if (!InKernel)
      unsupported("data-dependent index inside a user function");
    const CVar *Base =
        A.getBase()->getKind() == CExprKind::VarRef
            ? static_cast<const VarRef &>(*A.getBase()).getVar().get()
            : nullptr;
    auto It = Base ? BufferCount.find(Base) : BufferCount.end();
    if (It == BufferCount.end())
      unsupported("data-dependent index into a buffer without a known "
                  "extent");
    return "lift_chk(" + Idx + ", " + emitArith(It->second) + ", " +
           (IsStore ? "5032" : "5031") + ", lift_ctl)";
  }

  /// Component extent of the buffer behind a vload/vstore pointer whose
  /// index is data-dependent: the declared element count of the buffer
  /// parameter (scalar float elements, one component each — vector
  /// accesses address flat float buffers). Pointers that are not plain
  /// buffer parameters (local arrays, spill strides) keep the E0607
  /// rejection: their extent is not recoverable here.
  std::string vectorExtent(const CExprPtr &Pointer, const char *What) {
    if (!InKernel)
      unsupported(std::string("data-dependent ") + What +
                  " index inside a user function");
    const CVar *Base =
        Pointer->getKind() == CExprKind::VarRef
            ? static_cast<const VarRef &>(*Pointer).getVar().get()
            : nullptr;
    auto It = Base ? BufferCount.find(Base) : BufferCount.end();
    if (It == BufferCount.end())
      unsupported(std::string("data-dependent ") + What +
                  " index into a buffer without a known extent");
    return emitArith(It->second);
  }

  /// True when all variables of \p E are group-uniform.
  bool arithUniform(const arith::Expr &E) const {
    if (!E)
      return true;
    switch (E->getKind()) {
    case arith::ExprKind::Cst:
      return true;
    case arith::ExprKind::Var: {
      auto It =
          ArithVars.find(static_cast<const arith::VarNode &>(*E).getId());
      return It != ArithVars.end() && GroupUniform.count(It->second);
    }
    case arith::ExprKind::Sum:
      for (const arith::Expr &Op :
           static_cast<const arith::SumNode &>(*E).getOperands())
        if (!arithUniform(Op))
          return false;
      return true;
    case arith::ExprKind::Prod:
      for (const arith::Expr &Op :
           static_cast<const arith::ProdNode &>(*E).getOperands())
        if (!arithUniform(Op))
          return false;
      return true;
    case arith::ExprKind::IntDiv: {
      const auto &D = static_cast<const arith::IntDivNode &>(*E);
      return arithUniform(D.getNumerator()) &&
             arithUniform(D.getDenominator());
    }
    case arith::ExprKind::Mod: {
      const auto &M = static_cast<const arith::ModNode &>(*E);
      return arithUniform(M.getDividend()) && arithUniform(M.getDivisor());
    }
    case arith::ExprKind::Pow:
      return arithUniform(static_cast<const arith::PowNode &>(*E).getBase());
    case arith::ExprKind::Lookup:
      return false;
    }
    return false;
  }

  //===------------------------------------------------------------------===//
  // Barrier and reference analysis
  //===------------------------------------------------------------------===//

  bool stmtHasBarrier(const CStmtPtr &S) const {
    if (!S)
      return false;
    switch (S->getKind()) {
    case CStmtKind::Barrier:
      return true;
    case CStmtKind::Block:
      for (const CStmtPtr &Sub : static_cast<const Block &>(*S).getStmts())
        if (stmtHasBarrier(Sub))
          return true;
      return false;
    case CStmtKind::For:
      return stmtHasBarrier(static_cast<const For &>(*S).getBody());
    case CStmtKind::If: {
      const auto &I = static_cast<const If &>(*S);
      return stmtHasBarrier(I.getThen()) || stmtHasBarrier(I.getElse());
    }
    default:
      return false;
    }
  }

  bool arithRefsVar(const arith::Expr &E, const CVar *V) const {
    if (!E || V->ArithId == 0)
      return false;
    switch (E->getKind()) {
    case arith::ExprKind::Cst:
      return false;
    case arith::ExprKind::Var:
      return static_cast<const arith::VarNode &>(*E).getId() == V->ArithId;
    case arith::ExprKind::Sum:
      for (const arith::Expr &Op :
           static_cast<const arith::SumNode &>(*E).getOperands())
        if (arithRefsVar(Op, V))
          return true;
      return false;
    case arith::ExprKind::Prod:
      for (const arith::Expr &Op :
           static_cast<const arith::ProdNode &>(*E).getOperands())
        if (arithRefsVar(Op, V))
          return true;
      return false;
    case arith::ExprKind::IntDiv: {
      const auto &D = static_cast<const arith::IntDivNode &>(*E);
      return arithRefsVar(D.getNumerator(), V) ||
             arithRefsVar(D.getDenominator(), V);
    }
    case arith::ExprKind::Mod: {
      const auto &M = static_cast<const arith::ModNode &>(*E);
      return arithRefsVar(M.getDividend(), V) ||
             arithRefsVar(M.getDivisor(), V);
    }
    case arith::ExprKind::Pow:
      return arithRefsVar(static_cast<const arith::PowNode &>(*E).getBase(),
                          V);
    case arith::ExprKind::Lookup:
      return arithRefsVar(
          static_cast<const arith::LookupNode &>(*E).getIndex(), V);
    }
    return false;
  }

  bool exprRefsVar(const CExprPtr &E, const CVar *V) const {
    if (!E)
      return false;
    switch (E->getKind()) {
    case CExprKind::IntLit:
    case CExprKind::FloatLit:
      return false;
    case CExprKind::VarRef:
      return static_cast<const VarRef &>(*E).getVar().get() == V;
    case CExprKind::ArithValue:
      return arithRefsVar(static_cast<const ArithValue &>(*E).getValue(), V);
    case CExprKind::ArrayAccess: {
      const auto &A = static_cast<const ArrayAccess &>(*E);
      return exprRefsVar(A.getBase(), V) || exprRefsVar(A.getIndex(), V);
    }
    case CExprKind::Member:
      return exprRefsVar(static_cast<const Member &>(*E).getBase(), V);
    case CExprKind::Binary: {
      const auto &B = static_cast<const Binary &>(*E);
      return exprRefsVar(B.getLhs(), V) || exprRefsVar(B.getRhs(), V);
    }
    case CExprKind::Unary:
      return exprRefsVar(static_cast<const Unary &>(*E).getSub(), V);
    case CExprKind::Call:
      for (const CExprPtr &A : static_cast<const Call &>(*E).getArgs())
        if (exprRefsVar(A, V))
          return true;
      return false;
    case CExprKind::Ternary: {
      const auto &T = static_cast<const Ternary &>(*E);
      return exprRefsVar(T.getCond(), V) || exprRefsVar(T.getThen(), V) ||
             exprRefsVar(T.getElse(), V);
    }
    case CExprKind::CastExpr:
      return exprRefsVar(static_cast<const CastExpr &>(*E).getSub(), V);
    case CExprKind::ConstructVector:
      for (const CExprPtr &A :
           static_cast<const ConstructVector &>(*E).getArgs())
        if (exprRefsVar(A, V))
          return true;
      return false;
    case CExprKind::ConstructStruct:
      for (const CExprPtr &A :
           static_cast<const ConstructStruct &>(*E).getArgs())
        if (exprRefsVar(A, V))
          return true;
      return false;
    case CExprKind::VectorLoad: {
      const auto &L = static_cast<const VectorLoad &>(*E);
      return exprRefsVar(L.getIndex(), V) || exprRefsVar(L.getPointer(), V);
    }
    case CExprKind::VectorStore: {
      const auto &VS = static_cast<const VectorStore &>(*E);
      return exprRefsVar(VS.getValue(), V) || exprRefsVar(VS.getIndex(), V) ||
             exprRefsVar(VS.getPointer(), V);
    }
    }
    return false;
  }

  bool stmtRefsVar(const CStmtPtr &S, const CVar *V) const {
    if (!S)
      return false;
    switch (S->getKind()) {
    case CStmtKind::Block:
      for (const CStmtPtr &Sub : static_cast<const Block &>(*S).getStmts())
        if (stmtRefsVar(Sub, V))
          return true;
      return false;
    case CStmtKind::VarDecl: {
      const auto &D = static_cast<const VarDecl &>(*S);
      return exprRefsVar(D.getInit(), V) || arithRefsVar(D.getArraySize(), V);
    }
    case CStmtKind::Assign: {
      const auto &A = static_cast<const Assign &>(*S);
      return exprRefsVar(A.getLhs(), V) || exprRefsVar(A.getRhs(), V);
    }
    case CStmtKind::ExprStmt:
      return exprRefsVar(static_cast<const ExprStmt &>(*S).getExpr(), V);
    case CStmtKind::For: {
      const auto &F = static_cast<const For &>(*S);
      return exprRefsVar(F.getInit(), V) || exprRefsVar(F.getCond(), V) ||
             exprRefsVar(F.getStep(), V) || stmtRefsVar(F.getBody(), V);
    }
    case CStmtKind::If: {
      const auto &I = static_cast<const If &>(*S);
      return exprRefsVar(I.getCond(), V) || stmtRefsVar(I.getThen(), V) ||
             stmtRefsVar(I.getElse(), V);
    }
    case CStmtKind::Return:
      return exprRefsVar(static_cast<const Return &>(*S).getValue(), V);
    case CStmtKind::Barrier:
    case CStmtKind::Comment:
      return false;
    }
    return false;
  }

  //===------------------------------------------------------------------===//
  // Group-uniformity of control headers
  //===------------------------------------------------------------------===//

  void requireUniform(const CExprPtr &E, const char *Where) {
    if (!E)
      return;
    switch (E->getKind()) {
    case CExprKind::IntLit:
    case CExprKind::FloatLit:
      return;
    case CExprKind::VarRef:
      if (!GroupUniform.count(static_cast<const VarRef &>(*E).getVar().get()))
        unsupported(std::string("work-item-varying value in a ") + Where +
                    " that contains a barrier (variable '" +
                    static_cast<const VarRef &>(*E).getVar()->Name + "')");
      return;
    case CExprKind::ArithValue:
      if (!arithUniform(static_cast<const ArithValue &>(*E).getValue()))
        unsupported(std::string("work-item-varying index value in a ") +
                    Where + " that contains a barrier");
      return;
    case CExprKind::Binary: {
      const auto &B = static_cast<const Binary &>(*E);
      requireUniform(B.getLhs(), Where);
      requireUniform(B.getRhs(), Where);
      return;
    }
    case CExprKind::Unary:
      requireUniform(static_cast<const Unary &>(*E).getSub(), Where);
      return;
    case CExprKind::Ternary: {
      const auto &T = static_cast<const Ternary &>(*E);
      requireUniform(T.getCond(), Where);
      requireUniform(T.getThen(), Where);
      requireUniform(T.getElse(), Where);
      return;
    }
    case CExprKind::CastExpr:
      requireUniform(static_cast<const CastExpr &>(*E).getSub(), Where);
      return;
    case CExprKind::Call: {
      const auto &C = static_cast<const Call &>(*E);
      switch (classifyBuiltin(C.getCallee())) {
      case CallKind::GetGroupId:
      case CallKind::GetLocalSize:
      case CallKind::GetNumGroups:
      case CallKind::GetGlobalSize:
        return; // uniform within a group
      case CallKind::GetLocalId:
      case CallKind::GetGlobalId:
        unsupported(std::string("work-item id in a ") + Where +
                    " that contains a barrier");
      case CallKind::Sqrt:
      case CallKind::Rsqrt:
      case CallKind::Sin:
      case CallKind::Cos:
      case CallKind::Exp:
      case CallKind::Log:
      case CallKind::Fabs:
      case CallKind::Floor:
      case CallKind::Fmin:
      case CallKind::Fmax:
      case CallKind::Pow:
      case CallKind::Dot:
        for (const CExprPtr &A : C.getArgs())
          requireUniform(A, Where);
        return;
      case CallKind::User:
        unsupported(std::string("user function call in a ") + Where +
                    " that contains a barrier");
      }
      return;
    }
    default:
      unsupported(std::string("memory or aggregate operation in a ") + Where +
                  " that contains a barrier");
    }
  }

  /// Non-throwing uniformity probe: used to decide whether a group-level
  /// scalar declaration may hoist to group scope (requireUniform itself
  /// diagnoses the positions where uniformity is mandatory).
  bool uniformExpr(const CExprPtr &E) {
    try {
      requireUniform(E, "probe");
      return true;
    } catch (DiagnosticError &) {
      return false;
    }
  }

  /// Records every variable the kernel body ever reassigns (directly, or
  /// through a struct-member store). Pointer element stores (`p[i] = x`)
  /// leave the binding itself unchanged and do not count.
  void collectAssigned(const std::vector<CStmtPtr> &Stmts) {
    for (const CStmtPtr &S : Stmts)
      collectAssignedStmt(S);
  }

  void collectAssignedStmt(const CStmtPtr &S) {
    if (!S)
      return;
    switch (S->getKind()) {
    case CStmtKind::Block:
      collectAssigned(static_cast<const Block &>(*S).getStmts());
      return;
    case CStmtKind::Assign: {
      const CExpr *L = static_cast<const Assign &>(*S).getLhs().get();
      while (L && L->getKind() == CExprKind::Member)
        L = static_cast<const Member &>(*L).getBase().get();
      if (L && L->getKind() == CExprKind::VarRef)
        AssignedVars.insert(static_cast<const VarRef &>(*L).getVar().get());
      return;
    }
    case CStmtKind::For:
      collectAssigned(static_cast<const For &>(*S).getBody()->getStmts());
      return;
    case CStmtKind::If: {
      const auto &I = static_cast<const If &>(*S);
      collectAssigned(I.getThen()->getStmts());
      if (I.getElse())
        collectAssigned(I.getElse()->getStmts());
      return;
    }
    default:
      return;
    }
  }

  //===------------------------------------------------------------------===//
  // Output plumbing
  //===------------------------------------------------------------------===//

  void line(const std::string &S) { Out << Indent << S << "\n"; }

  struct Indenter {
    NativePrinter &P;
    explicit Indenter(NativePrinter &P) : P(P) { P.Indent += "  "; }
    ~Indenter() { P.Indent.erase(P.Indent.size() - 2); }
  };

  //===------------------------------------------------------------------===//
  // Expression emission
  //===------------------------------------------------------------------===//

  /// How a variable reference is spelled (plain, per-item spill slot, or
  /// per-item stride into a spill buffer).
  std::string varUse(const CVar *V) {
    std::string N = varName(V);
    if (HoistScalars.count(V))
      return N + "[lift_li]";
    auto It = HoistArrays.find(V);
    if (It != HoistArrays.end())
      return "(" + N + ".p + lift_li * " + It->second + ")";
    return N;
  }

  std::string emitFloatOperand(const CExprPtr &E) {
    CTypePtr T = typeOf(E);
    if (isFloatClass(T))
      return emitExpr(E);
    if (isIntClass(T))
      return "(lift_f)" + emitExpr(E);
    unsupported("numeric conversion of a non-scalar value");
  }

  std::string emitIndex(const CExprPtr &E) {
    CTypePtr T = typeOf(E);
    if (isIntClass(T))
      return emitExpr(E);
    if (isFloatClass(T))
      return "(i64)" + emitExpr(E); // asInt truncates toward zero
    unsupported("index of non-scalar type");
  }

  std::string emitCond(const CExprPtr &E) {
    CTypePtr T = typeOf(E);
    if (isIntClass(T))
      return emitExpr(E);
    if (isFloatClass(T))
      return "lift_asbool(" + emitExpr(E) + ")";
    unsupported("condition of non-scalar type");
  }

  std::string builtinDim(const Call &C) {
    if (C.getArgs().size() != 1 ||
        C.getArgs()[0]->getKind() != CExprKind::IntLit)
      unsupported("work-item builtin with a non-literal dimension");
    int64_t D = static_cast<const IntLit &>(*C.getArgs()[0]).getValue();
    if (D < 0 || D > 2)
      unsupported("work-item builtin dimension out of range");
    return std::to_string(D);
  }

  std::string localIdExpr(const std::string &D) {
    if (!InKernel)
      unsupported("work-item builtin inside a user function");
    if (D == "0")
      return "(lift_li % lift_L0)";
    if (D == "1")
      return "((lift_li / lift_L0) % lift_L1)";
    return "(lift_li / (lift_L0 * lift_L1))";
  }

  std::string emitCall(const Call &C) {
    CallKind Kind = classifyBuiltin(C.getCallee());
    auto ScalarMath = [&](const char *Fn) {
      CTypePtr T = typeOf(C.getArgs()[0]);
      if (unsigned W = vecWidth(T)) {
        (void)W;
        return "lift_vmap(" + emitExpr(C.getArgs()[0]) +
               ", [](lift_f lift_x) { return " + std::string(Fn) +
               "(lift_x); })";
      }
      return std::string(Fn) + "(" + emitFloatOperand(C.getArgs()[0]) + ")";
    };
    switch (Kind) {
    case CallKind::GetLocalId:
      return localIdExpr(builtinDim(C));
    case CallKind::GetGroupId:
      if (!InKernel)
        unsupported("work-item builtin inside a user function");
      return "lift_g" + builtinDim(C);
    case CallKind::GetGlobalId: {
      std::string D = builtinDim(C);
      return "(lift_g" + D + " * lift_L" + D + " + " + localIdExpr(D) + ")";
    }
    case CallKind::GetLocalSize:
      if (!InKernel)
        unsupported("work-item builtin inside a user function");
      return "lift_L" + builtinDim(C);
    case CallKind::GetNumGroups:
      if (!InKernel)
        unsupported("work-item builtin inside a user function");
      return "lift_G" + builtinDim(C);
    case CallKind::GetGlobalSize:
      if (!InKernel)
        unsupported("work-item builtin inside a user function");
      return "lift_GS" + builtinDim(C);
    case CallKind::Sqrt:
      return ScalarMath("std::sqrt");
    case CallKind::Rsqrt:
      return ScalarMath("lift_rsqrt");
    case CallKind::Sin:
      return ScalarMath("std::sin");
    case CallKind::Cos:
      return ScalarMath("std::cos");
    case CallKind::Exp:
      return ScalarMath("std::exp");
    case CallKind::Log:
      return ScalarMath("std::log");
    case CallKind::Fabs:
      return ScalarMath("std::fabs");
    case CallKind::Floor:
      return ScalarMath("std::floor");
    case CallKind::Fmin:
      return "std::fmin(" + emitFloatOperand(C.getArgs()[0]) + ", " +
             emitFloatOperand(C.getArgs()[1]) + ")";
    case CallKind::Fmax:
      return "std::fmax(" + emitFloatOperand(C.getArgs()[0]) + ", " +
             emitFloatOperand(C.getArgs()[1]) + ")";
    case CallKind::Pow:
      return "std::pow(" + emitFloatOperand(C.getArgs()[0]) + ", " +
             emitFloatOperand(C.getArgs()[1]) + ")";
    case CallKind::Dot:
      return "lift_dot(" + emitExpr(C.getArgs()[0]) + ", " +
             emitExpr(C.getArgs()[1]) + ")";
    case CallKind::User:
      break;
    }
    callType(C); // validates arity, argument classes and return type
    const CFunction *Fn = resolveUserFn(C);
    std::vector<CTypePtr> ArgTys;
    for (const CExprPtr &A : C.getArgs())
      ArgTys.push_back(typeOf(A));
    const FnSpec &Spec = specialize(Fn, ArgTys); // cache hit after callType
    std::string R = Spec.Symbol + "(lift_ctl";
    for (const CExprPtr &A : C.getArgs())
      R += ", " + emitExpr(A);
    return R + ")";
  }

  static const char *cmpSpelling(BinOp Op) {
    switch (Op) {
    case BinOp::Lt:
      return "<";
    case BinOp::Le:
      return "<=";
    case BinOp::Gt:
      return ">";
    case BinOp::Ge:
      return ">=";
    case BinOp::Eq:
      return "==";
    case BinOp::Ne:
      return "!=";
    default:
      return "";
    }
  }

  static const char *vecCmpFn(BinOp Op) {
    switch (Op) {
    case BinOp::Lt:
      return "lift_vlt";
    case BinOp::Le:
      return "lift_vle";
    case BinOp::Gt:
      return "lift_vgt";
    case BinOp::Ge:
      return "lift_vge";
    case BinOp::Eq:
      return "lift_veq";
    case BinOp::Ne:
      return "lift_vne";
    default:
      return "";
    }
  }

  std::string emitBinary(const Binary &B) {
    CTypePtr RTy = binaryType(B); // also validates operand classes
    CTypePtr L = typeOf(B.getLhs()), R = typeOf(B.getRhs());
    const bool AnyVec = vecWidth(L) || vecWidth(R);
    std::string A = emitExpr(B.getLhs()), C = emitExpr(B.getRhs());
    switch (B.getOp()) {
    case BinOp::Add:
    case BinOp::Sub:
    case BinOp::Mul:
      if (isIntClass(RTy)) {
        const char *Fn = B.getOp() == BinOp::Add   ? "lift_add"
                         : B.getOp() == BinOp::Sub ? "lift_sub"
                                                   : "lift_mul";
        return std::string(Fn) + "(" + A + ", " + C + ")";
      }
      return "(" + A +
             (B.getOp() == BinOp::Add   ? " + "
              : B.getOp() == BinOp::Sub ? " - "
                                        : " * ") +
             C + ")";
    case BinOp::Div:
      if (isIntClass(RTy))
        return "lift_div(" + A + ", " + C + ", lift_ctl)";
      return "(" + A + " / " + C + ")";
    case BinOp::Rem:
      return "lift_rem(" + A + ", " + C + ", lift_ctl)";
    case BinOp::Lt:
    case BinOp::Le:
    case BinOp::Gt:
    case BinOp::Ge:
    case BinOp::Eq:
    case BinOp::Ne:
      if (AnyVec)
        return std::string(vecCmpFn(B.getOp())) + "(" + A + ", " + C + ")";
      // Mixed int/float comparisons happen on doubles (asFloat promotion).
      if (isFloatClass(L) != isFloatClass(R)) {
        A = emitFloatOperand(B.getLhs());
        C = emitFloatOperand(B.getRhs());
      }
      return "(i64)(" + A + " " + cmpSpelling(B.getOp()) + " " + C + ")";
    case BinOp::And:
      return "lift_and(" + A + ", " + C + ")";
    case BinOp::Or:
      return "lift_or(" + A + ", " + C + ")";
    }
    unsupported("binary operation of unknown kind");
  }

  std::string emitExpr(const CExprPtr &E) {
    switch (E->getKind()) {
    case CExprKind::IntLit: {
      int64_t V = static_cast<const IntLit &>(*E).getValue();
      if (V == INT64_MIN)
        return "(-9223372036854775807LL - 1)";
      return "(i64)" + std::to_string(V) + "LL";
    }
    case CExprKind::FloatLit:
      // Exact mode spells every literal as a double: the interpreter
      // stores float literals at full double precision (Value::Flt is a
      // double). Fast mode spells them as floats (f-suffixed) so they do
      // not promote float expressions back to double.
      return formatFloatLiteral(static_cast<const FloatLit &>(*E).getValue(),
                                /*IsDouble=*/Mode == NativeMode::Exact);
    case CExprKind::VarRef:
      return varUse(static_cast<const VarRef &>(*E).getVar().get());
    case CExprKind::ArithValue:
      return emitArith(static_cast<const ArithValue &>(*E).getValue());
    case CExprKind::ArrayAccess: {
      const auto &A = static_cast<const ArrayAccess &>(*E);
      typeOf(E); // validates the base is a pointer
      return emitExpr(A.getBase()) + "[" + checkedIndex(A, /*IsStore=*/false) +
             "]";
    }
    case CExprKind::Member: {
      const auto &M = static_cast<const Member &>(*E);
      CTypePtr BaseTy = typeOf(M.getBase());
      if (BaseTy && BaseTy->getKind() == CTypeKind::Struct) {
        structFieldType(BaseTy, M.getField()); // range check
        return emitExpr(M.getBase()) + ".f" +
               std::to_string(structFieldIndex(M.getField()));
      }
      if (unsigned W = vecWidth(BaseTy))
        return emitExpr(M.getBase()) + ".s[" +
               std::to_string(vectorComponent(M.getField(), W)) + "]";
      unsupported("member access on a non-struct, non-vector value");
    }
    case CExprKind::Binary:
      return emitBinary(static_cast<const Binary &>(*E));
    case CExprKind::Unary: {
      const auto &U = static_cast<const Unary &>(*E);
      if (U.getOp() == UnOp::Not)
        return "lift_not(" + emitExpr(U.getSub()) + ")";
      CTypePtr T = typeOf(U.getSub());
      if (isIntClass(T))
        return "lift_neg(" + emitExpr(U.getSub()) + ")";
      return "(-" + emitExpr(U.getSub()) + ")";
    }
    case CExprKind::Call:
      return emitCall(static_cast<const Call &>(*E));
    case CExprKind::Ternary: {
      const auto &T = static_cast<const Ternary &>(*E);
      typeOf(E); // validates branch class agreement
      return "(" + emitCond(T.getCond()) + " ? " + emitExpr(T.getThen()) +
             " : " + emitExpr(T.getElse()) + ")";
    }
    case CExprKind::CastExpr: {
      const auto &C = static_cast<const CastExpr &>(*E);
      CTypePtr RTy = typeOf(E);
      CTypePtr SubTy = typeOf(C.getSub());
      if (sameClass(RTy, SubTy))
        return emitExpr(C.getSub());
      // Int <-> double scalar conversion (asInt truncates toward zero,
      // asFloat widens — both are the C cast).
      return "(" + typeName(RTy) + ")" + emitExpr(C.getSub());
    }
    case CExprKind::ConstructVector: {
      const auto &CV = static_cast<const ConstructVector &>(*E);
      unsigned W = vecWidth(typeOf(E));
      if (CV.getArgs().size() == 1)
        return "lift_splat<" + std::to_string(W) + ">(" +
               emitFloatOperand(CV.getArgs()[0]) + ")";
      std::string R = "lvec<" + std::to_string(W) + ">{{";
      for (size_t I = 0; I != CV.getArgs().size(); ++I)
        R += (I ? ", " : "") + emitFloatOperand(CV.getArgs()[I]);
      return R + "}}";
    }
    case CExprKind::ConstructStruct: {
      const auto &CS = static_cast<const ConstructStruct &>(*E);
      typeOf(E); // validates field classes
      const auto &Fields =
          static_cast<const StructCType &>(*CS.getType()).getFields();
      // Each initializer is cast to its field type: fast-mode int
      // arithmetic may widen to i64, and a braced initializer must not
      // narrow implicitly.
      std::string R = typeName(CS.getType()) + "{";
      for (size_t I = 0; I != CS.getArgs().size(); ++I)
        R += (I ? ", (" : "(") + typeName(Fields[I].second) + ")(" +
             emitExpr(CS.getArgs()[I]) + ")";
      return R + "}";
    }
    case CExprKind::VectorLoad: {
      const auto &VL = static_cast<const VectorLoad &>(*E);
      typeOf(E);
      const std::string W = std::to_string(VL.getWidth());
      if (exprHasLookup(VL.getIndex()))
        return "lift_vload_chk<" + W + ">(" + emitIndex(VL.getIndex()) +
               ", " + emitExpr(VL.getPointer()) + ", " +
               vectorExtent(VL.getPointer(), "vector load") + ", lift_ctl)";
      return "lift_vload<" + W + ">(" + emitIndex(VL.getIndex()) + ", " +
             emitExpr(VL.getPointer()) + ")";
    }
    case CExprKind::VectorStore: {
      const auto &VS = static_cast<const VectorStore &>(*E);
      typeOf(E);
      const std::string W = std::to_string(VS.getWidth());
      if (exprHasLookup(VS.getIndex()))
        return "lift_vstore_chk<" + W + ">(" + emitExpr(VS.getValue()) +
               ", " + emitIndex(VS.getIndex()) + ", " +
               emitExpr(VS.getPointer()) + ", " +
               vectorExtent(VS.getPointer(), "vector store") + ", lift_ctl)";
      return "lift_vstore<" + W + ">(" + emitExpr(VS.getValue()) + ", " +
             emitIndex(VS.getIndex()) + ", " + emitExpr(VS.getPointer()) +
             ")";
    }
    }
    unsupported("expression of unknown kind");
  }

  //===------------------------------------------------------------------===//
  // Statement emission (work-item level)
  //===------------------------------------------------------------------===//

  void emitAssign(const Assign &A) {
    CTypePtr LTy, RTy = typeOf(A.getRhs());
    const CExprPtr &Lhs = A.getLhs();
    std::string Target;
    switch (Lhs->getKind()) {
    case CExprKind::VarRef: {
      const CVar *V = static_cast<const VarRef &>(*Lhs).getVar().get();
      LTy = varTypeOf(V);
      Target = varUse(V);
      break;
    }
    case CExprKind::ArrayAccess: {
      const auto &AA = static_cast<const ArrayAccess &>(*Lhs);
      LTy = typeOf(Lhs);
      Target = emitExpr(AA.getBase()) + "[" +
               checkedIndex(AA, /*IsStore=*/true) + "]";
      break;
    }
    case CExprKind::Member: {
      const auto &M = static_cast<const Member &>(*Lhs);
      CTypePtr BaseTy = typeOf(M.getBase());
      // The interpreter only stores through tuple members; component
      // stores into vectors are runtime errors there.
      if (!BaseTy || BaseTy->getKind() != CTypeKind::Struct)
        unsupported("member store into a non-struct value");
      LTy = typeOf(Lhs);
      Target = emitExpr(Lhs);
      break;
    }
    default:
      unsupported("assignment to an unsupported lvalue");
    }
    // The simulator stores the evaluated value with its own kind; a
    // lowered-type mismatch here could later be observed through integer
    // division or truncation, so the subset requires agreement.
    if (!sameClass(LTy, RTy))
      unsupported("assignment of a " + typeName(RTy) + " value to a " +
                  typeName(LTy) + " location");
    line(Target + " = " + emitExpr(A.getRhs()) + ";");
  }

  void emitItemVarDecl(const VarDecl &D) {
    const CVar *V = D.getVar().get();
    if (HoistArrays.count(V)) {
      // Per-execution zero fill of this item's stride (fresh private
      // array on every execution, like the interpreter's PrivateMem).
      std::string Size = HoistArrays[V];
      std::string Base = varUse(V);
      line("for (i64 lift_w = 0; lift_w != " + Size + "; ++lift_w)");
      line("  " + Base + "[lift_w] = " + zeroOf(V->Ty) + ";");
      return;
    }
    if (D.getArraySize()) {
      // Private array local to one run: fresh zeroed storage per
      // execution. Constant sizes become stack arrays.
      CTypePtr Elem = V->Ty;
      VarTy[V] = pointerTy(Elem, D.getAddrSpace());
      std::string Name = varName(V);
      if (auto Cst = arith::asConstant(D.getArraySize())) {
        if (*Cst < 0)
          unsupported("array '" + V->Name + "' with negative element count");
        line(typeName(Elem) + " " + Name + "[" + std::to_string(*Cst) +
             "] = {};");
      } else {
        line("lift_buf<" + typeName(Elem) + "> " + Name + "(" +
             emitArith(D.getArraySize()) + ");");
      }
      return;
    }
    CTypePtr DeclTy =
        isFloatClass(V->Ty) || isIntClass(V->Ty) || vecWidth(V->Ty) ||
                (V->Ty && V->Ty->getKind() == CTypeKind::Struct) ||
                (V->Ty && V->Ty->getKind() == CTypeKind::Pointer)
            ? V->Ty
            : nullptr;
    if (!DeclTy)
      unsupported("declaration of unsupported type " + cTypeToString(V->Ty));
    std::string Init;
    if (D.getInit()) {
      CTypePtr InitTy = typeOf(D.getInit());
      if (!sameClass(InitTy, DeclTy))
        unsupported("initializer of '" + V->Name +
                    "' has a mismatched lowered type");
      Init = emitExpr(D.getInit());
    } else if (DeclTy->getKind() == CTypeKind::Pointer) {
      Init = "nullptr";
    } else {
      // Uninitialized scalars read back as zero in the simulator.
      Init = zeroOf(DeclTy);
    }
    VarTy[V] = DeclTy;
    if (HoistScalars.count(V)) {
      line(varUse(V) + " = " + Init + ";");
      return;
    }
    line(typeName(DeclTy) + " " + varName(V) + " = " + Init + ";");
  }

  void emitItemStmt(const CStmtPtr &S) {
    switch (S->getKind()) {
    case CStmtKind::Block: {
      line("{");
      {
        Indenter In(*this);
        for (const CStmtPtr &Sub : static_cast<const Block &>(*S).getStmts())
          emitItemStmt(Sub);
      }
      line("}");
      return;
    }
    case CStmtKind::VarDecl:
      emitItemVarDecl(static_cast<const VarDecl &>(*S));
      return;
    case CStmtKind::Assign:
      emitAssign(static_cast<const Assign &>(*S));
      return;
    case CStmtKind::ExprStmt:
      line(emitExpr(static_cast<const ExprStmt &>(*S).getExpr()) + ";");
      return;
    case CStmtKind::For: {
      const auto &F = static_cast<const For &>(*S);
      const CVar *IV = F.getIV().get();
      CTypePtr InitTy = typeOf(F.getInit());
      VarTy[IV] = InitTy;
      CTypePtr StepTy = typeOf(F.getStep());
      if (!sameClass(InitTy, StepTy))
        unsupported("loop variable '" + IV->Name +
                    "' changes lowered type across iterations");
      if (HoistScalars.count(IV) || HoistArrays.count(IV))
        unsupported("loop variable '" + IV->Name + "' live across a barrier");
      std::string N = varName(IV);
      line("for (" + typeName(InitTy) + " " + N + " = " +
           emitExpr(F.getInit()) + "; " + emitCond(F.getCond()) + "; " + N +
           " = " + emitExpr(F.getStep()) + ") {");
      {
        Indenter In(*this);
        for (const CStmtPtr &Sub : F.getBody()->getStmts())
          emitItemStmt(Sub);
      }
      line("}");
      return;
    }
    case CStmtKind::If: {
      const auto &I = static_cast<const If &>(*S);
      line("if (" + emitCond(I.getCond()) + ") {");
      {
        Indenter In(*this);
        for (const CStmtPtr &Sub : I.getThen()->getStmts())
          emitItemStmt(Sub);
      }
      if (I.getElse()) {
        line("} else {");
        Indenter In(*this);
        for (const CStmtPtr &Sub : I.getElse()->getStmts())
          emitItemStmt(Sub);
      }
      line("}");
      return;
    }
    case CStmtKind::Barrier:
      // Barrier-free runs only reach here through analysis bugs.
      unsupported("barrier in a non-fissionable statement position");
    case CStmtKind::Return:
      if (InKernel)
        unsupported("return in a kernel body (the simulator raises a "
                    "runtime error too)");
      if (!static_cast<const Return &>(*S).getValue())
        unsupported("return without a value in a user function");
      line("return " +
           emitExpr(static_cast<const Return &>(*S).getValue()) + ";");
      return;
    case CStmtKind::Comment:
      line("// " + static_cast<const Comment &>(*S).getText());
      return;
    }
    unsupported("statement of unknown kind");
  }

  //===------------------------------------------------------------------===//
  // Group-level emission: fission into barrier-free runs
  //===------------------------------------------------------------------===//

  bool isLocalArrayDecl(const CStmtPtr &S) const {
    if (S->getKind() != CStmtKind::VarDecl)
      return false;
    const auto &D = static_cast<const VarDecl &>(*S);
    return D.getAddrSpace() == CAddrSpace::Local && D.getArraySize() != nullptr;
  }

  /// A group-level list splits into "cells": barrier-free runs separated
  /// by barrier-containing statements (and local-array declarations,
  /// which hoist to allocations). Cell index changes mark run boundaries
  /// for the cross-barrier liveness analysis.
  std::vector<int> cellIndices(const std::vector<CStmtPtr> &Stmts) const {
    std::vector<int> Cell(Stmts.size(), 0);
    int Current = 0;
    bool InRun = false;
    for (size_t I = 0; I != Stmts.size(); ++I) {
      if (isLocalArrayDecl(Stmts[I]) || stmtHasBarrier(Stmts[I])) {
        if (InRun)
          ++Current; // close the open run
        Cell[I] = Current++;
        InRun = false;
      } else {
        if (!InRun)
          InRun = true;
        Cell[I] = Current;
      }
    }
    return Cell;
  }

  void hoistAnalysis(const std::vector<CStmtPtr> &Stmts) {
    std::vector<int> Cell = cellIndices(Stmts);
    for (size_t I = 0; I != Stmts.size(); ++I) {
      if (Stmts[I]->getKind() != CStmtKind::VarDecl)
        continue;
      const auto &D = static_cast<const VarDecl &>(*Stmts[I]);
      if (isLocalArrayDecl(Stmts[I]))
        continue;
      const CVar *V = D.getVar().get();
      if (UniformDecls.count(V))
        continue; // lives at group scope; no per-item slots needed
      bool LiveAcross = false;
      for (size_t J = I + 1; J != Stmts.size() && !LiveAcross; ++J)
        if (Cell[J] != Cell[I] && stmtRefsVar(Stmts[J], V))
          LiveAcross = true;
      if (!LiveAcross)
        continue;
      if (D.getArraySize()) {
        checkArith(D.getArraySize());
        if (!arithUniform(D.getArraySize()))
          unsupported("barrier-crossing private array '" + V->Name +
                      "' with a work-item-varying size");
        std::string Size = emitArith(D.getArraySize());
        HoistArrays[V] = Size;
        VarTy[V] = pointerTy(V->Ty, CAddrSpace::Private);
      } else {
        CTypePtr DeclTy = V->Ty;
        // Pointer-typed locals cross barriers in the reduction
        // ping-pong idiom (`it_in = it_out` swaps); each item keeps its
        // own (identical) copy of the pointer in its slot.
        if (!isScalarClass(DeclTy) && !vecWidth(DeclTy) &&
            !(DeclTy && DeclTy->getKind() == CTypeKind::Struct) &&
            !(DeclTy && DeclTy->getKind() == CTypeKind::Pointer))
          unsupported("barrier-crossing private variable '" + V->Name +
                      "' of unsupported type");
        HoistScalars.insert(V);
        VarTy[V] = DeclTy;
      }
    }
  }

  /// Emits storage for this list's barrier-crossing private variables.
  void emitHoistedStorage(const std::vector<CStmtPtr> &Stmts) {
    for (const CStmtPtr &S : Stmts) {
      if (S->getKind() != CStmtKind::VarDecl)
        continue;
      const CVar *V = static_cast<const VarDecl &>(*S).getVar().get();
      if (HoistScalars.count(V))
        line(typeName(VarTy[V]) + " " + varName(V) + "[lift_WIS];");
      auto It = HoistArrays.find(V);
      if (It != HoistArrays.end())
        line("lift_buf<" + typeName(V->Ty) + "> " + varName(V) +
             "((i64)lift_WIS * " + It->second + ");");
    }
  }

  /// Whether any statement in the list is (or contains) a loop. Only the
  /// inline body counts — calls to lowered user functions are leaf
  /// arithmetic as far as the vectorizer hint is concerned.
  static bool containsLoop(const std::vector<CStmtPtr> &Stmts) {
    for (const CStmtPtr &S : Stmts) {
      if (!S)
        continue;
      switch (S->getKind()) {
      case CStmtKind::For:
        return true;
      case CStmtKind::Block:
        if (containsLoop(static_cast<const Block &>(*S).getStmts()))
          return true;
        break;
      case CStmtKind::If: {
        const auto &I = static_cast<const If &>(*S);
        if ((I.getThen() && containsLoop(I.getThen()->getStmts())) ||
            (I.getElse() && containsLoop(I.getElse()->getStmts())))
          return true;
        break;
      }
      default:
        break;
      }
    }
    return false;
  }

  void emitRun(const std::vector<CStmtPtr> &Run) {
    if (Run.empty())
      return;
    // Fast mode marks flat work-item loops vectorizable: the lockstep
    // model makes per-item bodies independent by construction (cross-item
    // communication only happens at barriers, which bound the runs), so
    // the only loop-carried state is the error/cancel word — whose CAS
    // the simd clause merely keeps scalar. Bodies that contain a nested
    // sequential loop (a per-item reduce) are left alone: forcing
    // outer-loop vectorization there defeats the compiler's far better
    // inner-loop auto-vectorization.
    if (Mode == NativeMode::Fast && !containsLoop(Run)) {
      line("#if defined(_OPENMP)");
      line("#pragma omp simd");
      line("#endif");
    }
    line("for (i64 lift_li = 0; lift_li < lift_WIS; ++lift_li) {");
    {
      Indenter In(*this);
      for (const CStmtPtr &S : Run)
        emitItemStmt(S);
    }
    line("}");
  }

  void emitLocalArrayDecl(const VarDecl &D) {
    const CVar *V = D.getVar().get();
    checkArith(D.getArraySize());
    if (!arithUniform(D.getArraySize()))
      unsupported("local array '" + V->Name +
                  "' with a work-item-varying size");
    VarTy[V] = pointerTy(V->Ty, CAddrSpace::Local);
    // Allocated and zeroed once per group (the interpreter's
    // once-per-group-epoch semantics).
    line("lift_buf<" + typeName(V->Ty) + "> " + varName(V) + "(" +
         emitArith(D.getArraySize()) + ");");
  }

  /// Emits a group-uniform scalar declaration once at group scope, so
  /// barrier-containing control headers can legally reference it (the
  /// `int wg_id = get_group_id(0)` idiom in generated kernels).
  void emitUniformDecl(const VarDecl &D) {
    const CVar *V = D.getVar().get();
    CTypePtr InitTy = typeOf(D.getInit());
    if (!sameClass(InitTy, V->Ty))
      unsupported("initializer of '" + V->Name +
                  "' has a mismatched lowered type");
    VarTy[V] = V->Ty;
    line("const " + typeName(V->Ty) + " " + varName(V) + " = " +
         emitExpr(D.getInit()) + ";");
  }

  void emitGroupList(const std::vector<CStmtPtr> &Stmts) {
    // Pass 1: scalar declarations whose initializer is group-uniform and
    // that the kernel never reassigns hoist to group scope, in order —
    // later uniform initializers may reference earlier hoisted variables.
    // Uniform initializers cannot read per-item state (requireUniform
    // rejects memory reads and work-item ids), so evaluating them before
    // the per-item runs preserves the interpreter's results.
    std::vector<const VarDecl *> Uniform;
    for (const CStmtPtr &S : Stmts) {
      if (S->getKind() != CStmtKind::VarDecl || isLocalArrayDecl(S))
        continue;
      const auto &D = static_cast<const VarDecl &>(*S);
      const CVar *V = D.getVar().get();
      if (D.getArraySize() || !D.getInit() || AssignedVars.count(V) ||
          !isScalarClass(V->Ty) || !uniformExpr(D.getInit()))
        continue;
      UniformDecls.insert(V);
      GroupUniform.insert(V);
      Uniform.push_back(&D);
    }
    for (const VarDecl *D : Uniform)
      emitUniformDecl(*D);
    hoistAnalysis(Stmts);
    emitHoistedStorage(Stmts);
    std::vector<CStmtPtr> Run;
    auto Flush = [&] {
      emitRun(Run);
      Run.clear();
    };
    for (const CStmtPtr &S : Stmts) {
      if (S->getKind() == CStmtKind::VarDecl &&
          UniformDecls.count(
              static_cast<const VarDecl &>(*S).getVar().get()))
        continue; // already emitted at group scope
      if (isLocalArrayDecl(S)) {
        Flush();
        emitLocalArrayDecl(static_cast<const VarDecl &>(*S));
        continue;
      }
      if (!stmtHasBarrier(S)) {
        Run.push_back(S);
        continue;
      }
      Flush();
      switch (S->getKind()) {
      case CStmtKind::Barrier:
        // The fission point itself: work-items synchronize because the
        // surrounding run loops are serialized.
        line("// barrier (fission point)");
        break;
      case CStmtKind::Block: {
        line("{");
        {
          Indenter In(*this);
          emitGroupList(static_cast<const Block &>(*S).getStmts());
        }
        line("}");
        break;
      }
      case CStmtKind::For: {
        const auto &F = static_cast<const For &>(*S);
        const CVar *IV = F.getIV().get();
        requireUniform(F.getInit(), "loop header");
        CTypePtr InitTy = typeOf(F.getInit());
        if (!isIntClass(InitTy))
          unsupported("barrier-containing loop with a non-integer bound");
        VarTy[IV] = intTy();
        GroupUniform.insert(IV);
        // The IV itself is uniform (single group-level header), so it is
        // registered before checking the condition and step that use it.
        requireUniform(F.getCond(), "loop header");
        requireUniform(F.getStep(), "loop header");
        if (!isIntClass(typeOf(F.getStep())))
          unsupported("barrier-containing loop with a non-integer step");
        std::string N = varName(IV);
        line("for (i64 " + N + " = " + emitExpr(F.getInit()) + "; " +
             emitCond(F.getCond()) + "; " + N + " = " + emitExpr(F.getStep()) +
             ") {");
        {
          Indenter In(*this);
          emitGroupList(F.getBody()->getStmts());
        }
        line("}");
        break;
      }
      case CStmtKind::If: {
        const auto &I = static_cast<const If &>(*S);
        requireUniform(I.getCond(), "branch condition");
        line("if (" + emitCond(I.getCond()) + ") {");
        {
          Indenter In(*this);
          emitGroupList(I.getThen()->getStmts());
        }
        if (I.getElse()) {
          line("} else {");
          Indenter In(*this);
          emitGroupList(I.getElse()->getStmts());
        }
        line("}");
        break;
      }
      default:
        unsupported("barrier inside an unsupported statement (the "
                    "lockstep interpreter rejects this position too)");
      }
    }
    Flush();
  }

  //===------------------------------------------------------------------===//
  // Functions, structs, the kernel
  //===------------------------------------------------------------------===//

  /// Analyzes and (on first demand) emits the specialization of \p Fn
  /// for the argument classes \p ArgTys. The body is typed with the
  /// parameters bound to the ARGUMENT classes — the simulator's dynamic
  /// binding, where declared parameter types convert nothing. Nested
  /// calls trigger nested specializations; their text lands in SpecTexts
  /// before ours (define-before-use).
  const FnSpec &specialize(const CFunction *Fn,
                           const std::vector<CTypePtr> &ArgTys) {
    std::string SigKey;
    for (const CTypePtr &T : ArgTys)
      SigKey += typeName(T) + ",";
    auto &PerFn = FnSpecs[Fn];
    auto Cached = PerFn.find(SigKey);
    if (Cached != PerFn.end())
      return Cached->second;

    if (FnInProgress.count(Fn))
      unsupported("recursive user function '" + Fn->Name + "'");
    FnInProgress.insert(Fn);
    if (stmtHasBarrier(Fn->Body))
      unsupported("barrier inside user function '" + Fn->Name + "'");
    if (ArgTys.size() != Fn->Params.size())
      unsupported("call to '" + Fn->Name + "' with wrong arity");

    // The same body is typed anew per signature: snapshot the type map
    // (which also carries any previous specialization's body decls).
    auto SavedVarTy = VarTy;
    for (size_t I = 0; I != Fn->Params.size(); ++I) {
      const CTypePtr &T = ArgTys[I];
      if (!isScalarClass(T) && !vecWidth(T) &&
          !(T && T->getKind() == CTypeKind::Struct) &&
          !(T && T->getKind() == CTypeKind::Pointer))
        unsupported("argument " + std::to_string(I) + " of '" + Fn->Name +
                    "' has an unsupported type");
      VarTy[Fn->Params[I].get()] = T;
    }
    CTypePtr RT = scanReturnType(Fn->Body->getStmts());

    FnSpec Spec;
    Spec.Symbol = "lf_" + sanitize(Fn->Name) + "_s" +
                  std::to_string(SpecCounter++);
    Spec.Ret = RT;
    Spec.ParamTys = ArgTys;

    if (RT) {
      std::ostringstream SavedOut;
      Out.swap(SavedOut);
      std::string SavedIndent = Indent;
      Indent.clear();
      bool SavedInKernel = InKernel;
      InKernel = false;

      std::string Sig =
          "static " + typeName(RT) + " " + Spec.Symbol + "(int32_t *lift_ctl";
      for (size_t I = 0; I != Fn->Params.size(); ++I)
        Sig += ", " + typeName(ArgTys[I]) + " " +
               varName(Fn->Params[I].get());
      Sig += ") {";
      line(Sig);
      {
        Indenter In(*this);
        line("(void)lift_ctl;");
        for (const CStmtPtr &S : Fn->Body->getStmts())
          emitItemStmt(S);
      }
      line("}");
      line("");

      SpecTexts.push_back(Out.str());
      Out.swap(SavedOut);
      Indent = SavedIndent;
      InKernel = SavedInKernel;
    }

    VarTy = std::move(SavedVarTy);
    FnInProgress.erase(Fn);
    return PerFn.emplace(SigKey, std::move(Spec)).first->second;
  }

  CTypePtr scanReturnType(const std::vector<CStmtPtr> &Stmts) {
    for (const CStmtPtr &S : Stmts) {
      switch (S->getKind()) {
      case CStmtKind::VarDecl: {
        const auto &D = static_cast<const VarDecl &>(*S);
        const CVar *V = D.getVar().get();
        VarTy[V] = D.getArraySize()
                       ? pointerTy(V->Ty, D.getAddrSpace())
                       : V->Ty;
        break;
      }
      case CStmtKind::For: {
        const auto &F = static_cast<const For &>(*S);
        VarTy[F.getIV().get()] = typeOf(F.getInit());
        if (CTypePtr RT = scanReturnType(F.getBody()->getStmts()))
          return RT;
        break;
      }
      case CStmtKind::If: {
        const auto &I = static_cast<const If &>(*S);
        if (CTypePtr RT = scanReturnType(I.getThen()->getStmts()))
          return RT;
        if (I.getElse())
          if (CTypePtr RT = scanReturnType(I.getElse()->getStmts()))
            return RT;
        break;
      }
      case CStmtKind::Block:
        if (CTypePtr RT =
                scanReturnType(static_cast<const Block &>(*S).getStmts()))
          return RT;
        break;
      case CStmtKind::Return: {
        const auto &R = static_cast<const Return &>(*S);
        if (!R.getValue())
          unsupported("return without a value in a user function");
        return typeOf(R.getValue());
      }
      default:
        break;
      }
    }
    return nullptr;
  }

  void emitStructs() {
    for (const CTypePtr &T : K.Module.Structs) {
      const auto &S = static_cast<const StructCType &>(*T);
      line("struct " + typeName(T) + " {");
      {
        Indenter In(*this);
        unsigned I = 0;
        for (const auto &[Name, FieldTy] : S.getFields()) {
          (void)Name; // lowered fields are positional: f0, f1, ...
          line(typeName(FieldTy) + " f" + std::to_string(I++) + ";");
        }
      }
      line("};");
      line("");
    }
  }

  void collectArithVars(const CVarPtr &V) {
    if (!V || V->ArithId == 0)
      return;
    // Prefer the first carrier (kernel parameters are registered first).
    ArithVars.emplace(V->ArithId, V.get());
  }

  void collectArithVarsStmt(const CStmtPtr &S) {
    if (!S)
      return;
    switch (S->getKind()) {
    case CStmtKind::Block:
      for (const CStmtPtr &Sub : static_cast<const Block &>(*S).getStmts())
        collectArithVarsStmt(Sub);
      return;
    case CStmtKind::VarDecl:
      collectArithVars(static_cast<const VarDecl &>(*S).getVar());
      return;
    case CStmtKind::For: {
      const auto &F = static_cast<const For &>(*S);
      collectArithVars(F.getIV());
      collectArithVarsStmt(F.getBody());
      return;
    }
    case CStmtKind::If: {
      const auto &I = static_cast<const If &>(*S);
      collectArithVarsStmt(I.getThen());
      collectArithVarsStmt(I.getElse());
      return;
    }
    default:
      return;
    }
  }

  void emitEntry() {
    const CFunction *Kernel = K.Module.Kernel.get();
    if (!Kernel)
      unsupported("module without a kernel");

    line("extern \"C\" int32_t " + std::string(kEntryName) +
         "(void **lift_bufs, const int64_t *lift_scalars, "
         "int64_t lift_nthreads, int32_t *lift_ctl) {");
    Indenter In(*this);
    line("(void)lift_bufs;");
    line("(void)lift_scalars;");
    line("(void)lift_nthreads;");

    // NDRange constants, baked in like the simulator's LaunchConfig.
    const int64_t G0 = Global[0] / Local[0], G1 = Global[1] / Local[1],
                  G2 = Global[2] / Local[2];
    const int64_t WIS = Local[0] * Local[1] * Local[2];
    line("const i64 lift_L0 = " + std::to_string(Local[0]) +
         ", lift_L1 = " + std::to_string(Local[1]) +
         ", lift_L2 = " + std::to_string(Local[2]) + ";");
    line("const i64 lift_G0 = " + std::to_string(G0) + ", lift_G1 = " +
         std::to_string(G1) + ", lift_G2 = " + std::to_string(G2) + ";");
    line("const i64 lift_GS0 = " + std::to_string(Global[0]) +
         ", lift_GS1 = " + std::to_string(Global[1]) +
         ", lift_GS2 = " + std::to_string(Global[2]) + ";");
    line("const i64 lift_WIS = " + std::to_string(WIS) + ";");
    line("const i64 lift_NG = " + std::to_string(G0 * G1 * G2) + ";");
    line("(void)lift_L2; (void)lift_G2; (void)lift_GS0; (void)lift_GS1; "
         "(void)lift_GS2; (void)lift_WIS;");

    // Parameter unpacking, mirroring LaunchPlan::setup's binding order:
    // pointer parameters take bufs[] slots in declaration order (caller
    // buffers then temporaries); size and scalar-by-value parameters take
    // scalars[] slots in declaration order.
    size_t BufIdx = 0, ScalarIdx = 0;
    for (const auto &P : K.Params) {
      const CVar *V = P.Var.get();
      GroupUniform.insert(V);
      const bool IsBuffer =
          !P.IsSizeParam && P.Store && P.Store->NumElements != nullptr;
      if (IsBuffer) {
        CTypePtr Elem = P.Store->ElemType;
        if (!Elem)
          unsupported("buffer parameter '" + V->Name +
                      "' without an element type");
        if (Elem->getKind() == CTypeKind::Pointer)
          unsupported("buffer of pointers");
        VarTy[V] = pointerTy(Elem, CAddrSpace::Global);
        // Fast mode promises the compiler the flat buffers do not alias:
        // the launcher marshals every parameter into its own arena, so
        // distinct bufs[] slots never overlap.
        const char *Restrict =
            Mode == NativeMode::Fast ? "*__restrict__ " : "*";
        line(typeName(Elem) + " " + Restrict + varName(V) + " = (" +
             typeName(Elem) + " *)lift_bufs[" + std::to_string(BufIdx++) +
             "];");
      } else {
        // Size parameters and scalar-by-value parameters are bound as
        // integers (Value::makeInt) by the simulator.
        VarTy[V] = intTy();
        line("const i64 " + varName(V) + " = lift_scalars[" +
             std::to_string(ScalarIdx++) + "];");
      }
    }

    line("#if defined(_OPENMP)");
    line("#pragma omp parallel for num_threads((int)lift_nthreads) "
         "schedule(static)");
    line("#endif");
    line("for (i64 lift_g = 0; lift_g < lift_NG; ++lift_g) {");
    {
      Indenter InLoop(*this);
      line("if (__atomic_load_n(&lift_ctl[0], __ATOMIC_RELAXED))");
      line("  continue;");
      line("const i64 lift_g0 = lift_g % lift_G0;");
      line("const i64 lift_g1 = (lift_g / lift_G0) % lift_G1;");
      line("const i64 lift_g2 = lift_g / (lift_G0 * lift_G1);");
      line("(void)lift_g0; (void)lift_g1; (void)lift_g2;");
      InKernel = true;
      collectAssigned(Kernel->Body->getStmts());
      emitGroupList(Kernel->Body->getStmts());
      InKernel = false;
    }
    line("}");
    line("return __atomic_load_n(&lift_ctl[0], __ATOMIC_RELAXED) ? 1 : 0;");
    Out << "}\n";
  }
};

std::string NativePrinter::print() {
  codegen::computeVarSlots(K.Module); // idempotent; ensures CVar::Slot

  // Register every arith-carrying variable before any emission: kernel
  // parameters first (the canonical carriers), then declarations and
  // loop variables anywhere in the module.
  for (const auto &P : K.Params)
    collectArithVars(P.Var);
  for (const CFunctionPtr &Fn : K.Module.Functions) {
    for (const CVarPtr &P : Fn->Params)
      collectArithVars(P);
    collectArithVarsStmt(Fn->Body);
  }
  if (K.Module.Kernel)
    collectArithVarsStmt(K.Module.Kernel->Body);

  // Lookup tables: storage ids whose backing variable is a scalar-element
  // buffer parameter, readable (with its declared element count) from the
  // entry body via lift_lookup.
  for (const auto &P : K.Params)
    if (!P.IsSizeParam && P.Store && P.Store->NumElements)
      BufferCount.emplace(P.Var.get(), P.Store->NumElements);
  for (const auto &[Id, Var] : K.StorageVars)
    for (const auto &P : K.Params)
      if (P.Var == Var && !P.IsSizeParam && P.Store && P.Store->NumElements &&
          P.Store->ElemType &&
          P.Store->ElemType->getKind() == CTypeKind::Scalar)
        LookupTables.emplace(Id,
                             std::make_pair(P.Var.get(), P.Store->NumElements));

  // The entry is emitted first, into a scratch stream: user-function
  // specializations are discovered at their call sites (per argument
  // classes, mirroring the simulator's dynamic binding), so the function
  // definitions are only known afterwards.
  emitEntry();
  std::string EntryText = Out.str();
  Out.str("");
  emitStructs();
  std::string StructText = Out.str();
  Out.str("");

  Out << kPreambleHead;
  Out << (Mode == NativeMode::Fast ? kFastTypes : kExactTypes);
  Out << kPreamble;
  Out << "\nnamespace {\n\n";
  Out << StructText;
  for (const std::string &S : SpecTexts)
    Out << S;
  Out << "} // namespace\n\n";
  Out << EntryText;
  return Out.str();
}

//===----------------------------------------------------------------------===//
// Conservative may-write analysis
//===----------------------------------------------------------------------===//

/// See nativeWrittenBuffers (NativePrinter.h). Per function body, the
/// variables the code may store through are collected with local alias
/// tracking: pointer-valued declarations and assignments fold their
/// initializer's referenced variables into an alias map (the reduction
/// ping-pong `it_in = it_out` idiom), array/member stores and vstores
/// mark the roots of their base expression, and user-function calls mark
/// the roots of every argument the callee may write through (a global
/// fixed point over the call graph). Anything unrecognized marks its
/// roots written — the analysis may only ever over-approximate.
class WriteAnalysis {
public:
  explicit WriteAnalysis(const codegen::CompiledKernel &K) : K(K) {}

  std::vector<bool> run() {
    // Callee write-sets start empty and only grow, so the fixed point
    // terminates; the pass cap is belt and braces (the printer rejects
    // recursive functions anyway).
    for (int Pass = 0; Pass != 8; ++Pass) {
      bool Changed = false;
      for (const CFunctionPtr &Fn : K.Module.Functions) {
        std::set<size_t> W = paramWrites(*Fn);
        if (W != FnWrites[Fn.get()]) {
          FnWrites[Fn.get()] = std::move(W);
          Changed = true;
        }
      }
      if (!Changed)
        break;
    }

    std::vector<bool> Result;
    if (!K.Module.Kernel) {
      for (const auto &P : K.Params)
        if (!P.IsSizeParam && P.Store && P.Store->NumElements)
          Result.push_back(true);
      return Result;
    }
    Alias.clear();
    Written.clear();
    analyzeList(K.Module.Kernel->Body->getStmts());
    for (const auto &P : K.Params)
      if (!P.IsSizeParam && P.Store && P.Store->NumElements)
        Result.push_back(writes(P.Var.get()));
    return Result;
  }

private:
  const codegen::CompiledKernel &K;
  std::unordered_map<const CFunction *, std::set<size_t>> FnWrites;
  /// Pointer-valued variable -> variables its value may be derived from.
  std::unordered_map<const CVar *, std::unordered_set<const CVar *>> Alias;
  std::unordered_set<const CVar *> Written;

  std::set<size_t> paramWrites(const CFunction &Fn) {
    Alias.clear();
    Written.clear();
    analyzeList(Fn.Body->getStmts());
    std::set<size_t> R;
    for (size_t I = 0; I != Fn.Params.size(); ++I)
      if (writes(Fn.Params[I].get()))
        R.insert(I);
    return R;
  }

  bool writes(const CVar *V) const {
    if (Written.count(V))
      return true;
    // Alias sets can still grow after a variable lands in Written (loop
    // bodies are walked twice, but chains can straddle the passes) — so
    // membership is re-expanded at query time.
    for (const CVar *W : Written) {
      auto It = Alias.find(W);
      if (It != Alias.end() && It->second.count(V))
        return true;
    }
    return false;
  }

  /// Every variable \p E's value may be derived from, expanded through
  /// the alias map at collection time.
  void exprRoots(const CExprPtr &E, std::unordered_set<const CVar *> &R) {
    if (!E)
      return;
    if (E->getKind() == CExprKind::VarRef) {
      const CVar *V = static_cast<const VarRef &>(*E).getVar().get();
      R.insert(V);
      auto It = Alias.find(V);
      if (It != Alias.end())
        R.insert(It->second.begin(), It->second.end());
      return;
    }
    forEachChild(E, [&](const CExprPtr &Sub) { exprRoots(Sub, R); });
  }

  void markWritten(const CExprPtr &E) {
    std::unordered_set<const CVar *> R;
    exprRoots(E, R);
    Written.insert(R.begin(), R.end());
  }

  /// The base of a store target: buf[idx] marks buf's roots (the index
  /// only reads); v.f0 recurses to the underlying base; a plain variable
  /// write is a value assignment, not a store through memory.
  void markStoreBase(const CExprPtr &Lhs) {
    switch (Lhs->getKind()) {
    case CExprKind::ArrayAccess:
      markWritten(static_cast<const ArrayAccess &>(*Lhs).getBase());
      return;
    case CExprKind::Member:
      markStoreBase(static_cast<const Member &>(*Lhs).getBase());
      return;
    case CExprKind::VarRef:
      return;
    default:
      markWritten(Lhs); // unrecognized lvalue: over-approximate
      return;
    }
  }

  template <class Fn> void forEachChild(const CExprPtr &E, Fn F) {
    switch (E->getKind()) {
    case CExprKind::IntLit:
    case CExprKind::FloatLit:
    case CExprKind::VarRef:
    case CExprKind::ArithValue:
      return;
    case CExprKind::ArrayAccess: {
      const auto &A = static_cast<const ArrayAccess &>(*E);
      F(A.getBase());
      F(A.getIndex());
      return;
    }
    case CExprKind::Member:
      F(static_cast<const Member &>(*E).getBase());
      return;
    case CExprKind::Binary: {
      const auto &B = static_cast<const Binary &>(*E);
      F(B.getLhs());
      F(B.getRhs());
      return;
    }
    case CExprKind::Unary:
      F(static_cast<const Unary &>(*E).getSub());
      return;
    case CExprKind::Call:
      for (const CExprPtr &A : static_cast<const Call &>(*E).getArgs())
        F(A);
      return;
    case CExprKind::Ternary: {
      const auto &T = static_cast<const Ternary &>(*E);
      F(T.getCond());
      F(T.getThen());
      F(T.getElse());
      return;
    }
    case CExprKind::CastExpr:
      F(static_cast<const CastExpr &>(*E).getSub());
      return;
    case CExprKind::ConstructVector:
      for (const CExprPtr &A :
           static_cast<const ConstructVector &>(*E).getArgs())
        F(A);
      return;
    case CExprKind::ConstructStruct:
      for (const CExprPtr &A :
           static_cast<const ConstructStruct &>(*E).getArgs())
        F(A);
      return;
    case CExprKind::VectorLoad: {
      const auto &V = static_cast<const VectorLoad &>(*E);
      F(V.getIndex());
      F(V.getPointer());
      return;
    }
    case CExprKind::VectorStore: {
      const auto &V = static_cast<const VectorStore &>(*E);
      F(V.getValue());
      F(V.getIndex());
      F(V.getPointer());
      return;
    }
    }
  }

  /// Side effects reachable anywhere inside \p E: vstores write through
  /// their pointer; calls write through the arguments the callee may
  /// store through (unknown callees over-approximate to every argument).
  void exprEffects(const CExprPtr &E) {
    if (!E)
      return;
    if (E->getKind() == CExprKind::VectorStore)
      markWritten(static_cast<const VectorStore &>(*E).getPointer());
    if (E->getKind() == CExprKind::Call) {
      const auto &C = static_cast<const Call &>(*E);
      if (classifyBuiltin(C.getCallee()) == CallKind::User) {
        CFunctionPtr Fn = K.Module.findFunction(C.getCallee());
        if (Fn) {
          auto It = FnWrites.find(Fn.get());
          if (It != FnWrites.end())
            for (size_t I : It->second)
              if (I < C.getArgs().size())
                markWritten(C.getArgs()[I]);
        } else {
          for (const CExprPtr &A : C.getArgs())
            markWritten(A);
        }
      }
    }
    forEachChild(E, [&](const CExprPtr &Sub) { exprEffects(Sub); });
  }

  /// Walked twice so aliases established late in a loop body (the
  /// end-of-iteration buffer swap) cover uses earlier in it.
  void analyzeList(const std::vector<CStmtPtr> &Stmts) {
    for (int Pass = 0; Pass != 2; ++Pass)
      for (const CStmtPtr &S : Stmts)
        analyzeStmt(S);
  }

  void analyzeStmt(const CStmtPtr &S) {
    if (!S)
      return;
    switch (S->getKind()) {
    case CStmtKind::Block:
      for (const CStmtPtr &Sub : static_cast<const Block &>(*S).getStmts())
        analyzeStmt(Sub);
      return;
    case CStmtKind::VarDecl: {
      const auto &D = static_cast<const VarDecl &>(*S);
      if (D.getInit()) {
        exprEffects(D.getInit());
        std::unordered_set<const CVar *> R;
        exprRoots(D.getInit(), R);
        Alias[D.getVar().get()].insert(R.begin(), R.end());
      }
      return;
    }
    case CStmtKind::Assign: {
      const auto &A = static_cast<const Assign &>(*S);
      exprEffects(A.getRhs());
      if (A.getLhs()->getKind() == CExprKind::VarRef) {
        std::unordered_set<const CVar *> R;
        exprRoots(A.getRhs(), R);
        Alias[static_cast<const VarRef &>(*A.getLhs()).getVar().get()]
            .insert(R.begin(), R.end());
      } else {
        exprEffects(A.getLhs());
        markStoreBase(A.getLhs());
      }
      return;
    }
    case CStmtKind::ExprStmt:
      exprEffects(static_cast<const ExprStmt &>(*S).getExpr());
      return;
    case CStmtKind::For: {
      const auto &F = static_cast<const For &>(*S);
      exprEffects(F.getInit());
      exprEffects(F.getCond());
      exprEffects(F.getStep());
      for (const CStmtPtr &Sub : F.getBody()->getStmts())
        analyzeStmt(Sub);
      return;
    }
    case CStmtKind::If: {
      const auto &I = static_cast<const If &>(*S);
      exprEffects(I.getCond());
      for (const CStmtPtr &Sub : I.getThen()->getStmts())
        analyzeStmt(Sub);
      if (I.getElse())
        for (const CStmtPtr &Sub : I.getElse()->getStmts())
          analyzeStmt(Sub);
      return;
    }
    case CStmtKind::Return:
      exprEffects(static_cast<const Return &>(*S).getValue());
      return;
    case CStmtKind::Barrier:
    case CStmtKind::Comment:
      return;
    }
  }
};

} // namespace

std::string lift::native::printNativeModule(const codegen::CompiledKernel &K,
                                            NativeMode Mode) {
  return NativePrinter(K, K.Options.GlobalSize, K.Options.LocalSize, Mode)
      .print();
}

std::string
lift::native::printNativeModule(const codegen::CompiledKernel &K,
                                const std::array<int64_t, 3> &Global,
                                const std::array<int64_t, 3> &Local,
                                NativeMode Mode) {
  return NativePrinter(K, Global, Local, Mode).print();
}

std::vector<bool>
lift::native::nativeWrittenBuffers(const codegen::CompiledKernel &K) {
  return WriteAnalysis(K).run();
}
