//===- Native.cpp - dlopen-based native CPU execution ---------------------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "native/Native.h"

#include "arith/Eval.h"
#include "native/NativePrinter.h"
#include "support/ContentStore.h"
#include "support/FaultInject.h"
#include "support/Retry.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include <dlfcn.h>
#include <unistd.h>

#include "ocl/ThreadPool.h"

using namespace lift;
using namespace lift::native;
using namespace lift::ocl;

namespace {

//===----------------------------------------------------------------------===//
// Toolchain and cache
//===----------------------------------------------------------------------===//

/// Exact-mode flags. -fwrapv matches the interpreter's wrapping int64
/// arithmetic at the C++ level too (the generated code already wraps
/// through uint64 helpers); -ffp-contract=off keeps every double
/// operation a distinct IEEE rounding step so results are bit-identical
/// to the interpreter's; -ffast-math is deliberately absent. Both modes
/// build with -Werror=narrowing: GCC only warns about a narrowing braced
/// initializer, which is ill-formed C++ that other compilers reject.
const char *const kBaseFlags = "-std=c++17 -O2 -fPIC -shared -fwrapv "
                               "-ffp-contract=off -Werror=narrowing";

/// Fast-mode flags: the printer already emitted natively-typed scalars
/// and `#pragma omp simd` loops, so the build is allowed to contract
/// (default -ffp-contract) and to use the host ISA. -fwrapv stays: fast
/// mode narrows the int domain, it does not make overflow undefined.
/// -ffast-math remains absent — NaN/Inf propagation is part of the
/// documented fast-mode contract (docs/NATIVE_BACKEND.md).
const char *const kFastFlags =
    "-std=c++17 -O3 -march=native -fPIC -shared -fwrapv -Werror=narrowing";

const char *flagsFor(NativeMode Mode) {
  return Mode == NativeMode::Fast ? kFastFlags : kBaseFlags;
}

/// The shared-object store's directory: $LIFT_NATIVE_CACHE_DIR, read
/// afresh on every launch, or ".lift-native".
std::string cacheDirectory() {
  const char *Env = std::getenv("LIFT_NATIVE_CACHE_DIR");
  return Env && *Env ? Env : ".lift-native";
}

bool commandExists(const std::string &Name) {
  std::string Cmd = "command -v " + Name + " >/dev/null 2>&1";
  int RC = std::system(Cmd.c_str());
  return RC == 0;
}

/// Last \p Max characters of a file (compiler stderr for E0604 notes).
std::string fileTail(const std::string &Path, size_t Max = 2000) {
  std::ifstream In(Path);
  if (!In)
    return {};
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string S = SS.str();
  while (!S.empty() && (S.back() == '\n' || S.back() == '\r'))
    S.pop_back();
  if (S.size() > Max)
    S = "..." + S.substr(S.size() - Max);
  return S;
}

/// Files removed at scope exit — failure paths leak no temporaries into
/// the cache directory.
class TempFiles {
public:
  ~TempFiles() {
    for (const std::string &P : Paths)
      ::remove(P.c_str());
  }
  void add(std::string P) { Paths.push_back(std::move(P)); }

private:
  std::vector<std::string> Paths;
};

struct LoadedEntry {
  using EntryFn = int32_t (*)(void **, const int64_t *, int64_t, int32_t *);
  EntryFn Fn = nullptr;
  double CompileMs = 0;
  bool CacheHit = false;
};

[[noreturn]] void nativeFail(DiagCode Code, const std::string &Kernel,
                             const std::string &Msg,
                             std::vector<std::string> Notes = {}) {
  throwDiag(Code, DiagLocation::inContext(Kernel), "native: " + Msg,
            std::move(Notes));
}

/// Non-fatal degradation notices (E0609/E0611): recorded as warnings when
/// the caller supplied an engine, printed to stderr otherwise.
void nativeWarn(DiagnosticEngine *Engine, DiagCode Code,
                const std::string &Kernel, const std::string &Msg) {
  if (Engine)
    Engine->warning(Code, DiagLocation::inContext(Kernel), "native: " + Msg);
  else
    std::fprintf(stderr, "lift: warning: native: %s\n", Msg.c_str());
}

/// Process-lifetime dlopen handle cache (healthy artifacts are never
/// dlclosed: entry pointers may be cached by callers). File-scope so the
/// integrity gate can evict the handle of an artifact it is about to
/// replace.
std::mutex HandlesM;
std::unordered_map<std::string, void *> Handles;

/// Evicts (and dlcloses) the handle of a corrupt artifact. The dlclose is
/// required for correctness, not hygiene: glibc's dlopen matches
/// already-loaded objects by path, so recompiling to the same path and
/// re-dlopening would hand back the stale mapping of the corrupt file —
/// whose pages may no longer even be backed (SIGBUS on execution when the
/// file was truncated in place). Dropping the last reference unmaps it so
/// the replacement artifact really gets loaded.
void invalidateHandle(const std::string &SoPath) {
  std::lock_guard<std::mutex> L(HandlesM);
  auto It = Handles.find(SoPath);
  if (It == Handles.end())
    return;
  ::dlclose(It->second);
  Handles.erase(It);
}

/// Compiles (or reuses) the shared object for \p Source and resolves the
/// kernel entry point. Throws DiagnosticError on every failure; the
/// injected-fault sites fire before the operation they model so a faulted
/// run performs no partial work. Transient steps (compile, dlopen, dlsym)
/// run under the deterministic retry policy. Artifacts live in the native
/// content store as <Key>.so: a cached .so is reused only when it passes
/// the store's integrity check; a corrupt one is quarantined and
/// recompiled with an E0611 warning into \p Engine.
LoadedEntry loadEntry(const std::string &Source, const std::string &Flags,
                      const std::string &Key, const std::string &Kernel,
                      DiagnosticEngine *Engine) {
  LoadedEntry R;

  const std::string Compiler = toolchainCompiler();
  if (Compiler.empty())
    nativeFail(DiagCode::NativeToolchainMissing, Kernel,
               "no usable C++ compiler found",
               {"set LIFT_NATIVE_CXX or install c++/g++/clang++; the "
                "simulator backend needs no toolchain"});

  const std::string Dir = cacheDirectory();
  const support::ContentStore Store(Dir);
  const std::string Name = Key + ".so";
  const std::string SoPath = Store.path(Name);
  const retry::Policy Pol = retry::Policy::fromEnv();

  // The key only proves what source an artifact was compiled for, not
  // that its bytes are intact: a corrupt .so must recompile, never reach
  // dlopen, and its stale handle must go (see invalidateHandle).
  auto Cached = [&] {
    support::ContentStore::Entry E = Store.get(Name);
    if (E.K == support::ContentStore::Entry::Corrupt) {
      nativeWarn(Engine, DiagCode::NativeArtifactCorrupt, Kernel,
                 "cached shared object failed its integrity check; "
                 "quarantined and recompiling (" + E.Why + ")");
      invalidateHandle(SoPath);
    }
    return E.K == support::ContentStore::Entry::Hit;
  };

  // The build's temporaries outlive the dlopen below: an object the store
  // could not publish is loaded from its build path instead.
  TempFiles Tmp;
  std::string LoadPath = SoPath;
  R.CacheHit = Cached();
  if (!R.CacheHit) {
    // Cross-process single-flight: two processes cold-starting on the
    // same key serialize here, and the loser reuses the winner's
    // artifact instead of compiling it again.
    support::FileLock Lock = Store.lock(Name);
    R.CacheHit = Cached();
    if (!R.CacheHit) {
      const std::string Tag = Key + "." + std::to_string(::getpid());
      const std::string CppTmp = Dir + "/" + Tag + ".tmp.cpp";
      const std::string SoTmp = Dir + "/" + Tag + ".tmp.so";
      const std::string ErrTmp = Dir + "/" + Tag + ".tmp.err";
      Tmp.add(CppTmp);
      Tmp.add(SoTmp);
      Tmp.add(ErrTmp);
      std::optional<std::string> OpenMPFailure;
      retry::runWithRetry(Pol, "native compile", [&] {
        if (fault::shouldFail(fault::Site::NativeCompile))
          nativeFail(DiagCode::RuntimeFaultInjected, Kernel,
                     "injected fault: compiling the native kernel failed");
        {
          std::ofstream Out(CppTmp);
          Out << Source;
          if (!Out)
            nativeFail(DiagCode::NativeCompileFailed, Kernel,
                       "could not write the generated source to '" + CppTmp +
                           "'");
        }

        auto Start = std::chrono::steady_clock::now();
        auto Run = [&](bool OpenMP) {
          std::string Cmd = Compiler + " " + Flags +
                            (OpenMP ? " -fopenmp" : "") + " -o " + SoTmp +
                            " " + CppTmp + " 2> " + ErrTmp;
          return std::system(Cmd.c_str());
        };
        // Prefer OpenMP; fall back to a serial build when the toolchain
        // has no OpenMP runtime (the generated pragma is _OPENMP-guarded).
        int RC = Run(/*OpenMP=*/true);
        if (RC != 0) {
          OpenMPFailure = fileTail(ErrTmp);
          RC = Run(/*OpenMP=*/false);
        }
        R.CompileMs = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - Start)
                          .count();
        if (RC != 0) {
          std::string Tail = fileTail(ErrTmp);
          std::vector<std::string> Notes;
          if (!Tail.empty())
            Notes.push_back("compiler output: " + Tail);
          Notes.push_back("command: " + Compiler + " " + Flags);
          nativeFail(DiagCode::NativeCompileFailed, Kernel,
                     "the system compiler rejected the generated source",
                     std::move(Notes));
        }
      });
      if (OpenMPFailure) {
        const std::string Msg =
            "native: the -fopenmp build failed, so the kernel was built "
            "without OpenMP and runs on one thread (compiler output: " +
            (OpenMPFailure->empty() ? "none" : *OpenMPFailure) + ")";
        if (Engine)
          Engine->note(DiagLocation::inContext(Kernel), Msg);
        else
          std::fprintf(stderr, "lift: note: %s\n", Msg.c_str());
      }

      // Not caching the object is a degradation, not an error: this
      // process loads it from the build, the next one recompiles.
      std::ifstream In(SoTmp, std::ios::binary);
      if (!In)
        nativeFail(DiagCode::NativeCompileFailed, Kernel,
                   "could not read the compiled object '" + SoTmp + "'");
      std::string Object{std::istreambuf_iterator<char>(In), {}};
      std::string Err;
      if (!Store.put(Name, Object, Err)) {
        nativeWarn(Engine, DiagCode::CacheWriteFailed, Kernel,
                   "compiled object not cached; the next process will "
                   "recompile (" + Err + ")");
        LoadPath = SoTmp;
      }
    }
  }

  retry::runWithRetry(Pol, "native load", [&] {
    // The load fault fires before the in-process handle cache is
    // consulted so a seeded sweep hits it deterministically on every
    // launch.
    if (fault::shouldFail(fault::Site::NativeLoad))
      nativeFail(DiagCode::RuntimeFaultInjected, Kernel,
                 "injected fault: loading the native kernel object failed");

    void *Handle = nullptr;
    {
      std::lock_guard<std::mutex> L(HandlesM);
      auto It = Handles.find(LoadPath);
      if (It != Handles.end())
        Handle = It->second;
    }
    if (!Handle) {
      Handle = ::dlopen(LoadPath.c_str(), RTLD_NOW | RTLD_LOCAL);
      if (!Handle) {
        const char *Err = ::dlerror();
        nativeFail(DiagCode::NativeLoadFailed, Kernel,
                   "dlopen failed for '" + LoadPath + "'",
                   {Err ? Err : "no dlerror detail"});
      }
      std::lock_guard<std::mutex> L(HandlesM);
      Handles.emplace(LoadPath, Handle);
    }

    if (fault::shouldFail(fault::Site::NativeSym))
      nativeFail(DiagCode::RuntimeFaultInjected, Kernel,
                 "injected fault: resolving the native kernel entry failed");

    void *Sym = ::dlsym(Handle, kEntryName);
    if (!Sym)
      nativeFail(DiagCode::NativeSymbolMissing, Kernel,
                 std::string("entry symbol '") + kEntryName +
                     "' not found in '" + LoadPath + "'");
    R.Fn = reinterpret_cast<LoadedEntry::EntryFn>(Sym);
  });
  return R;
}

//===----------------------------------------------------------------------===//
// Marshalling
//===----------------------------------------------------------------------===//

/// Flattened element layout: one entry per 8-byte word, true = double
/// domain, false = int64 domain. Mirrors the generated struct/vector
/// lowering, whose members are all 8-byte doubles and int64s (no
/// padding).
struct WordLayout {
  std::vector<bool> FloatWord;
  size_t words() const { return FloatWord.size(); }
};

void layoutType(const c::CTypePtr &T, WordLayout &L,
                const std::string &Kernel) {
  if (!T)
    nativeFail(DiagCode::NativeUnsupported, Kernel,
               "buffer element of unknown type");
  switch (T->getKind()) {
  case c::CTypeKind::Scalar: {
    auto K = static_cast<const c::ScalarCType &>(*T).getScalarKind();
    L.FloatWord.push_back(K == c::CScalarKind::Float ||
                          K == c::CScalarKind::Double);
    return;
  }
  case c::CTypeKind::Vector: {
    unsigned W = static_cast<const c::VectorCType &>(*T).getWidth();
    for (unsigned I = 0; I != W; ++I)
      L.FloatWord.push_back(true);
    return;
  }
  case c::CTypeKind::Struct: {
    for (const auto &[Name, FieldTy] :
         static_cast<const c::StructCType &>(*T).getFields()) {
      (void)Name;
      layoutType(FieldTy, L, Kernel);
    }
    return;
  }
  case c::CTypeKind::Void:
  case c::CTypeKind::Pointer:
    nativeFail(DiagCode::NativeUnsupported, Kernel,
               "buffer element of non-value type");
  }
}

inline uint64_t doubleBits(double D) {
  uint64_t U;
  std::memcpy(&U, &D, sizeof(U));
  return U;
}

inline double bitsDouble(uint64_t U) {
  double D;
  std::memcpy(&D, &U, sizeof(D));
  return D;
}

/// Leaf writers over a raw byte cursor. Exact mode stores every leaf as
/// an 8-byte word (double bit pattern / wrapped int64, matching the
/// generated `lift_f = double` / `lift_i = int64_t` typedefs) and is
/// bit-preserving in both directions. Fast mode stores natively-typed
/// 4-byte leaves (`float` / `int32_t`): marshalling rounds the double to
/// the nearest float and truncates the int64, exactly the conversions
/// the generated fast-mode loads and stores would perform themselves.
inline void writeFloatLeaf(unsigned char *&P, bool Fast, double D) {
  if (Fast) {
    float F = static_cast<float>(D);
    std::memcpy(P, &F, sizeof(F));
    P += sizeof(F);
  } else {
    uint64_t U = doubleBits(D);
    std::memcpy(P, &U, sizeof(U));
    P += sizeof(U);
  }
}

inline void writeIntLeaf(unsigned char *&P, bool Fast, int64_t V) {
  if (Fast) {
    int32_t I = static_cast<int32_t>(V);
    std::memcpy(P, &I, sizeof(I));
    P += sizeof(I);
  } else {
    uint64_t U = static_cast<uint64_t>(V);
    std::memcpy(P, &U, sizeof(U));
    P += sizeof(U);
  }
}

inline double readFloatLeaf(const unsigned char *&P, bool Fast) {
  if (Fast) {
    float F;
    std::memcpy(&F, P, sizeof(F));
    P += sizeof(F);
    return static_cast<double>(F);
  }
  uint64_t U;
  std::memcpy(&U, P, sizeof(U));
  P += sizeof(U);
  return bitsDouble(U);
}

inline int64_t readIntLeaf(const unsigned char *&P, bool Fast) {
  if (Fast) {
    int32_t I;
    std::memcpy(&I, P, sizeof(I));
    P += sizeof(I);
    return static_cast<int64_t>(I);
  }
  uint64_t U;
  std::memcpy(&U, P, sizeof(U));
  P += sizeof(U);
  return static_cast<int64_t>(U);
}

/// Writes one simulator Value into the arena following the element type
/// shape; scalar values broadcast into vector/struct leaves exactly like
/// the interpreter's reads would convert them.
void marshalValue(const c::CTypePtr &T, const Value &V, unsigned char *&P,
                  bool Fast) {
  switch (T->getKind()) {
  case c::CTypeKind::Scalar: {
    auto K = static_cast<const c::ScalarCType &>(*T).getScalarKind();
    if (K == c::CScalarKind::Float || K == c::CScalarKind::Double)
      writeFloatLeaf(P, Fast, V.asFloat());
    else
      writeIntLeaf(P, Fast, V.asInt());
    return;
  }
  case c::CTypeKind::Vector: {
    unsigned W = static_cast<const c::VectorCType &>(*T).getWidth();
    if (V.K == Value::Vec && V.V.size() == W) {
      for (unsigned I = 0; I != W; ++I)
        writeFloatLeaf(P, Fast, V.V[I]);
    } else {
      double S = V.asFloat(); // scalar element: broadcast, like the
                              // interpreter's per-component reads
      for (unsigned I = 0; I != W; ++I)
        writeFloatLeaf(P, Fast, S);
    }
    return;
  }
  case c::CTypeKind::Struct: {
    const auto &Fields = static_cast<const c::StructCType &>(*T).getFields();
    if (V.K == Value::Tup && V.T.size() == Fields.size()) {
      for (size_t I = 0; I != Fields.size(); ++I)
        marshalValue(Fields[I].second, V.T[I], P, Fast);
    } else {
      for (const auto &[Name, FieldTy] : Fields) {
        (void)Name;
        marshalValue(FieldTy, V, P, Fast);
      }
    }
    return;
  }
  default:
    return; // rejected by layoutType already
  }
}

/// Rebuilds a simulator Value from the bytes the native kernel wrote.
Value unmarshalValue(const c::CTypePtr &T, const unsigned char *&P,
                     bool Fast) {
  switch (T->getKind()) {
  case c::CTypeKind::Scalar: {
    auto K = static_cast<const c::ScalarCType &>(*T).getScalarKind();
    if (K == c::CScalarKind::Float || K == c::CScalarKind::Double)
      return Value::makeFloat(readFloatLeaf(P, Fast));
    return Value::makeInt(readIntLeaf(P, Fast));
  }
  case c::CTypeKind::Vector: {
    unsigned W = static_cast<const c::VectorCType &>(*T).getWidth();
    VecN Comps;
    Comps.reserve(W);
    for (unsigned I = 0; I != W; ++I)
      Comps.push_back(readFloatLeaf(P, Fast));
    return Value::makeVec(std::move(Comps));
  }
  case c::CTypeKind::Struct: {
    const auto &Fields = static_cast<const c::StructCType &>(*T).getFields();
    std::vector<Value> Elems;
    Elems.reserve(Fields.size());
    for (const auto &[Name, FieldTy] : Fields) {
      (void)Name;
      Elems.push_back(unmarshalValue(FieldTy, P, Fast));
    }
    return Value::makeTuple(std::move(Elems));
  }
  default:
    return Value();
  }
}

/// Value-count to simulated-byte conversion, saturating — the same
/// accounting the interpreter's memory cap uses, so a launch trips the
/// cap identically on either backend.
inline uint64_t simBytesFor(uint64_t Count) {
  if (Count > std::numeric_limits<uint64_t>::max() / sizeof(Value))
    return std::numeric_limits<uint64_t>::max();
  return Count * sizeof(Value);
}

//===----------------------------------------------------------------------===//
// Launch
//===----------------------------------------------------------------------===//

struct MarshalledParam {
  const codegen::KernelParamInfo *Param = nullptr;
  Buffer *Caller = nullptr; ///< null for compiler temporaries
  WordLayout Layout;
  size_t Elements = 0;
  bool Written = true; ///< may the kernel store through this buffer?
};

/// Per-artifact launch state that survives across launches, keyed by the
/// same fnv1a hash that names the on-disk .so. The write-set analysis
/// runs once per artifact; the marshalling arenas keep their capacity
/// between launches so a cache-hit launch re-fills memory instead of
/// re-allocating it. The arenas are taken with try_lock — a concurrent
/// launch of the same artifact falls back to launch-local storage rather
/// than serializing. Note the .so integrity gate in loadEntry still runs
/// on every launch; the plan deliberately caches nothing that gate
/// protects.
struct LaunchPlan {
  std::once_flag Init;
  std::vector<bool> WrittenBuffers; ///< nativeWrittenBuffers(K), once
  std::mutex ArenaM;
  std::vector<std::vector<unsigned char>> Arenas;
  std::vector<std::vector<unsigned char>> Saved;
};

std::mutex PlansM;
std::unordered_map<std::string, std::shared_ptr<LaunchPlan>> &plans() {
  static auto *P =
      new std::unordered_map<std::string, std::shared_ptr<LaunchPlan>>();
  return *P;
}

std::shared_ptr<LaunchPlan> planFor(const std::string &Key) {
  std::lock_guard<std::mutex> L(PlansM);
  std::shared_ptr<LaunchPlan> &P = plans()[Key];
  if (!P)
    P = std::make_shared<LaunchPlan>();
  return P;
}

NativeLaunchResult launchNativeImpl(const codegen::CompiledKernel &K,
                                    const std::vector<Buffer *> &Buffers,
                                    const std::map<std::string, int64_t> &Sizes,
                                    const LaunchConfig &Cfg,
                                    DiagnosticEngine *Engine,
                                    NativeMode Mode) {
  const std::string Kernel =
      K.Module.Kernel ? K.Module.Kernel->Name : std::string("kernel");

  // NDRange validation: same checks and messages as the simulator.
  for (int D = 0; D != 3; ++D) {
    if (Cfg.Local[D] <= 0 || Cfg.Global[D] <= 0)
      throwDiag(DiagCode::RuntimeBadNDRange, DiagLocation(),
                "launch: degenerate NDRange in dimension " +
                    std::to_string(D) + ": global size " +
                    std::to_string(Cfg.Global[D]) + ", local size " +
                    std::to_string(Cfg.Local[D]) +
                    " (both must be positive)");
    if (Cfg.Global[D] % Cfg.Local[D] != 0)
      throwDiag(DiagCode::RuntimeBadNDRange, DiagLocation(),
                "launch: global size " + std::to_string(Cfg.Global[D]) +
                    " is not divisible by local size " +
                    std::to_string(Cfg.Local[D]) + " in dimension " +
                    std::to_string(D));
  }

  const ExecLimits Lim = ExecLimits::withEnvDefaults(Cfg.Limits);

  // Lower to C++ (throws E0607 for out-of-subset constructs) and build.
  // The artifact key covers source, flags and compiler, so the two modes
  // never share a .so or a launch plan.
  NativeLaunchResult Result;
  Result.Source = printNativeModule(K, Cfg.Global, Cfg.Local, Mode);
  const std::string Flags = flagsFor(Mode);
  const std::string Key = support::contentHash(Result.Source + "|" + Flags +
                                               "|" + toolchainCompiler());
  LoadedEntry Entry = loadEntry(Result.Source, Flags, Key, Kernel, Engine);
  Result.CompileMs = Entry.CompileMs;
  Result.CacheHit = Entry.CacheHit;

  // Argument binding, mirroring the simulator's LaunchPlan::setup.
  // Pass 1: size parameters, so temporary extents can be evaluated.
  std::unordered_map<unsigned, int64_t> SizeEnv;
  std::unordered_map<const codegen::KernelParamInfo *, int64_t> ScalarVals;
  for (const auto &P : K.Params) {
    if (!P.IsSizeParam)
      continue;
    auto It = Sizes.find(P.Var->Name);
    if (It == Sizes.end())
      throwDiag(DiagCode::RuntimeBadLaunch, DiagLocation(),
                "launch: missing size argument '" + P.Var->Name + "'");
    SizeEnv[P.ArithId] = It->second;
    ScalarVals[&P] = It->second;
  }

  arith::EvalContext SizeCtx;
  SizeCtx.VarValue = [&](const arith::VarNode &V) -> int64_t {
    auto It = SizeEnv.find(V.getId());
    if (It == SizeEnv.end())
      throwDiag(DiagCode::RuntimeBadLaunch, DiagLocation(),
                "launch: unbound size variable " + V.getName());
    return It->second;
  };

  auto RuntimeError = [&](const std::string &Msg,
                          DiagCode Code) -> void {
    throwDiag(Code, DiagLocation::inContext(Kernel), "runtime: " + Msg);
  };

  // Pass 2 (declaration order): scalar-by-value parameters from Sizes,
  // pointer parameters greedily bound to the caller's buffers, the rest
  // allocated as zeroed temporaries, all charged against the memory cap.
  uint64_t MemLeft = Lim.MaxMemoryBytes;
  auto Charge = [&](uint64_t Bytes, const std::string &What,
                    const std::string &Name) {
    if (Lim.MaxMemoryBytes == 0)
      return;
    if (Bytes > MemLeft)
      RuntimeError("device memory limit of " +
                       std::to_string(Lim.MaxMemoryBytes) +
                       " bytes exceeded while " + What + " '" + Name + "' (" +
                       std::to_string(Bytes) + " bytes)",
                   DiagCode::RuntimeMemoryLimit);
    MemLeft -= Bytes;
  };

  std::vector<MarshalledParam> Pointers;
  size_t NextBuffer = 0;
  for (const auto &P : K.Params) {
    if (P.IsSizeParam || !P.Store)
      continue;
    if (!P.Store->NumElements) {
      auto It = Sizes.find(P.Var->Name);
      if (It == Sizes.end())
        throwDiag(DiagCode::RuntimeBadLaunch, DiagLocation(),
                  "launch: missing scalar argument '" + P.Var->Name + "'");
      ScalarVals[&P] = It->second;
      continue;
    }
    MarshalledParam M;
    M.Param = &P;
    layoutType(P.Store->ElemType, M.Layout, Kernel);
    if (NextBuffer < Buffers.size()) {
      Buffer *B = Buffers[NextBuffer];
      if (B->Poisoned)
        throwDiag(DiagCode::HostBadBuffer, DiagLocation(),
                  "launch: buffer for parameter '" + P.Var->Name +
                      "' was poisoned by an earlier cancelled launch",
                  {"rewrite the buffer or call clearPoison() to reuse it"});
      if (fault::shouldFail(fault::Site::BufferMap))
        RuntimeError("injected fault: mapping the buffer for parameter '" +
                         P.Var->Name + "' failed",
                     DiagCode::RuntimeFaultInjected);
      Charge(simBytesFor(B->size()), "mapping the buffer for parameter",
             P.Var->Name);
      M.Caller = B;
      M.Elements = B->size();
      ++NextBuffer;
    } else {
      int64_t Count = arith::evaluate(P.Store->NumElements, SizeCtx);
      if (Count < 0)
        throwDiag(DiagCode::RuntimeBadLaunch, DiagLocation(),
                  "launch: temporary buffer '" + P.Var->Name +
                      "' has negative element count " +
                      std::to_string(Count));
      Charge(simBytesFor(static_cast<uint64_t>(Count)),
             "allocating temporary buffer", P.Var->Name);
      if (fault::shouldFail(fault::Site::Alloc))
        RuntimeError("injected fault: allocating temporary buffer '" +
                         P.Var->Name + "' failed",
                     DiagCode::RuntimeFaultInjected);
      M.Elements = static_cast<size_t>(Count);
    }
    Pointers.push_back(std::move(M));
  }
  if (NextBuffer != Buffers.size())
    throwDiag(DiagCode::RuntimeBadLaunch, DiagLocation(),
              "launch: too many buffers supplied");

  // Launch-plan lookup: write-set analysis once per artifact, arenas
  // reused across launches (try_lock; a concurrent launch of the same
  // artifact uses launch-local arenas instead of waiting).
  std::shared_ptr<LaunchPlan> Plan = planFor(Key);
  std::call_once(Plan->Init,
                 [&] { Plan->WrittenBuffers = nativeWrittenBuffers(K); });
  std::unique_lock<std::mutex> ArenaLock(Plan->ArenaM, std::try_to_lock);
  std::vector<std::vector<unsigned char>> LocalArenas, LocalSaved;
  std::vector<std::vector<unsigned char>> &Arenas =
      ArenaLock.owns_lock() ? Plan->Arenas : LocalArenas;
  std::vector<std::vector<unsigned char>> &Saved =
      ArenaLock.owns_lock() ? Plan->Saved : LocalSaved;
  Arenas.resize(Pointers.size());
  Saved.resize(Pointers.size());

  // Marshal into flat leaf arrays (temporaries stay zero — the bit
  // pattern of 0.0 and 0 alike), keeping a pre-launch copy of caller
  // buffers for the unchanged-element readback below — except buffers
  // the write-set analysis proved the kernel never stores through, whose
  // copy and readback are skipped outright. Only bytes actually used
  // this launch are charged against the host high-water accounting; the
  // retained arena capacity is idle between launches.
  const bool Fast = Mode == NativeMode::Fast;
  const size_t LeafBytes = Fast ? 4 : 8;
  const auto MarshalStart = std::chrono::steady_clock::now();
  uint64_t MarshalledBytes = 0;
  for (size_t Pi = 0; Pi != Pointers.size(); ++Pi) {
    MarshalledParam &M = Pointers[Pi];
    M.Written =
        Pi < Plan->WrittenBuffers.size() ? Plan->WrittenBuffers[Pi] : true;
    std::vector<unsigned char> &A = Arenas[Pi];
    A.assign(M.Elements * M.Layout.words() * LeafBytes, 0);
    MarshalledBytes += A.size();
    if (!M.Caller) {
      Saved[Pi].clear();
      continue;
    }
    unsigned char *P = A.data();
    for (size_t I = 0; I != M.Elements; ++I)
      marshalValue(M.Param->Store->ElemType, M.Caller->at(I), P, Fast);
    if (M.Written) {
      Saved[Pi] = A;
      MarshalledBytes += Saved[Pi].size();
    } else {
      Saved[Pi].clear();
    }
  }
  Result.MarshalMs += std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - MarshalStart)
                          .count();
  HostBytesCharge HostCharge(MarshalledBytes);

  // Entry arguments: pointer params in declaration order, then the
  // scalar words in declaration order — exactly the layout the printer
  // emitted unpacking code for.
  std::vector<void *> Bufs;
  Bufs.reserve(Pointers.size());
  for (std::vector<unsigned char> &A : Arenas)
    Bufs.push_back(static_cast<void *>(A.data()));
  std::vector<int64_t> Scalars;
  for (const auto &P : K.Params) {
    const bool IsBuffer =
        !P.IsSizeParam && P.Store && P.Store->NumElements != nullptr;
    if (IsBuffer)
      continue;
    auto It = ScalarVals.find(&P);
    Scalars.push_back(It != ScalarVals.end() ? It->second : 0);
  }

  const int64_t Threads =
      static_cast<int64_t>(resolveThreadCount(Cfg.Threads));
  Result.Threads = Threads;

  // Control block: [0] cancel flag, [1] error code (first error wins),
  // [2..5] two int64 details (index, extent) in 32-bit halves.
  int32_t Ctl[6] = {0, 0, 0, 0, 0, 0};

  // Mid-execution fault sites on the ctl-protocol path: an armed group
  // dispatch / step chunk fault cancels the launch through the same
  // cancel flag the generated group loop polls for the deadline, so the
  // kernel skips its remaining groups cooperatively — never a hang.
  bool InjectedCancel = false;
  fault::Site InjectedCancelSite = fault::Site::GroupDispatch;
  if (fault::shouldFail(fault::Site::GroupDispatch)) {
    InjectedCancel = true;
    InjectedCancelSite = fault::Site::GroupDispatch;
  } else if (fault::shouldFail(fault::Site::StepChunk)) {
    InjectedCancel = true;
    InjectedCancelSite = fault::Site::StepChunk;
  }
  if (InjectedCancel)
    __atomic_store_n(&Ctl[0], 1, __ATOMIC_RELAXED);

  // Host-side watchdog for the wall-clock deadline: the generated group
  // loop polls ctl[0] and skips remaining groups once it is set.
  std::mutex DoneM;
  std::condition_variable DoneCV;
  bool Done = false;
  std::thread Watchdog;
  if (Lim.TimeoutMs > 0) {
    Watchdog = std::thread([&, Deadline = std::chrono::steady_clock::now() +
                                          std::chrono::milliseconds(
                                              Lim.TimeoutMs)] {
      std::unique_lock<std::mutex> L(DoneM);
      if (!DoneCV.wait_until(L, Deadline, [&] { return Done; }))
        __atomic_store_n(&Ctl[0], 1, __ATOMIC_RELAXED);
    });
  }

  auto Start = std::chrono::steady_clock::now();
  int32_t RC = Entry.Fn(Bufs.data(), Scalars.data(), Threads, Ctl);
  Result.WallMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - Start)
                      .count();

  if (Watchdog.joinable()) {
    {
      std::lock_guard<std::mutex> L(DoneM);
      Done = true;
    }
    DoneCV.notify_all();
    Watchdog.join();
  }

  // Execution has happened: any failure from here on leaves partial
  // writes, so the caller's buffers are poisoned like a cancelled
  // simulator launch.
  auto PoisonAll = [&] {
    for (MarshalledParam &M : Pointers)
      if (M.Caller)
        M.Caller->Poisoned = true;
  };

  // An injected mid-execution cancellation outranks any error code the
  // (cancelled) kernel may have produced; the message matches the
  // simulator's E0515 shape so the fallback matrix can compare them.
  if (InjectedCancel) {
    PoisonAll();
    throwDiag(DiagCode::RuntimeFaultMidExec, DiagLocation::inContext(Kernel),
              std::string("runtime: injected ") +
                  fault::siteName(InjectedCancelSite) +
                  " fault cancelled the launch",
              {"the launch was cancelled; its buffers are poisoned until "
               "rewritten"});
  }

  const int32_t ErrCode = __atomic_load_n(&Ctl[1], __ATOMIC_RELAXED);
  if (ErrCode == 504) {
    PoisonAll();
    RuntimeError("integer division by zero", DiagCode::RuntimeDivByZero);
  }
  if (ErrCode == 502) {
    PoisonAll();
    RuntimeError("lookup out of bounds", DiagCode::RuntimeOutOfBounds);
  }
  if (ErrCode == 5031 || ErrCode == 5032) {
    PoisonAll();
    auto Detail = [&](int Lo) -> int64_t {
      uint64_t L = static_cast<uint32_t>(Ctl[Lo]);
      uint64_t H = static_cast<uint32_t>(Ctl[Lo + 1]);
      return static_cast<int64_t>(L | (H << 32));
    };
    RuntimeError(std::string(ErrCode == 5031 ? "load" : "store") +
                     " out of bounds: index " + std::to_string(Detail(2)) +
                     " of " + std::to_string(Detail(4)),
                 DiagCode::RuntimeOutOfBounds);
  }
  if (ErrCode == 5033 || ErrCode == 5034) {
    // Data-dependent vector access past the buffer: the interpreter's
    // message carries no index/extent detail, so neither does ours.
    PoisonAll();
    RuntimeError(ErrCode == 5033 ? "vload out of bounds"
                                 : "vstore out of bounds",
                 DiagCode::RuntimeOutOfBounds);
  }
  if (ErrCode != 0) {
    PoisonAll();
    RuntimeError("native kernel reported unknown error code " +
                     std::to_string(ErrCode),
                 DiagCode::RuntimeUnsupported);
  }
  if (RC != 0 || __atomic_load_n(&Ctl[0], __ATOMIC_RELAXED) != 0) {
    PoisonAll();
    throwDiag(DiagCode::RuntimeDeadline, DiagLocation::inContext(Kernel),
              "runtime: wall-clock deadline of " +
                  std::to_string(Lim.TimeoutMs) + " ms exceeded",
              {"the native watchdog cancelled the launch"});
  }

  // Read back: elements whose bytes are bit-identical to the marshalled
  // input keep their original simulator Value (preserving e.g. the exact
  // Int/Flt kind of untouched elements); changed elements are rebuilt
  // from the lowered representation. Buffers the kernel provably never
  // writes skip the whole pass — their Values are untouched by
  // construction.
  const auto ReadbackStart = std::chrono::steady_clock::now();
  for (size_t Pi = 0; Pi != Pointers.size(); ++Pi) {
    MarshalledParam &M = Pointers[Pi];
    if (!M.Caller)
      continue;
    if (M.Written) {
      const size_t EB = M.Layout.words() * LeafBytes;
      for (size_t I = 0; I != M.Elements; ++I) {
        const unsigned char *In = Saved[Pi].data() + I * EB;
        const unsigned char *Out = Arenas[Pi].data() + I * EB;
        if (std::memcmp(In, Out, EB) == 0)
          continue;
        const unsigned char *Cursor = Out;
        M.Caller->at(I) =
            unmarshalValue(M.Param->Store->ElemType, Cursor, Fast);
      }
    }
    // Native runs cannot track per-element initialization; a completed
    // launch marks the whole buffer initialized (the simulator remains
    // the backend that audits uninitialized reads).
    if (M.Caller->Init)
      std::fill(M.Caller->Init->begin(), M.Caller->Init->end(), uint8_t(1));
  }
  Result.MarshalMs += std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - ReadbackStart)
                          .count();

  return Result;
}

} // namespace

std::string native::toolchainCompiler() {
  static std::string Cached = [] {
    if (const char *Env = std::getenv("LIFT_NATIVE_CXX")) {
      if (*Env)
        return std::string(Env);
    }
    for (const char *Candidate : {"c++", "g++", "clang++"})
      if (commandExists(Candidate))
        return std::string(Candidate);
    return std::string();
  }();
  return Cached;
}

Expected<NativeLaunchResult>
native::launchNativeChecked(const codegen::CompiledKernel &K,
                            const std::vector<Buffer *> &Buffers,
                            const std::map<std::string, int64_t> &Sizes,
                            const LaunchConfig &Cfg, DiagnosticEngine &Engine,
                            NativeMode Mode) {
  try {
    return launchNativeImpl(K, Buffers, Sizes, Cfg, &Engine, Mode);
  } catch (DiagnosticError &E) {
    if (!E.Recorded)
      Engine.report(E.Diag);
    return {};
  } catch (const std::bad_alloc &) {
    Engine.error(DiagCode::RuntimeMemoryLimit,
                 DiagLocation::inContext(
                     K.Module.Kernel ? K.Module.Kernel->Name : "kernel"),
                 "runtime: host allocation failed while preparing the "
                 "native launch");
    return {};
  }
}
