//===- Interp.cpp - Lockstep work-item interpreter ---------------------------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes compiled kernels on the simulated device. Statements that
/// contain barriers are executed in lockstep across the work-items of a
/// group (their control flow must be uniform, as OpenCL requires);
/// everything else runs per work-item. Every memory access, arithmetic
/// operation, barrier and loop iteration is charged to the cost model.
///
/// A launch is split into an immutable LaunchPlan (argument bindings,
/// variable-slot table, frozen barrier / index-cost analyses, launch-level
/// detector registrations) and per-worker GroupWorkers that claim groups
/// from an atomic counter and execute them against reused flat frame
/// arenas. Costs accumulate per worker; race / guarded-memory findings
/// are detected per group and merged in canonical group order, so every
/// observable result is identical at any thread count (see
/// docs/PARALLEL_RUNTIME.md).
///
//===----------------------------------------------------------------------===//

#include "ocl/Runtime.h"

#include "arith/Eval.h"
#include "cast/CPrinter.h"
#include "ocl/MemGuard.h"
#include "ocl/RaceDetector.h"
#include "ocl/ThreadPool.h"
#include "support/Casting.h"
#include "support/Diagnostics.h"
#include "support/Error.h"
#include "support/FaultInject.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace lift;
using namespace lift::c;
using namespace lift::ocl;

double Value::asFloat() const {
  switch (K) {
  case Int:
    return static_cast<double>(I);
  case Flt:
    return F;
  default:
    throwDiag(DiagCode::RuntimeBadValue, DiagLocation(),
              "runtime: expected a numeric value");
  }
}

int64_t Value::asInt() const {
  switch (K) {
  case Int:
    return I;
  case Flt:
    return static_cast<int64_t>(F);
  default:
    throwDiag(DiagCode::RuntimeBadValue, DiagLocation(),
              "runtime: expected an integer value");
  }
}

bool Value::asBool() const { return asInt() != 0; }

//===----------------------------------------------------------------------===//
// Host-side memory accounting
//===----------------------------------------------------------------------===//

namespace {

std::atomic<uint64_t> HostLiveBytes{0};
std::atomic<uint64_t> HostHighWaterBytes{0};

void chargeHostBytes(uint64_t Bytes) {
  uint64_t Live =
      HostLiveBytes.fetch_add(Bytes, std::memory_order_relaxed) + Bytes;
  uint64_t Prev = HostHighWaterBytes.load(std::memory_order_relaxed);
  while (Live > Prev && !HostHighWaterBytes.compare_exchange_weak(
                            Prev, Live, std::memory_order_relaxed)) {
  }
}

} // namespace

MemoryPtr ocl::trackedMemory(std::vector<Value> Elems) {
  const uint64_t Bytes = Elems.size() * sizeof(Value);
  chargeHostBytes(Bytes);
  auto *Raw = new std::vector<Value>(std::move(Elems));
  return MemoryPtr(Raw, [Bytes](std::vector<Value> *P) {
    HostLiveBytes.fetch_sub(Bytes, std::memory_order_relaxed);
    delete P;
  });
}

uint64_t ocl::hostBytesLive() {
  return HostLiveBytes.load(std::memory_order_relaxed);
}

uint64_t ocl::hostBytesHighWater() {
  return HostHighWaterBytes.load(std::memory_order_relaxed);
}

void ocl::resetHostBytesHighWater() {
  HostHighWaterBytes.store(HostLiveBytes.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
}

HostBytesCharge::HostBytesCharge(uint64_t B) : Bytes(B) {
  chargeHostBytes(Bytes);
}

HostBytesCharge::~HostBytesCharge() {
  if (Bytes)
    HostLiveBytes.fetch_sub(Bytes, std::memory_order_relaxed);
}

HostBytesCharge &HostBytesCharge::operator=(HostBytesCharge &&O) noexcept {
  if (this != &O) {
    if (Bytes)
      HostLiveBytes.fetch_sub(Bytes, std::memory_order_relaxed);
    Bytes = O.Bytes;
    O.Bytes = 0;
  }
  return *this;
}

Buffer Buffer::ofFloats(const std::vector<float> &Data) {
  std::vector<Value> Elems;
  Elems.reserve(Data.size());
  for (float F : Data)
    Elems.push_back(Value::makeFloat(F));
  Buffer B;
  B.Mem = trackedMemory(std::move(Elems));
  return B;
}

Buffer Buffer::ofInts(const std::vector<int> &Data) {
  std::vector<Value> Elems;
  Elems.reserve(Data.size());
  for (int I : Data)
    Elems.push_back(Value::makeInt(I));
  Buffer B;
  B.Mem = trackedMemory(std::move(Elems));
  return B;
}

Buffer Buffer::ofVectors(const std::vector<float> &Flat, unsigned Width) {
  if (Width == 0 || Flat.size() % Width != 0)
    throwDiag(DiagCode::HostBadBuffer, DiagLocation::inContext("ofVectors"),
              "ofVectors: flat size " + std::to_string(Flat.size()) +
                  " is not a multiple of the width " + std::to_string(Width));
  std::vector<Value> Elems;
  Elems.reserve(Flat.size() / Width);
  for (size_t I = 0; I != Flat.size(); I += Width) {
    VecN Comps;
    Comps.reserve(Width);
    for (size_t J = I; J != I + Width; ++J)
      Comps.push_back(Flat[J]);
    Elems.push_back(Value::makeVec(std::move(Comps)));
  }
  Buffer B;
  B.Mem = trackedMemory(std::move(Elems));
  return B;
}

static void flattenValue(const Value &V, std::vector<float> &Out) {
  switch (V.K) {
  case Value::Int:
    Out.push_back(static_cast<float>(V.I));
    return;
  case Value::Flt:
    Out.push_back(static_cast<float>(V.F));
    return;
  case Value::Vec:
    for (double D : V.V)
      Out.push_back(static_cast<float>(D));
    return;
  case Value::Tup:
    for (const Value &E : V.T)
      flattenValue(E, Out);
    return;
  case Value::Ptr:
    fatalError("cannot flatten a pointer value");
  }
}

/// Reading results out of a buffer a cancelled or failed launch may have
/// partially written is a silent-corruption hazard; the buffer stays
/// poisoned (E0601) until rewritten or explicitly cleared.
static void checkNotPoisoned(const Buffer &B, const char *What) {
  if (B.Poisoned)
    throwDiag(DiagCode::HostBadBuffer, DiagLocation::inContext(What),
              std::string(What) +
                  ": buffer was poisoned by a cancelled or failed launch "
                  "and may hold partial results",
              {"rewrite the buffer or call clearPoison() to read it anyway"});
}

std::vector<float> Buffer::toFlatFloats() const {
  checkNotPoisoned(*this, "toFlatFloats");
  std::vector<float> R;
  R.reserve(Mem->size());
  for (const Value &V : *Mem)
    flattenValue(V, R);
  return R;
}

void Buffer::clearPoison() {
  // A poisoned run's partial writes committed init bits for elements whose
  // values are now suspect. Forgiving the poison must also forget those
  // bits, or a later stage reading the never-rewritten elements would pass
  // the uninitialized-read guard on stale state (see docs/PIPELINES.md).
  if (Poisoned && Init)
    std::fill(Init->begin(), Init->end(), uint8_t(0));
  Poisoned = false;
}

Buffer Buffer::zeros(size_t Count) {
  Buffer B;
  B.Mem = trackedMemory(std::vector<Value>(Count, Value::makeFloat(0)));
  B.Init = std::make_shared<std::vector<uint8_t>>(Count, uint8_t(0));
  return B;
}

Buffer Buffer::filled(size_t Count, const Value &V) {
  Buffer B;
  B.Mem = trackedMemory(std::vector<Value>(Count, V));
  return B;
}

std::vector<float> Buffer::toFloats() const {
  checkNotPoisoned(*this, "toFloats");
  std::vector<float> R;
  R.reserve(Mem->size());
  for (const Value &V : *Mem)
    R.push_back(static_cast<float>(V.asFloat()));
  return R;
}

std::vector<int> Buffer::toInts() const {
  checkNotPoisoned(*this, "toInts");
  std::vector<int> R;
  R.reserve(Mem->size());
  for (const Value &V : *Mem)
    R.push_back(static_cast<int>(V.asInt()));
  return R;
}

CostReport &CostReport::operator+=(const CostReport &O) {
  GlobalAccesses += O.GlobalAccesses;
  LocalAccesses += O.LocalAccesses;
  PrivateAccesses += O.PrivateAccesses;
  ArithOps += O.ArithOps;
  DivModOps += O.DivModOps;
  MathCalls += O.MathCalls;
  Calls += O.Calls;
  Barriers += O.Barriers;
  LoopIters += O.LoopIters;
  return *this;
}

ExecLimits ExecLimits::withEnvDefaults(ExecLimits L) {
  if (L.MaxSteps == 0)
    if (const char *E = std::getenv("LIFT_MAX_STEPS"))
      L.MaxSteps = std::strtoull(E, nullptr, 10);
  if (L.TimeoutMs == 0)
    if (const char *E = std::getenv("LIFT_TIMEOUT_MS"))
      L.TimeoutMs = std::strtoll(E, nullptr, 10);
  if (L.MaxMemoryBytes == 0)
    if (const char *E = std::getenv("LIFT_MAX_MEMORY"))
      L.MaxMemoryBytes = std::strtoull(E, nullptr, 10);
  return L;
}

namespace {

/// Wrapping two's-complement arithmetic: the kernels the fuzzer generates
/// can overflow intermediate integer results, which is undefined behavior
/// on int64_t. OpenCL C integer arithmetic wraps; match it.
inline int64_t wrapAdd(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) +
                              static_cast<uint64_t>(B));
}
inline int64_t wrapSub(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) -
                              static_cast<uint64_t>(B));
}
inline int64_t wrapMul(int64_t A, int64_t B) {
  return static_cast<int64_t>(static_cast<uint64_t>(A) *
                              static_cast<uint64_t>(B));
}
inline int64_t wrapNeg(int64_t A) {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(A));
}

/// Deterministic per-group seed: decorrelates the schedule-perturbation
/// RNG across groups while keeping it independent of which worker runs
/// the group (splitmix64-style finalizer).
inline uint64_t mixSeed(uint64_t Seed, uint64_t Group) {
  uint64_t Z = Seed * 6364136223846793005ULL + 1442695040888963407ULL +
               Group * 0x9e3779b97f4a7c15ULL;
  Z ^= Z >> 30;
  Z *= 0xbf58476d1ce4e5b9ULL;
  Z ^= Z >> 27;
  Z *= 0x94d049bb133111ebULL;
  Z ^= Z >> 31;
  return Z ? Z : 1;
}

/// Result of executing statements inside a function body.
struct ExecResult {
  bool Returned = false;
  Value Ret;
};

/// Per-work-item state: views into the owning worker's flat arenas. The
/// frame is indexed by CVar::Slot; arith values by CVar::ArithSlot. A slot
/// is live for the current group iff its epoch equals the worker's — so
/// frames are recycled across groups without clearing.
struct ItemCtx {
  std::array<int64_t, 3> LocalId = {0, 0, 0};
  std::array<int64_t, 3> GroupId = {0, 0, 0};
  int64_t Linear = 0; ///< Linear in-group id (race detector diagnostics).
  Value *Frame = nullptr;
  uint32_t *FrameEpoch = nullptr;
  int64_t *AVals = nullptr;
  uint32_t *AEpoch = nullptr;
};

/// One kernel-argument binding, resolved once per launch and replayed into
/// every work-item's frame (loop-invariant: the old interpreter re-applied
/// the name->value map per item per group).
struct BoundArg {
  const CVar *Var = nullptr;
  Value Val;
  int Slot = -1;
  int ArithSlot = -1;   ///< -1 when Var carries no arith id.
  int64_t ArithInt = 0; ///< Pre-converted integer value for arith slots.
};

constexpr unsigned kMaxFindings = 64;

/// Thrown inside a worker when another worker has already tripped a limit
/// or failed: unwinds the current group without producing a finding of
/// its own. Never escapes executePlan.
struct CancelledError {};

enum class LimitKind : int { None = 0, Steps, Deadline, Memory, Cancelled };

/// Thrown by the worker that trips an execution limit. The diagnostic is
/// synthesized after the join from the shared monitor state so the
/// rendered message is identical at any thread count. Never escapes
/// executePlan.
struct LimitError {
  LimitKind K;
};

/// Thrown by the worker whose occurrence of a mid-execution fault site
/// (barrier, group dispatch, step chunk) was armed to fail. Like
/// LimitError, the E0515 diagnostic is synthesized after the join (the
/// message names only the kernel and the site, never a group index) so it
/// is bit-identical at any thread count. Never escapes executePlan.
struct InjectedFaultError {
  fault::Site S;
};

/// Value-count to byte-count conversion that saturates instead of
/// wrapping: generated programs can request absurd element counts.
inline uint64_t bytesFor(uint64_t Count) {
  if (Count > std::numeric_limits<uint64_t>::max() / sizeof(Value))
    return std::numeric_limits<uint64_t>::max();
  return Count * sizeof(Value);
}

/// Shared cancellation and budget state for one launch (see
/// docs/RELIABILITY.md). Workers keep a private countdown and only touch
/// the shared atomics every TickInterval interpreter steps, so the
/// default unbounded configuration never reaches this class at all and
/// bounded runs amortize the shared-cache traffic.
class ExecMonitor {
public:
  /// Steps between slow-path checks. Small enough that a deadline is
  /// honored promptly, large enough that the fetch_sub traffic is noise.
  static constexpr uint32_t TickInterval = 256;

  const ExecLimits Limits;

  explicit ExecMonitor(const ExecLimits &L) : Limits(L) {
    StepsLeft.store(L.MaxSteps, std::memory_order_relaxed);
    MemLeft.store(
        L.MaxMemoryBytes >
                static_cast<uint64_t>(std::numeric_limits<int64_t>::max())
            ? std::numeric_limits<int64_t>::max()
            : static_cast<int64_t>(L.MaxMemoryBytes),
        std::memory_order_relaxed);
    HasDeadline = L.TimeoutMs > 0;
    if (HasDeadline)
      Deadline = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(L.TimeoutMs);
  }

  /// Does any limit require the per-statement countdown hook? The host
  /// cancellation token is polled on the same slow path, so it forces the
  /// hook on even when no numeric budget is set.
  bool monitorsSteps() const {
    return Limits.MaxSteps != 0 || HasDeadline || Limits.Cancel != nullptr;
  }

  /// Has the host (service layer) asked this launch to stop?
  bool hostCancelled() const {
    return Limits.Cancel && Limits.Cancel->load(std::memory_order_relaxed);
  }

  bool stopRequested() const { return Stop.load(std::memory_order_relaxed); }
  void requestStop() { Stop.store(true, std::memory_order_relaxed); }

  /// Takes \p N steps out of the shared budget; false once it is spent.
  /// fetch_sub can wrap past zero under contention, but at most one extra
  /// tick interval per worker escapes: the stop flag is checked before
  /// the budget on every slow tick.
  bool claimSteps(uint64_t N) {
    if (Limits.MaxSteps == 0)
      return true;
    uint64_t Prev = StepsLeft.fetch_sub(N, std::memory_order_relaxed);
    return Prev >= N;
  }

  bool pastDeadline() const {
    return HasDeadline && std::chrono::steady_clock::now() >= Deadline;
  }

  /// Charges \p Bytes of simulated device allocation; false once the cap
  /// is exceeded.
  bool chargeAllocation(uint64_t Bytes) {
    if (Limits.MaxMemoryBytes == 0)
      return true;
    int64_t Prev = MemLeft.fetch_sub(static_cast<int64_t>(Bytes),
                                     std::memory_order_relaxed);
    return Prev >= 0 && static_cast<uint64_t>(Prev) >= Bytes;
  }

  /// First tripped limit wins (later trips on other workers are dropped);
  /// also requests cooperative cancellation.
  void noteLimit(LimitKind K) {
    int Expected = 0;
    TrippedKind.compare_exchange_strong(Expected, static_cast<int>(K),
                                        std::memory_order_relaxed);
    requestStop();
  }

  /// First detail string wins. Deterministic for single-group launches
  /// (only one worker can trip first); best-effort otherwise.
  void noteDetail(std::string D) {
    std::lock_guard<std::mutex> L(DetailM);
    if (Detail.empty())
      Detail = std::move(D);
  }

  LimitKind tripped() const {
    return static_cast<LimitKind>(
        TrippedKind.load(std::memory_order_relaxed));
  }

  /// Steps claimed so far (0 when no step budget is set). Read after the
  /// workers join, so the relaxed load sees every claim. fetch_sub can
  /// overshoot past zero on the tripping tick; clamp to the budget.
  uint64_t stepsUsed() const {
    if (Limits.MaxSteps == 0)
      return 0;
    uint64_t Left = StepsLeft.load(std::memory_order_relaxed);
    return Left > Limits.MaxSteps ? Limits.MaxSteps : Limits.MaxSteps - Left;
  }

  std::string detail() {
    std::lock_guard<std::mutex> L(DetailM);
    return Detail;
  }

private:
  std::atomic<uint64_t> StepsLeft{0};
  std::atomic<int64_t> MemLeft{0};
  std::atomic<bool> Stop{false};
  std::atomic<int> TrippedKind{0};
  bool HasDeadline = false;
  std::chrono::steady_clock::time_point Deadline;
  std::mutex DetailM;
  std::string Detail;
};

/// Read-only launch state shared by every worker: the compiled kernel,
/// resolved argument bindings, slot table, and the barrier / index-cost
/// analyses precomputed (and then frozen) before groups are dispatched.
class LaunchPlan {
public:
  const codegen::CompiledKernel &K;
  const LaunchConfig Cfg;
  std::shared_ptr<const codegen::VarSlotInfo> Slots;

  std::unordered_map<unsigned, CVarPtr> StorageVarById;
  std::vector<BoundArg> Bindings;
  std::vector<Buffer> Temps; // auto-allocated global intermediates

  std::array<int64_t, 3> Groups = {1, 1, 1};
  int64_t NumGroups = 1;
  int64_t WIsPerGroup = 1;

  /// Launch-level block names / bitmaps shared by per-group sessions.
  std::unordered_map<const void *, std::string> RaceBlockNames;
  SharedBlockTable GuardBlocks;

  /// Per-launch findings cap (ExecLimits::MaxFindings, default 64).
  unsigned MaxFindings = kMaxFindings;
  /// Shared cancellation / budget state; null when no limit is bound.
  std::unique_ptr<ExecMonitor> Monitor;
  /// The caller-supplied buffers, poisoned if execution fails mid-launch.
  std::vector<Buffer *> CallerBuffers;

  LaunchPlan(const codegen::CompiledKernel &K, const LaunchConfig &Cfg)
      : K(K), Cfg(Cfg) {}

  [[noreturn]] void
  runtimeError(const std::string &Msg,
               DiagCode Code = DiagCode::RuntimeUnsupported) const {
    throwDiag(Code,
              DiagLocation::inContext(K.Module.Kernel
                                          ? K.Module.Kernel->Name
                                          : std::string("kernel")),
              "runtime: " + Msg);
  }

  /// Frozen barrier analysis: precomputed over the whole module before
  /// dispatch, read concurrently by every worker afterwards.
  bool stmtBarrier(const CStmtPtr &S) const {
    auto It = BarrierCache.find(S.get());
    if (It == BarrierCache.end())
      runtimeError("internal: barrier query on an unanalyzed statement");
    return It->second;
  }

  /// Frozen static (div/mod, other-node) cost of an arith index
  /// expression. Expressions outside the precomputed set (none today) are
  /// costed on the fly without touching the shared cache.
  std::pair<unsigned, unsigned> indexCostOf(const arith::Expr &E) const {
    auto It = IndexCost.find(E.get());
    if (It != IndexCost.end())
      return It->second;
    unsigned DivMods = arith::countDivMod(E);
    unsigned Ops = arith::countOps(E);
    return {DivMods, Ops >= DivMods ? Ops - DivMods : 0};
  }

  void setup(const std::vector<Buffer *> &Buffers,
             const std::map<std::string, int64_t> &Sizes) {
    validateNDRange();

    ExecLimits Lim = ExecLimits::withEnvDefaults(Cfg.Limits);
    MaxFindings = Lim.MaxFindings != 0 ? Lim.MaxFindings : kMaxFindings;
    if (Lim.anyBound())
      Monitor = std::make_unique<ExecMonitor>(Lim);

    Slots = K.Slots ? K.Slots : codegen::computeVarSlots(K.Module);
    for (const auto &[Id, Var] : K.StorageVars)
      StorageVarById[Id] = Var;

    // Bind kernel arguments. First pass: size parameters, so temp buffer
    // sizes can be computed.
    std::unordered_map<unsigned, int64_t> SizeEnv;
    size_t NextBuffer = 0;
    for (const auto &P : K.Params) {
      if (!P.IsSizeParam)
        continue;
      auto It = Sizes.find(P.Var->Name);
      if (It == Sizes.end())
        throwDiag(DiagCode::RuntimeBadLaunch, DiagLocation(),
                  "launch: missing size argument '" + P.Var->Name + "'");
      SizeEnv[P.ArithId] = It->second;
      addBinding(P.Var.get(), Value::makeInt(It->second));
    }

    arith::EvalContext SizeCtx;
    SizeCtx.VarValue = [&](const arith::VarNode &V) -> int64_t {
      auto It = SizeEnv.find(V.getId());
      if (It == SizeEnv.end())
        throwDiag(DiagCode::RuntimeBadLaunch, DiagLocation(),
                  "launch: unbound size variable " + V.getName());
      return It->second;
    };

    Temps.reserve(K.Params.size());
    for (const auto &P : K.Params) {
      if (P.IsSizeParam || !P.Store)
        continue;
      if (!P.Store->NumElements) {
        // Scalar by-value parameter: bound via Sizes as a float/int.
        auto It = Sizes.find(P.Var->Name);
        if (It == Sizes.end())
          throwDiag(DiagCode::RuntimeBadLaunch, DiagLocation(),
                    "launch: missing scalar argument '" + P.Var->Name + "'");
        addBinding(P.Var.get(), Value::makeInt(It->second));
        continue;
      }
      if (NextBuffer < Buffers.size()) {
        Buffer *B = Buffers[NextBuffer];
        if (B->Poisoned)
          throwDiag(DiagCode::HostBadBuffer, DiagLocation(),
                    "launch: buffer for parameter '" + P.Var->Name +
                        "' was poisoned by an earlier cancelled launch",
                    {"rewrite the buffer or call clearPoison() to reuse it"});
        if (fault::shouldFail(fault::Site::BufferMap))
          runtimeError("injected fault: mapping the buffer for parameter '" +
                           P.Var->Name + "' failed",
                       DiagCode::RuntimeFaultInjected);
        // Caller buffers count against the launch memory cap too: the cap
        // bounds every byte a launch touches, not just its own
        // allocations (finer --max-memory).
        if (Monitor && !Monitor->chargeAllocation(bytesFor(B->size())))
          runtimeError("device memory limit of " +
                           std::to_string(Monitor->Limits.MaxMemoryBytes) +
                           " bytes exceeded while mapping the buffer for "
                           "parameter '" +
                           P.Var->Name + "' (" +
                           std::to_string(bytesFor(B->size())) + " bytes)",
                       DiagCode::RuntimeMemoryLimit);
        CallerBuffers.push_back(B);
        addBinding(P.Var.get(), Value::makePtr(B->Mem, MemSpace::Global));
        if (Cfg.CheckMemory)
          GuardBlocks.registerBlock(B->Mem.get(), P.Var->Name, B->Init);
        ++NextBuffer;
        continue;
      }
      // A compiler-introduced global temporary.
      int64_t Count = arith::evaluate(P.Store->NumElements, SizeCtx);
      if (Count < 0)
        throwDiag(DiagCode::RuntimeBadLaunch, DiagLocation(),
                  "launch: temporary buffer '" + P.Var->Name +
                      "' has negative element count " +
                      std::to_string(Count));
      if (Monitor &&
          !Monitor->chargeAllocation(bytesFor(static_cast<uint64_t>(Count))))
        runtimeError(
            "device memory limit of " +
                std::to_string(Monitor->Limits.MaxMemoryBytes) +
                " bytes exceeded while allocating temporary buffer '" +
                P.Var->Name + "' (" +
                std::to_string(bytesFor(static_cast<uint64_t>(Count))) +
                " bytes)",
            DiagCode::RuntimeMemoryLimit);
      if (fault::shouldFail(fault::Site::Alloc))
        runtimeError("injected fault: allocating temporary buffer '" +
                         P.Var->Name + "' failed",
                     DiagCode::RuntimeFaultInjected);
      Temps.push_back(Buffer::zeros(static_cast<size_t>(Count)));
      addBinding(P.Var.get(),
                 Value::makePtr(Temps.back().Mem, MemSpace::Global));
      if (Cfg.CheckMemory)
        GuardBlocks.registerBlock(Temps.back().Mem.get(), P.Var->Name,
                                  Temps.back().Init);
    }
    if (NextBuffer != Buffers.size())
      throwDiag(DiagCode::RuntimeBadLaunch, DiagLocation(),
                "launch: too many buffers supplied");

    if (Cfg.CheckRaces)
      for (const BoundArg &B : Bindings)
        if (B.Val.K == Value::Ptr)
          RaceBlockNames[B.Val.P.get()] = B.Var->Name;

    Groups = {Cfg.Global[0] / Cfg.Local[0], Cfg.Global[1] / Cfg.Local[1],
              Cfg.Global[2] / Cfg.Local[2]};
    NumGroups = Groups[0] * Groups[1] * Groups[2];
    WIsPerGroup = Cfg.Local[0] * Cfg.Local[1] * Cfg.Local[2];

    precomputeBarriers();
    precomputeIndexCosts();
  }

private:
  /// Mutable only during setup; frozen once groups are dispatched.
  std::unordered_map<const CStmt *, bool> BarrierCache;
  std::unordered_set<const CFunction *> BarrierScanStack;
  std::unordered_map<const arith::Node *, std::pair<unsigned, unsigned>>
      IndexCost;

  void addBinding(const CVar *Var, Value Val) {
    BoundArg B;
    B.Var = Var;
    B.Slot = Var->Slot;
    if (B.Slot < 0)
      runtimeError("internal: kernel parameter '" + Var->Name +
                   "' has no frame slot");
    if (Var->ArithId != 0) {
      B.ArithSlot = Var->ArithSlot;
      B.ArithInt = Val.asInt();
    }
    B.Val = std::move(Val);
    Bindings.push_back(std::move(B));
  }

  /// Rejects degenerate NDRange configurations before the group loop:
  /// non-positive sizes and global sizes not divisible by the local size
  /// previously produced division faults or silent zero-group runs.
  void validateNDRange() const {
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
  }

  //===------------------------------------------------------------------===//
  // Barrier analysis (setup-time; the caches freeze before dispatch)
  //===------------------------------------------------------------------===//

  /// Does evaluating \p E reach a barrier? Only possible through a call to
  /// a user function whose body contains one — such calls must not run in
  /// divergent per-item order.
  bool exprReachesBarrier(const CExprPtr &E) {
    if (!E)
      return false;
    switch (E->getKind()) {
    case CExprKind::IntLit:
    case CExprKind::FloatLit:
    case CExprKind::VarRef:
    case CExprKind::ArithValue:
      return false;
    case CExprKind::ArrayAccess: {
      const auto *A = cast<ArrayAccess>(E.get());
      return exprReachesBarrier(A->getBase()) ||
             exprReachesBarrier(A->getIndex());
    }
    case CExprKind::Member:
      return exprReachesBarrier(cast<Member>(E.get())->getBase());
    case CExprKind::Binary: {
      const auto *B = cast<Binary>(E.get());
      return exprReachesBarrier(B->getLhs()) ||
             exprReachesBarrier(B->getRhs());
    }
    case CExprKind::Unary:
      return exprReachesBarrier(cast<Unary>(E.get())->getSub());
    case CExprKind::Call: {
      const auto *C = cast<Call>(E.get());
      for (const CExprPtr &A : C->getArgs())
        if (exprReachesBarrier(A))
          return true;
      CFunctionPtr F = K.Module.findFunction(C->getCallee());
      if (!F || !F->Body || BarrierScanStack.count(F.get()))
        return false;
      BarrierScanStack.insert(F.get());
      bool R = false;
      for (const CStmtPtr &S : F->Body->getStmts())
        R |= containsBarrier(S);
      BarrierScanStack.erase(F.get());
      return R;
    }
    case CExprKind::Ternary: {
      const auto *T = cast<Ternary>(E.get());
      return exprReachesBarrier(T->getCond()) ||
             exprReachesBarrier(T->getThen()) ||
             exprReachesBarrier(T->getElse());
    }
    case CExprKind::CastExpr:
      return exprReachesBarrier(cast<CastExpr>(E.get())->getSub());
    case CExprKind::ConstructVector:
      for (const CExprPtr &A : cast<ConstructVector>(E.get())->getArgs())
        if (exprReachesBarrier(A))
          return true;
      return false;
    case CExprKind::ConstructStruct:
      for (const CExprPtr &A : cast<ConstructStruct>(E.get())->getArgs())
        if (exprReachesBarrier(A))
          return true;
      return false;
    case CExprKind::VectorLoad: {
      const auto *V = cast<VectorLoad>(E.get());
      return exprReachesBarrier(V->getIndex()) ||
             exprReachesBarrier(V->getPointer());
    }
    case CExprKind::VectorStore: {
      const auto *V = cast<VectorStore>(E.get());
      return exprReachesBarrier(V->getValue()) ||
             exprReachesBarrier(V->getIndex()) ||
             exprReachesBarrier(V->getPointer());
    }
    }
    lift_unreachable("unhandled expression kind");
  }

  bool containsBarrier(const CStmtPtr &S) {
    auto It = BarrierCache.find(S.get());
    if (It != BarrierCache.end())
      return It->second;
    bool R = false;
    switch (S->getKind()) {
    case CStmtKind::Barrier:
      R = true;
      break;
    // Note |= not ||: the recursion must visit (and cache) every
    // sub-statement even after the answer is known, because exec-time
    // queries against the frozen cache hit all of them.
    case CStmtKind::Block:
      for (const CStmtPtr &Sub : cast<Block>(S.get())->getStmts())
        R |= containsBarrier(Sub);
      break;
    case CStmtKind::For: {
      const auto *F = cast<For>(S.get());
      for (const CStmtPtr &Sub : F->getBody()->getStmts())
        R |= containsBarrier(Sub);
      R = R || exprReachesBarrier(F->getInit()) ||
          exprReachesBarrier(F->getCond()) || exprReachesBarrier(F->getStep());
      break;
    }
    case CStmtKind::If: {
      const auto *I = cast<If>(S.get());
      for (const CStmtPtr &Sub : I->getThen()->getStmts())
        R |= containsBarrier(Sub);
      if (I->getElse())
        for (const CStmtPtr &Sub : I->getElse()->getStmts())
          R |= containsBarrier(Sub);
      R = R || exprReachesBarrier(I->getCond());
      break;
    }
    case CStmtKind::VarDecl:
      R = exprReachesBarrier(cast<VarDecl>(S.get())->getInit());
      break;
    case CStmtKind::Assign: {
      const auto *A = cast<Assign>(S.get());
      R = exprReachesBarrier(A->getLhs()) || exprReachesBarrier(A->getRhs());
      break;
    }
    case CStmtKind::ExprStmt:
      R = exprReachesBarrier(cast<ExprStmt>(S.get())->getExpr());
      break;
    case CStmtKind::Return:
      R = exprReachesBarrier(cast<Return>(S.get())->getValue());
      break;
    default:
      break;
    }
    BarrierCache[S.get()] = R;
    return R;
  }

  /// Visits every statement of the kernel and of every function body so
  /// all exec-time stmtBarrier queries hit the frozen cache.
  void precomputeBarriers() {
    if (K.Module.Kernel && K.Module.Kernel->Body)
      for (const CStmtPtr &S : K.Module.Kernel->Body->getStmts())
        containsBarrier(S);
    for (const CFunctionPtr &F : K.Module.Functions)
      if (F && F->Body)
        for (const CStmtPtr &S : F->Body->getStmts())
          containsBarrier(S);
  }

  //===------------------------------------------------------------------===//
  // Index-cost precomputation
  //===------------------------------------------------------------------===//

  void recordIndexCost(const arith::Expr &E) {
    if (!E)
      return;
    unsigned DivMods = arith::countDivMod(E);
    unsigned Ops = arith::countOps(E);
    IndexCost.emplace(
        E.get(),
        std::make_pair(DivMods, Ops >= DivMods ? Ops - DivMods : 0u));
  }

  void costExpr(const CExprPtr &E) {
    if (!E)
      return;
    switch (E->getKind()) {
    case CExprKind::IntLit:
    case CExprKind::FloatLit:
    case CExprKind::VarRef:
      return;
    case CExprKind::ArithValue: {
      const auto *AV = cast<ArithValue>(E.get());
      recordIndexCost(AV->getValue());
      auto [DivMods, Others] = indexCostOf(AV->getValue());
      AV->CostDivMods = static_cast<int>(DivMods);
      AV->CostOthers = Others;
      return;
    }
    case CExprKind::ArrayAccess:
      costExpr(cast<ArrayAccess>(E.get())->getBase());
      costExpr(cast<ArrayAccess>(E.get())->getIndex());
      return;
    case CExprKind::Member:
      costExpr(cast<Member>(E.get())->getBase());
      return;
    case CExprKind::Binary:
      costExpr(cast<Binary>(E.get())->getLhs());
      costExpr(cast<Binary>(E.get())->getRhs());
      return;
    case CExprKind::Unary:
      costExpr(cast<Unary>(E.get())->getSub());
      return;
    case CExprKind::Call:
      for (const CExprPtr &A : cast<Call>(E.get())->getArgs())
        costExpr(A);
      return;
    case CExprKind::Ternary:
      costExpr(cast<Ternary>(E.get())->getCond());
      costExpr(cast<Ternary>(E.get())->getThen());
      costExpr(cast<Ternary>(E.get())->getElse());
      return;
    case CExprKind::CastExpr:
      costExpr(cast<CastExpr>(E.get())->getSub());
      return;
    case CExprKind::ConstructVector:
      for (const CExprPtr &A : cast<ConstructVector>(E.get())->getArgs())
        costExpr(A);
      return;
    case CExprKind::ConstructStruct:
      for (const CExprPtr &A : cast<ConstructStruct>(E.get())->getArgs())
        costExpr(A);
      return;
    case CExprKind::VectorLoad:
      costExpr(cast<VectorLoad>(E.get())->getIndex());
      costExpr(cast<VectorLoad>(E.get())->getPointer());
      return;
    case CExprKind::VectorStore:
      costExpr(cast<VectorStore>(E.get())->getValue());
      costExpr(cast<VectorStore>(E.get())->getIndex());
      costExpr(cast<VectorStore>(E.get())->getPointer());
      return;
    }
  }

  void costStmt(const CStmtPtr &S) {
    if (!S)
      return;
    switch (S->getKind()) {
    case CStmtKind::Block:
      for (const CStmtPtr &Sub : cast<Block>(S.get())->getStmts())
        costStmt(Sub);
      return;
    case CStmtKind::VarDecl:
      recordIndexCost(cast<VarDecl>(S.get())->getArraySize());
      costExpr(cast<VarDecl>(S.get())->getInit());
      return;
    case CStmtKind::Assign:
      costExpr(cast<Assign>(S.get())->getLhs());
      costExpr(cast<Assign>(S.get())->getRhs());
      return;
    case CStmtKind::ExprStmt:
      costExpr(cast<ExprStmt>(S.get())->getExpr());
      return;
    case CStmtKind::For: {
      const auto *F = cast<For>(S.get());
      costExpr(F->getInit());
      costExpr(F->getCond());
      costExpr(F->getStep());
      for (const CStmtPtr &Sub : F->getBody()->getStmts())
        costStmt(Sub);
      return;
    }
    case CStmtKind::If: {
      const auto *I = cast<If>(S.get());
      costExpr(I->getCond());
      for (const CStmtPtr &Sub : I->getThen()->getStmts())
        costStmt(Sub);
      if (I->getElse())
        for (const CStmtPtr &Sub : I->getElse()->getStmts())
          costStmt(Sub);
      return;
    }
    case CStmtKind::Return:
      costExpr(cast<Return>(S.get())->getValue());
      return;
    case CStmtKind::Barrier:
    case CStmtKind::Comment:
      return;
    }
  }

  void precomputeIndexCosts() {
    if (K.Module.Kernel && K.Module.Kernel->Body)
      for (const CStmtPtr &S : K.Module.Kernel->Body->getStmts())
        costStmt(S);
    for (const CFunctionPtr &F : K.Module.Functions)
      if (F && F->Body)
        for (const CStmtPtr &S : F->Body->getStmts())
          costStmt(S);
  }
};

/// One worker's execution context, reused across every group the worker
/// claims: flat epoch-tracked frames, the active-item list, local/private
/// array arenas, per-group detector sessions and a per-worker cost
/// accumulator. Nothing here is shared with other workers.
class GroupWorker {
public:
  CostReport Cost;

  explicit GroupWorker(const LaunchPlan &P)
      : P(P), NumSlots(P.Slots->NumSlots),
        WIs(static_cast<size_t>(P.WIsPerGroup)),
        FrameArena(WIs * NumSlots), FrameEpochArena(WIs * NumSlots, 0),
        AValArena(WIs * NumSlots, 0), AEpochArena(WIs * NumSlots, 0),
        Items(WIs), WgLocalMem(NumSlots), WgLocalEpoch(NumSlots, 0),
        PrivateMem(NumSlots * WIs), Mon(P.Monitor.get()),
        StepMonitored(Mon && Mon->monitorsSteps()) {
    for (size_t I = 0; I != WIs; ++I) {
      ItemCtx &W = Items[I];
      W.Linear = static_cast<int64_t>(I);
      W.Frame = NumSlots ? &FrameArena[I * NumSlots] : nullptr;
      W.FrameEpoch = NumSlots ? &FrameEpochArena[I * NumSlots] : nullptr;
      W.AVals = NumSlots ? &AValArena[I * NumSlots] : nullptr;
      W.AEpoch = NumSlots ? &AEpochArena[I * NumSlots] : nullptr;
    }
    Active.reserve(WIs);
    // The arith evaluation context is wired once per worker; evalArith
    // repoints ArithItem instead of rebuilding the closures per call.
    ArithCtx.VarValue = [this](const arith::VarNode &V) -> int64_t {
      auto It = this->P.Slots->ArithSlotById.find(V.getId());
      ItemCtx &W = *ArithItem;
      if (It == this->P.Slots->ArithSlotById.end() ||
          W.AEpoch[It->second] != Epoch)
        this->P.runtimeError("unbound index variable " + V.getName());
      return W.AVals[It->second];
    };
    ArithCtx.LookupValue = [this](unsigned TableId,
                                  int64_t Index) -> int64_t {
      auto SIt = this->P.StorageVarById.find(TableId);
      if (SIt == this->P.StorageVarById.end())
        this->P.runtimeError("unknown lookup table id " +
                             std::to_string(TableId));
      const CVar *V = SIt->second.get();
      ItemCtx &W = *ArithItem;
      int S = V->Slot;
      if (S < 0 || W.FrameEpoch[S] != Epoch || W.Frame[S].K != Value::Ptr)
        this->P.runtimeError("lookup table is not bound to memory");
      const Value &Base = W.Frame[S];
      noteAccess(Base, Index, W, /*IsWrite=*/false);
      const auto &Mem = *Base.P;
      if (MG) {
        if (MG->check(Base.P.get(), Index, Mem.size(), W.Linear, W.GroupId,
                      /*IsWrite=*/false) == MemGuard::Access::OutOfBounds)
          return 0; // record and read zero, keep running
      } else if (Index < 0 || static_cast<size_t>(Index) >= Mem.size()) {
        this->P.runtimeError("lookup out of bounds",
                             DiagCode::RuntimeOutOfBounds);
      }
      return Mem[static_cast<size_t>(Index)].asInt();
    };
  }

  /// Executes one work-group (canonical linear index \p G). Race and
  /// guard findings go to the caller-provided per-group reports; shared
  /// bitmap writes are returned via \p Writes for post-join commit.
  void runGroup(int64_t G, RaceReport *Races, GuardReport *Guards,
                std::vector<std::pair<const void *, int64_t>> *Writes,
                std::vector<RaceDetector::GlobalAccess> *GlobalAcc) {
    int64_t Gx = G % P.Groups[0];
    int64_t Gy = (G / P.Groups[0]) % P.Groups[1];
    int64_t Gz = G / (P.Groups[0] * P.Groups[1]);

    // A new epoch invalidates every frame, arith and local-array slot of
    // the previous group without clearing the arenas.
    if (++Epoch == 0) {
      std::fill(FrameEpochArena.begin(), FrameEpochArena.end(), 0u);
      std::fill(AEpochArena.begin(), AEpochArena.end(), 0u);
      std::fill(WgLocalEpoch.begin(), WgLocalEpoch.end(), 0u);
      Epoch = 1;
    }
    RngState = mixSeed(P.Cfg.ScheduleSeed, static_cast<uint64_t>(G));

    std::optional<RaceDetector> RDet;
    std::optional<MemGuard> MGd;
    if (Races) {
      RDet.emplace(*Races, P.MaxFindings, &P.RaceBlockNames);
      if (GlobalAcc)
        RDet->setTrackGlobal(true);
      RD = &*RDet;
    } else {
      RD = nullptr;
    }
    if (Guards) {
      MGd.emplace(*Guards, P.MaxFindings, &P.GuardBlocks);
      MG = &*MGd;
    } else {
      MG = nullptr;
    }

    size_t Idx = 0;
    for (int64_t Lz = 0; Lz != P.Cfg.Local[2]; ++Lz) {
      for (int64_t Ly = 0; Ly != P.Cfg.Local[1]; ++Ly) {
        for (int64_t Lx = 0; Lx != P.Cfg.Local[0]; ++Lx) {
          ItemCtx &W = Items[Idx];
          ++Idx;
          W.LocalId = {Lx, Ly, Lz};
          W.GroupId = {Gx, Gy, Gz};
          bindItem(W);
        }
      }
    }
    Active.clear();
    for (ItemCtx &W : Items)
      Active.push_back(&W);

    if (RD)
      RD->beginGroup({Gx, Gy, Gz}, Items.size());
    execLockstep(P.K.Module.Kernel->Body->getStmts(), Active);
    if (RD)
      RD->endGroup();
    if (GlobalAcc && RDet)
      RDet->takeGroupGlobalAccesses(*GlobalAcc);
    if (Writes && MGd)
      *Writes = MGd->sharedWrites();
    RD = nullptr;
    MG = nullptr;
  }

private:
  const LaunchPlan &P;
  size_t NumSlots;
  size_t WIs;

  std::vector<Value> FrameArena;
  std::vector<uint32_t> FrameEpochArena;
  std::vector<int64_t> AValArena;
  std::vector<uint32_t> AEpochArena;
  std::vector<ItemCtx> Items;
  std::vector<ItemCtx *> Active;
  std::vector<ItemCtx *> PermScratch;
  /// Work-group local arrays, reused across groups, keyed by slot. A
  /// slot's allocation is current iff its epoch matches.
  std::vector<MemoryPtr> WgLocalMem;
  std::vector<uint32_t> WgLocalEpoch;
  /// Private arrays, reused across groups, keyed by slot * WIs + item.
  std::vector<MemoryPtr> PrivateMem;
  uint32_t Epoch = 0;

  /// Non-null while the current group runs race/memory-checked.
  RaceDetector *RD = nullptr;
  MemGuard *MG = nullptr;
  /// Sink for out-of-bounds stores under guarded-memory execution.
  Value ScratchSlot;
  /// Seeded xorshift state driving the perturbed schedule (re-seeded per
  /// group so findings are independent of worker assignment).
  uint64_t RngState = 1;

  arith::EvalContext ArithCtx;
  ItemCtx *ArithItem = nullptr;

  /// Execution-limit state (null / false when the launch is unbounded —
  /// the default — in which case none of the hooks below are reached).
  ExecMonitor *Mon = nullptr;
  bool StepMonitored = false;
  /// Steps left until the next slow tick (shared-state check).
  int64_t Countdown = ExecMonitor::TickInterval;
  /// The statement most recently charged, for limit diagnostics. Points
  /// into the kernel AST, which outlives the worker.
  const CStmtPtr *CurStmt = nullptr;

  [[noreturn]] void
  runtimeError(const std::string &Msg,
               DiagCode Code = DiagCode::RuntimeUnsupported) const {
    P.runtimeError(Msg, Code);
  }

  /// Slow path of the step hook, entered every TickInterval steps:
  /// observes cooperative cancellation and the step / deadline budgets.
  void slowTick() {
    uint64_t Used =
        static_cast<uint64_t>(static_cast<int64_t>(ExecMonitor::TickInterval) -
                              Countdown);
    Countdown = ExecMonitor::TickInterval;
    if (Mon->stopRequested())
      throw CancelledError{};
    if (fault::shouldFail(fault::Site::StepChunk))
      throw InjectedFaultError{fault::Site::StepChunk};
    if (!Mon->claimSteps(Used)) {
      Mon->noteDetail(describeCurStmt());
      Mon->noteLimit(LimitKind::Steps);
      throw LimitError{LimitKind::Steps};
    }
    if (Mon->pastDeadline()) {
      Mon->noteDetail(describeCurStmt());
      Mon->noteLimit(LimitKind::Deadline);
      throw LimitError{LimitKind::Deadline};
    }
    if (Mon->hostCancelled()) {
      Mon->noteDetail(describeCurStmt());
      Mon->noteLimit(LimitKind::Cancelled);
      throw LimitError{LimitKind::Cancelled};
    }
  }

public:
  /// Flushes the partial tick to the shared monitor when a group ends.
  /// Without this, a launch using fewer steps than one TickInterval never
  /// touches the shared budget: LaunchResult::StepsUsed would read 0 and a
  /// sub-tick overshoot would escape the limit. Group-end flushing makes
  /// step accounting exact for completed launches, which the pipeline
  /// graph executor relies on to share one budget across stages.
  void flushSteps() {
    if (!StepMonitored)
      return;
    uint64_t Used =
        static_cast<uint64_t>(static_cast<int64_t>(ExecMonitor::TickInterval) -
                              Countdown);
    Countdown = ExecMonitor::TickInterval;
    if (Used == 0)
      return;
    if (!Mon->claimSteps(Used)) {
      Mon->noteDetail(describeCurStmt());
      Mon->noteLimit(LimitKind::Steps);
      throw LimitError{LimitKind::Steps};
    }
  }

private:
  /// One-line rendering of the statement that tripped a limit.
  std::string describeCurStmt() const {
    if (!CurStmt || !*CurStmt)
      return {};
    std::string S = c::printStmt(*CurStmt);
    size_t NL = S.find('\n');
    if (NL != std::string::npos)
      S.resize(NL);
    if (S.size() > 120) {
      S.resize(117);
      S += "...";
    }
    return "while executing: " + S;
  }

  /// Budget and fault hook for a local / private array (re)allocation.
  /// Only capacity growth is charged: the arenas are reused across the
  /// groups a worker executes, and a reuse allocates nothing.
  void chargeWorkerAlloc(const MemoryPtr &Mem, int64_t Count,
                         const CVar *V) {
    if (Mem && static_cast<size_t>(Count) <= Mem->capacity())
      return;
    uint64_t Grown = static_cast<uint64_t>(Count) -
                     static_cast<uint64_t>(Mem ? Mem->capacity() : 0);
    if (Mon && !Mon->chargeAllocation(bytesFor(Grown))) {
      Mon->noteDetail("while allocating array '" + V->Name + "' (" +
                      std::to_string(bytesFor(static_cast<uint64_t>(Count))) +
                      " bytes)");
      Mon->noteLimit(LimitKind::Memory);
      throw LimitError{LimitKind::Memory};
    }
    if (fault::shouldFail(fault::Site::Alloc))
      runtimeError("injected fault: allocating array '" + V->Name +
                       "' failed",
                   DiagCode::RuntimeFaultInjected);
  }

  void bindItem(ItemCtx &W) {
    for (const BoundArg &B : P.Bindings) {
      if (B.ArithSlot >= 0) {
        W.AVals[B.ArithSlot] = B.ArithInt;
        W.AEpoch[B.ArithSlot] = Epoch;
      }
      W.Frame[B.Slot] = B.Val;
      W.FrameEpoch[B.Slot] = Epoch;
    }
  }

  void setVar(ItemCtx &W, const CVar *V, Value Val) {
    int S = V->Slot;
    if (S < 0)
      runtimeError("internal: variable '" + V->Name + "' has no frame slot");
    if (V->ArithId != 0) {
      W.AVals[V->ArithSlot] = Val.asInt();
      W.AEpoch[V->ArithSlot] = Epoch;
    }
    W.Frame[S] = std::move(Val);
    W.FrameEpoch[S] = Epoch;
  }

  void setVarNoArith(ItemCtx &W, const CVar *V, Value Val) {
    int S = V->Slot;
    if (S < 0)
      runtimeError("internal: variable '" + V->Name + "' has no frame slot");
    W.Frame[S] = std::move(Val);
    W.FrameEpoch[S] = Epoch;
  }

  //===------------------------------------------------------------------===//
  // Lockstep execution
  //===------------------------------------------------------------------===//

  uint64_t nextRand() {
    RngState ^= RngState << 13;
    RngState ^= RngState >> 7;
    RngState ^= RngState << 17;
    return RngState;
  }

  /// A seeded permutation of the work-items — one legal execution order
  /// among the many a GPU could choose within a barrier interval. Returns
  /// a reference to a reused scratch vector; safe because barrier-free
  /// runs never recurse back into permuted().
  std::vector<ItemCtx *> &permuted(const std::vector<ItemCtx *> &WIs) {
    PermScratch = WIs;
    for (size_t I = PermScratch.size(); I > 1; --I)
      std::swap(PermScratch[I - 1], PermScratch[nextRand() % I]);
    return PermScratch;
  }

  /// Executes a statement sequence across the group. Maximal runs of
  /// barrier-free statements form (part of) a barrier interval: the order
  /// in which work-items execute them is unconstrained by OpenCL. The
  /// default schedule is statement-lockstep (every item runs statement i
  /// before any item runs statement i+1); under --perturb-schedule each
  /// item instead runs the whole run to completion, in a seeded random
  /// item order — a schedule that exposes missing-barrier bugs the
  /// statement-lockstep order masks.
  void execLockstep(const std::vector<CStmtPtr> &Stmts,
                    std::vector<ItemCtx *> &WIs) {
    size_t I = 0, N = Stmts.size();
    while (I != N) {
      if (P.stmtBarrier(Stmts[I])) {
        execStmtLockstep(Stmts[I], WIs);
        ++I;
        continue;
      }
      size_t J = I;
      while (J != N && !P.stmtBarrier(Stmts[J]))
        ++J;
      if (P.Cfg.PerturbSchedule) {
        for (ItemCtx *W : permuted(WIs))
          for (size_t S = I; S != J; ++S)
            execNonBarrierStmt(Stmts[S], *W);
      } else {
        for (size_t S = I; S != J; ++S)
          for (ItemCtx *W : WIs)
            execNonBarrierStmt(Stmts[S], *W);
      }
      I = J;
    }
  }

  void execNonBarrierStmt(const CStmtPtr &S, ItemCtx &W) {
    ExecResult R = execStmtSingle(S, W);
    if (R.Returned)
      runtimeError("return outside of a function body");
  }

  /// Reports non-uniform control flow enclosing a barrier: a checked run
  /// records it as barrier divergence and continues with the first item's
  /// decision; an unchecked run aborts, as before.
  void divergentFlow(const std::string &What) {
    if (!RD)
      runtimeError(What + " around a barrier in kernel '" +
                   P.K.Module.Kernel->Name + "'");
    RD->divergence(What + " around a barrier in kernel '" +
                   P.K.Module.Kernel->Name + "'");
  }

  void execStmtLockstep(const CStmtPtr &S, std::vector<ItemCtx *> &WIs) {
    if (!P.stmtBarrier(S)) {
      for (ItemCtx *W : WIs)
        execNonBarrierStmt(S, *W);
      return;
    }

    switch (S->getKind()) {
    case CStmtKind::Barrier:
      Cost.Barriers += WIs.size();
      if (StepMonitored) {
        CurStmt = &S;
        Countdown -= static_cast<int64_t>(WIs.size());
        if (Countdown <= 0)
          slowTick();
      }
      if (fault::shouldFail(fault::Site::Barrier))
        throw InjectedFaultError{fault::Site::Barrier};
      if (RD)
        RD->lockstepBarrier();
      return;
    case CStmtKind::Block:
      execLockstep(cast<Block>(S.get())->getStmts(), WIs);
      return;
    case CStmtKind::For: {
      const auto *F = cast<For>(S.get());
      for (ItemCtx *W : WIs)
        setVar(*W, F->getIV().get(), evalExpr(F->getInit(), *W));
      while (true) {
        bool First = true, Continue = false, Diverged = false;
        for (ItemCtx *W : WIs) {
          bool C = evalCondition(F->getCond(), *W);
          if (First) {
            Continue = C;
            First = false;
          } else if (C != Continue && !Diverged) {
            Diverged = true;
            divergentFlow("non-uniform loop");
          }
        }
        Cost.LoopIters += WIs.size();
        if (StepMonitored) {
          CurStmt = &S;
          Countdown -= static_cast<int64_t>(WIs.size());
          if (Countdown <= 0)
            slowTick();
        }
        if (!Continue)
          break;
        execLockstep(F->getBody()->getStmts(), WIs);
        for (ItemCtx *W : WIs)
          setVar(*W, F->getIV().get(), evalExpr(F->getStep(), *W));
      }
      return;
    }
    case CStmtKind::If: {
      const auto *I = cast<If>(S.get());
      bool First = true, Taken = false, Diverged = false;
      for (ItemCtx *W : WIs) {
        bool C = evalCondition(I->getCond(), *W);
        if (First) {
          Taken = C;
          First = false;
        } else if (C != Taken && !Diverged) {
          Diverged = true;
          divergentFlow("non-uniform branch");
        }
      }
      if (Taken)
        execLockstep(I->getThen()->getStmts(), WIs);
      else if (I->getElse())
        execLockstep(I->getElse()->getStmts(), WIs);
      return;
    }
    default:
      runtimeError("barrier in an unsupported statement position in kernel '" +
                   P.K.Module.Kernel->Name + "': a " + stmtKindName(S) +
                   " statement reaches a barrier (through a function call) "
                   "but cannot be executed in lockstep: " +
                   c::printStmt(S));
    }
  }

  static const char *stmtKindName(const CStmtPtr &S) {
    switch (S->getKind()) {
    case CStmtKind::Block:
      return "block";
    case CStmtKind::VarDecl:
      return "variable declaration";
    case CStmtKind::Assign:
      return "assignment";
    case CStmtKind::ExprStmt:
      return "expression";
    case CStmtKind::For:
      return "for";
    case CStmtKind::If:
      return "if";
    case CStmtKind::Barrier:
      return "barrier";
    case CStmtKind::Return:
      return "return";
    case CStmtKind::Comment:
      return "comment";
    }
    return "?";
  }

  //===------------------------------------------------------------------===//
  // Per-work-item execution
  //===------------------------------------------------------------------===//

  ExecResult execStmtSingle(const CStmtPtr &S, ItemCtx &W) {
    if (StepMonitored) {
      CurStmt = &S;
      if (--Countdown <= 0)
        slowTick();
    }
    switch (S->getKind()) {
    case CStmtKind::Block: {
      for (const CStmtPtr &Sub : cast<Block>(S.get())->getStmts()) {
        ExecResult R = execStmtSingle(Sub, W);
        if (R.Returned)
          return R;
      }
      return {};
    }
    case CStmtKind::VarDecl: {
      const auto *D = cast<VarDecl>(S.get());
      const CVar *V = D->getVar().get();
      if (D->getArraySize()) {
        int64_t Count = evalArith(D->getArraySize(), W);
        if (Count < 0)
          runtimeError("array '" + V->Name + "' has negative element count " +
                           std::to_string(Count),
                       DiagCode::RuntimeBadLaunch);
        int Slot = V->Slot;
        if (Slot < 0)
          runtimeError("internal: array variable '" + V->Name +
                       "' has no frame slot");
        if (D->getAddrSpace() == CAddrSpace::Local) {
          // One allocation shared by the whole work group; the backing
          // vector is reused across the groups this worker executes.
          if (WgLocalEpoch[Slot] != Epoch) {
            MemoryPtr &Mem = WgLocalMem[Slot];
            chargeWorkerAlloc(Mem, Count, V);
            if (!Mem)
              Mem = std::make_shared<std::vector<Value>>();
            Mem->assign(static_cast<size_t>(Count), Value::makeFloat(0));
            if (RD)
              RD->registerBlock(Mem.get(), V->Name);
            if (MG)
              MG->registerBlock(Mem.get(), V->Name,
                                std::make_shared<std::vector<uint8_t>>(
                                    static_cast<size_t>(Count), uint8_t(0)));
            WgLocalEpoch[Slot] = Epoch;
          }
          setVar(W, V, Value::makePtr(WgLocalMem[Slot], MemSpace::Local));
        } else {
          // Private arrays are fresh zeros on every execution of the
          // declaration; the backing vector is reused per (slot, item).
          MemoryPtr &Mem =
              PrivateMem[static_cast<size_t>(Slot) * WIs +
                         static_cast<size_t>(W.Linear)];
          chargeWorkerAlloc(Mem, Count, V);
          if (!Mem)
            Mem = std::make_shared<std::vector<Value>>();
          Mem->assign(static_cast<size_t>(Count), Value::makeFloat(0));
          if (MG)
            MG->registerBlock(Mem.get(), V->Name,
                              std::make_shared<std::vector<uint8_t>>(
                                  static_cast<size_t>(Count), uint8_t(0)));
          setVar(W, V, Value::makePtr(Mem, MemSpace::Private));
        }
        return {};
      }
      Value Init =
          D->getInit() ? evalExpr(D->getInit(), W) : Value::makeFloat(0);
      setVar(W, V, std::move(Init));
      return {};
    }
    case CStmtKind::Assign: {
      const auto *A = cast<Assign>(S.get());
      Value RHS = evalExpr(A->getRhs(), W);
      assignTo(A->getLhs(), std::move(RHS), W);
      return {};
    }
    case CStmtKind::ExprStmt:
      evalExpr(cast<ExprStmt>(S.get())->getExpr(), W);
      return {};
    case CStmtKind::For: {
      const auto *F = cast<For>(S.get());
      setVar(W, F->getIV().get(), evalExpr(F->getInit(), W));
      while (evalCondition(F->getCond(), W)) {
        ++Cost.LoopIters;
        // Per-iteration hook: the statement-entry hook alone would let a
        // non-terminating loop with an empty body spin forever.
        if (StepMonitored) {
          CurStmt = &S;
          if (--Countdown <= 0)
            slowTick();
        }
        for (const CStmtPtr &Sub : F->getBody()->getStmts()) {
          ExecResult R = execStmtSingle(Sub, W);
          if (R.Returned)
            return R;
        }
        setVar(W, F->getIV().get(), evalExpr(F->getStep(), W));
      }
      return {};
    }
    case CStmtKind::If: {
      const auto *I = cast<If>(S.get());
      if (evalCondition(I->getCond(), W)) {
        for (const CStmtPtr &Sub : I->getThen()->getStmts()) {
          ExecResult R = execStmtSingle(Sub, W);
          if (R.Returned)
            return R;
        }
      } else if (I->getElse()) {
        for (const CStmtPtr &Sub : I->getElse()->getStmts()) {
          ExecResult R = execStmtSingle(Sub, W);
          if (R.Returned)
            return R;
        }
      }
      return {};
    }
    case CStmtKind::Barrier:
      // A barrier executed by a single item (divergent control flow or a
      // barrier inside a called function): it does not synchronize.
      // Charge one wait and tally the arrival for the divergence check.
      ++Cost.Barriers;
      if (fault::shouldFail(fault::Site::Barrier))
        throw InjectedFaultError{fault::Site::Barrier};
      if (RD)
        RD->itemBarrier(W.Linear);
      return {};
    case CStmtKind::Return: {
      ExecResult R;
      R.Returned = true;
      if (cast<Return>(S.get())->getValue())
        R.Ret = evalExpr(cast<Return>(S.get())->getValue(), W);
      return R;
    }
    case CStmtKind::Comment:
      return {};
    }
    lift_unreachable("unhandled statement kind");
  }

  //===------------------------------------------------------------------===//
  // L-values
  //===------------------------------------------------------------------===//

  Value *lvalue(const CExprPtr &E, ItemCtx &W) {
    switch (E->getKind()) {
    case CExprKind::VarRef: {
      const CVar *V = cast<VarRef>(E.get())->getVar().get();
      ++Cost.PrivateAccesses;
      int S = V->Slot;
      if (S < 0)
        runtimeError("internal: variable '" + V->Name +
                     "' has no frame slot");
      if (W.FrameEpoch[S] != Epoch) {
        W.Frame[S] = Value();
        W.FrameEpoch[S] = Epoch;
      }
      return &W.Frame[S];
    }
    case CExprKind::ArrayAccess: {
      const auto *A = cast<ArrayAccess>(E.get());
      Value BaseTmp;
      const Value *Base = evalVia(A->getBase(), W, BaseTmp);
      if (Base->K != Value::Ptr)
        runtimeError("array access on a non-pointer");
      int64_t Idx = evalIndex(A->getIndex(), W);
      noteAccess(*Base, Idx, W, /*IsWrite=*/true);
      if (MG) {
        if (MG->check(Base->P.get(), Idx, Base->P->size(), W.Linear,
                      W.GroupId,
                      /*IsWrite=*/true) == MemGuard::Access::OutOfBounds)
          return &ScratchSlot; // record and drop the store, keep running
      } else if (Idx < 0 || static_cast<size_t>(Idx) >= Base->P->size()) {
        runtimeError("store out of bounds: index " + std::to_string(Idx) +
                         " of " + std::to_string(Base->P->size()),
                     DiagCode::RuntimeOutOfBounds);
      }
      return &(*Base->P)[static_cast<size_t>(Idx)];
    }
    case CExprKind::Member: {
      const auto *M = cast<Member>(E.get());
      Value *Base = lvalue(M->getBase(), W);
      int Idx = fieldIndexOf(M->getField());
      if (Base->K != Value::Tup || Idx < 0 ||
          static_cast<size_t>(Idx) >= Base->T.size())
        runtimeError("bad struct member store ." + M->getField());
      return &Base->T[static_cast<size_t>(Idx)];
    }
    default:
      runtimeError("unsupported assignment target");
    }
  }

  void assignTo(const CExprPtr &Lhs, Value V, ItemCtx &W) {
    if (const auto *VR = dyn_cast<VarRef>(Lhs.get())) {
      setVar(W, VR->getVar().get(), std::move(V));
      ++Cost.PrivateAccesses;
      return;
    }
    *lvalue(Lhs, W) = std::move(V);
  }

  static int fieldIndexOf(const std::string &Field) {
    if (Field.size() >= 2 && Field[0] == '_')
      return std::atoi(Field.c_str() + 1);
    return -1;
  }

  void chargeAccess(MemSpace S) {
    switch (S) {
    case MemSpace::Global:
      ++Cost.GlobalAccesses;
      break;
    case MemSpace::Local:
      ++Cost.LocalAccesses;
      break;
    case MemSpace::Private:
      ++Cost.PrivateAccesses;
      break;
    }
  }

  /// Charges the cost model and, on a checked run, records the access in
  /// the current barrier interval's access set.
  void noteAccess(const Value &Base, int64_t Idx, const ItemCtx &W,
                  bool IsWrite) {
    chargeAccess(Base.Space);
    if (RD)
      RD->recordAccess(Base.P.get(), Idx, Base.Space, W.Linear, IsWrite);
  }

  //===------------------------------------------------------------------===//
  // Arithmetic index expressions
  //===------------------------------------------------------------------===//

  int64_t evalArith(const arith::Expr &E, ItemCtx &W) {
    // Charge the static operation count of the index expression — this is
    // where disabling array access simplification shows up as cost.
    auto [DivMods, Others] = P.indexCostOf(E);
    Cost.DivModOps += DivMods;
    Cost.ArithOps += Others;
    ArithItem = &W;
    return arith::evaluate(E, ArithCtx);
  }

  /// ArithValue nodes carry their static cost (annotated at plan setup),
  /// skipping the shared-cache lookup of evalArith.
  int64_t evalArithValue(const ArithValue *AV, ItemCtx &W) {
    if (AV->CostDivMods < 0)
      return evalArith(AV->getValue(), W); // unannotated module
    Cost.DivModOps += static_cast<unsigned>(AV->CostDivMods);
    Cost.ArithOps += AV->CostOthers;
    ArithItem = &W;
    return arith::evaluate(AV->getValue(), ArithCtx);
  }

  //===------------------------------------------------------------------===//
  // Expressions
  //===------------------------------------------------------------------===//

  /// Integer-valued operand expressions (array indices, NDRange
  /// dimensions): the dominant kinds evaluate without materializing a
  /// Value temporary.
  int64_t evalIndex(const CExprPtr &E, ItemCtx &W) {
    switch (E->getKind()) {
    case CExprKind::IntLit:
      return cast<IntLit>(E.get())->getValue();
    case CExprKind::ArithValue:
      return evalArithValue(cast<ArithValue>(E.get()), W);
    default:
      return evalExpr(E, W).asInt();
    }
  }

  /// Resolves an expression that names a storage location — a variable,
  /// an array element, or a tuple field of such a place — to a pointer at
  /// the stored value, with exactly the cost accounting and race/guard
  /// recording of the evalExpr read path. Results with no storage to
  /// point at (a guarded out-of-bounds read, a vector component) are
  /// materialized into \p Tmp. Returns null — before any side effect —
  /// when the expression is not a place; the caller falls back to
  /// evalExpr.
  ///
  /// The pointer is valid until the storage (or \p Tmp) is next written;
  /// callers consume or copy the leaf value first, mirroring C's
  /// unsequenced operand evaluation.
  const Value *evalPlace(const CExprPtr &E, ItemCtx &W, Value &Tmp) {
    switch (E->getKind()) {
    case CExprKind::VarRef: {
      const CVar *V = cast<VarRef>(E.get())->getVar().get();
      int S = V->Slot;
      if (S < 0 || W.FrameEpoch[S] != Epoch)
        runtimeError("use of undeclared variable " + V->Name);
      return &W.Frame[S];
    }
    case CExprKind::ArrayAccess: {
      const auto *A = cast<ArrayAccess>(E.get());
      Value BaseTmp;
      const Value *Base = evalVia(A->getBase(), W, BaseTmp);
      if (Base->K != Value::Ptr)
        runtimeError("array access on a non-pointer");
      int64_t Idx = evalIndex(A->getIndex(), W);
      noteAccess(*Base, Idx, W, /*IsWrite=*/false);
      if (MG) {
        if (MG->check(Base->P.get(), Idx, Base->P->size(), W.Linear,
                      W.GroupId,
                      /*IsWrite=*/false) == MemGuard::Access::OutOfBounds) {
          Tmp = Value::makeFloat(0); // record and read zero, keep running
          return &Tmp;
        }
      } else if (Idx < 0 || static_cast<size_t>(Idx) >= Base->P->size()) {
        runtimeError("load out of bounds: index " + std::to_string(Idx) +
                         " of " + std::to_string(Base->P->size()),
                     DiagCode::RuntimeOutOfBounds);
      }
      return &(*Base->P)[static_cast<size_t>(Idx)];
    }
    case CExprKind::Member: {
      const auto *M = cast<Member>(E.get());
      const Value *Base = evalPlace(M->getBase(), W, Tmp);
      if (!Base)
        return nullptr; // computed aggregate: evalExpr materializes it
      if (Base->K == Value::Tup) {
        int Idx = fieldIndexOf(M->getField());
        if (Idx < 0 || static_cast<size_t>(Idx) >= Base->T.size())
          runtimeError("bad struct member ." + M->getField());
        return &Base->T[static_cast<size_t>(Idx)];
      }
      if (Base->K == Value::Vec) {
        Tmp = Value::makeFloat(
            Base->V[vectorComponent(M->getField(), Base->V.size())]);
        return &Tmp;
      }
      runtimeError("member access on a non-aggregate");
    }
    default:
      return nullptr;
    }
  }

  /// Evaluates \p E without copying when it names a place, materializing
  /// into \p Tmp otherwise. The kind gate keeps non-place expressions off
  /// the evalPlace call entirely.
  const Value *evalVia(const CExprPtr &E, ItemCtx &W, Value &Tmp) {
    switch (E->getKind()) {
    case CExprKind::VarRef:
    case CExprKind::ArrayAccess:
      return evalPlace(E, W, Tmp); // always resolve
    case CExprKind::Member:
      if (const Value *Pl = evalPlace(E, W, Tmp))
        return Pl;
      break;
    default:
      break;
    }
    Tmp = evalExpr(E, W);
    return &Tmp;
  }

  Value evalExpr(const CExprPtr &E, ItemCtx &W) {
    switch (E->getKind()) {
    case CExprKind::IntLit:
      return Value::makeInt(cast<IntLit>(E.get())->getValue());
    case CExprKind::FloatLit:
      return Value::makeFloat(cast<FloatLit>(E.get())->getValue());
    case CExprKind::VarRef: {
      const CVar *V = cast<VarRef>(E.get())->getVar().get();
      int S = V->Slot;
      if (S < 0 || W.FrameEpoch[S] != Epoch)
        runtimeError("use of undeclared variable " + V->Name);
      return W.Frame[S];
    }
    case CExprKind::ArithValue:
      return Value::makeInt(evalArithValue(cast<ArithValue>(E.get()), W));
    case CExprKind::ArrayAccess: {
      Value Tmp;
      return *evalPlace(E, W, Tmp); // array accesses always resolve
    }
    case CExprKind::Member: {
      Value Tmp;
      if (const Value *Pl = evalPlace(E, W, Tmp))
        return *Pl;
      // The base is a computed aggregate (call, constructor): materialize
      // it and extract the field.
      const auto *M = cast<Member>(E.get());
      Value Base = evalExpr(M->getBase(), W);
      if (Base.K == Value::Tup) {
        int Idx = fieldIndexOf(M->getField());
        if (Idx < 0 || static_cast<size_t>(Idx) >= Base.T.size())
          runtimeError("bad struct member ." + M->getField());
        return std::move(Base.T[static_cast<size_t>(Idx)]);
      }
      if (Base.K == Value::Vec)
        return Value::makeFloat(Base.V[vectorComponent(M->getField(),
                                                       Base.V.size())]);
      runtimeError("member access on a non-aggregate");
    }
    case CExprKind::Binary:
      return evalBinary(cast<Binary>(E.get()), W);
    case CExprKind::Unary: {
      const auto *U = cast<Unary>(E.get());
      Value S = evalExpr(U->getSub(), W);
      ++Cost.ArithOps;
      if (U->getOp() == UnOp::Not)
        return Value::makeInt(!S.asBool());
      if (S.K == Value::Int)
        return Value::makeInt(wrapNeg(S.I));
      if (S.K == Value::Vec) {
        for (double &D : S.V)
          D = -D;
        return S;
      }
      return Value::makeFloat(-S.asFloat());
    }
    case CExprKind::Call:
      return evalCall(cast<Call>(E.get()), W);
    case CExprKind::Ternary: {
      const auto *T = cast<Ternary>(E.get());
      ++Cost.ArithOps;
      return evalCondition(T->getCond(), W) ? evalExpr(T->getThen(), W)
                                            : evalExpr(T->getElse(), W);
    }
    case CExprKind::CastExpr: {
      const auto *C = cast<CastExpr>(E.get());
      Value S = evalExpr(C->getSub(), W);
      const CTypePtr &Ty = C->getType();
      if (isa<ScalarCType>(Ty.get())) {
        switch (cast<ScalarCType>(Ty.get())->getScalarKind()) {
        case CScalarKind::Int:
        case CScalarKind::Bool:
          return Value::makeInt(S.asInt());
        case CScalarKind::Float:
        case CScalarKind::Double:
          return Value::makeFloat(S.asFloat());
        }
      }
      return S; // pointer casts pass through
    }
    case CExprKind::ConstructVector: {
      const auto *V = cast<ConstructVector>(E.get());
      const auto *VT = cast<VectorCType>(V->getType().get());
      VecN Comps;
      if (V->getArgs().size() == 1) {
        double X = evalExpr(V->getArgs()[0], W).asFloat();
        Comps.assign(VT->getWidth(), X);
      } else {
        Comps.reserve(V->getArgs().size());
        for (const CExprPtr &A : V->getArgs())
          Comps.push_back(evalExpr(A, W).asFloat());
        if (Comps.size() != VT->getWidth())
          runtimeError("vector constructor arity mismatch");
      }
      return Value::makeVec(std::move(Comps));
    }
    case CExprKind::ConstructStruct: {
      const auto *C = cast<ConstructStruct>(E.get());
      std::vector<Value> Fields;
      Fields.reserve(C->getArgs().size());
      for (const CExprPtr &A : C->getArgs()) {
        Value Tmp;
        if (const Value *Pl = evalPlace(A, W, Tmp))
          Fields.push_back(*Pl);
        else
          Fields.push_back(evalExpr(A, W));
      }
      return Value::makeTuple(std::move(Fields));
    }
    case CExprKind::VectorLoad: {
      const auto *V = cast<VectorLoad>(E.get());
      Value BaseTmp;
      const Value &Base = *evalVia(V->getPointer(), W, BaseTmp);
      if (Base.K != Value::Ptr)
        runtimeError("vload on a non-pointer");
      int64_t Idx = evalIndex(V->getIndex(), W);
      chargeAccess(Base.Space);
      VecN Comps;
      Comps.reserve(V->getWidth());
      for (unsigned I = 0; I != V->getWidth(); ++I) {
        size_t At = static_cast<size_t>(Idx) * V->getWidth() + I;
        if (MG) {
          if (MG->check(Base.P.get(), static_cast<int64_t>(At),
                        Base.P->size(), W.Linear, W.GroupId,
                        /*IsWrite=*/false) == MemGuard::Access::OutOfBounds) {
            Comps.push_back(0);
            continue;
          }
        } else if (At >= Base.P->size()) {
          runtimeError("vload out of bounds", DiagCode::RuntimeOutOfBounds);
        }
        if (RD)
          RD->recordAccess(Base.P.get(), static_cast<int64_t>(At),
                           Base.Space, W.Linear, /*IsWrite=*/false);
        Comps.push_back((*Base.P)[At].asFloat());
      }
      return Value::makeVec(std::move(Comps));
    }
    case CExprKind::VectorStore: {
      const auto *V = cast<VectorStore>(E.get());
      // Operands stay copies: the loop below writes the target buffer,
      // which a place-resolved operand could alias.
      Value Val = evalExpr(V->getValue(), W);
      Value Base = evalExpr(V->getPointer(), W);
      if (Base.K != Value::Ptr || Val.K != Value::Vec)
        runtimeError("vstore operand mismatch");
      int64_t Idx = evalIndex(V->getIndex(), W);
      chargeAccess(Base.Space);
      for (unsigned I = 0; I != V->getWidth(); ++I) {
        size_t At = static_cast<size_t>(Idx) * V->getWidth() + I;
        if (MG) {
          if (MG->check(Base.P.get(), static_cast<int64_t>(At),
                        Base.P->size(), W.Linear, W.GroupId,
                        /*IsWrite=*/true) == MemGuard::Access::OutOfBounds)
            continue; // record and drop the component, keep running
        } else if (At >= Base.P->size()) {
          runtimeError("vstore out of bounds", DiagCode::RuntimeOutOfBounds);
        }
        if (RD)
          RD->recordAccess(Base.P.get(), static_cast<int64_t>(At),
                           Base.Space, W.Linear, /*IsWrite=*/true);
        (*Base.P)[At] = Value::makeFloat(Val.V[I]);
      }
      return Value::makeInt(0);
    }
    }
    lift_unreachable("unhandled expression kind");
  }

  static size_t vectorComponent(const std::string &Field, size_t Width) {
    if (Field.size() == 1) {
      switch (Field[0]) {
      case 'x':
        return 0;
      case 'y':
        return 1;
      case 'z':
        return 2;
      case 'w':
        return 3;
      default:
        break;
      }
    }
    if (Field.size() >= 2 && Field[0] == 's') {
      size_t I = static_cast<size_t>(std::atoi(Field.c_str() + 1));
      if (I < Width)
        return I;
    }
    throwDiag(DiagCode::RuntimeBadValue, DiagLocation(),
              "runtime: bad vector component ." + Field);
  }

  Value evalBinary(const Binary *B, ItemCtx &W) {
    // Operands read through the place path: a variable, array-element or
    // tuple-field operand is consumed where it is stored instead of being
    // copied. The two evaluations are unsequenced with respect to each
    // other, as in C.
    Value LT, RT;
    const Value &L = *evalVia(B->getLhs(), W, LT);
    const Value &R = *evalVia(B->getRhs(), W, RT);
    return applyBinary(B->getOp(), L, R);
  }

  /// Boolean contexts (loop and branch conditions, ternaries): integer
  /// comparisons — the overwhelmingly common case — produce the bool
  /// directly instead of materializing a Value.
  bool evalCondition(const CExprPtr &E, ItemCtx &W) {
    if (E->getKind() == CExprKind::Binary) {
      const auto *B = cast<Binary>(E.get());
      Value LT, RT;
      const Value &L = *evalVia(B->getLhs(), W, LT);
      const Value &R = *evalVia(B->getRhs(), W, RT);
      if (L.K == Value::Int && R.K == Value::Int) {
        int64_t A = L.I, Bv = R.I;
        switch (B->getOp()) {
        case BinOp::Lt:
          ++Cost.ArithOps;
          return A < Bv;
        case BinOp::Le:
          ++Cost.ArithOps;
          return A <= Bv;
        case BinOp::Gt:
          ++Cost.ArithOps;
          return A > Bv;
        case BinOp::Ge:
          ++Cost.ArithOps;
          return A >= Bv;
        case BinOp::Eq:
          ++Cost.ArithOps;
          return A == Bv;
        case BinOp::Ne:
          ++Cost.ArithOps;
          return A != Bv;
        case BinOp::And:
          ++Cost.ArithOps;
          return A != 0 && Bv != 0;
        case BinOp::Or:
          ++Cost.ArithOps;
          return A != 0 || Bv != 0;
        default:
          break; // arithmetic result: the general path charges the cost
        }
      }
      return applyBinary(B->getOp(), L, R).asBool();
    }
    return evalExpr(E, W).asBool();
  }

  Value applyBinary(BinOp Op, const Value &L, const Value &R) {

    // Vector operations apply element-wise, with scalar broadcast.
    if (L.K == Value::Vec || R.K == Value::Vec) {
      size_t Width = L.K == Value::Vec ? L.V.size() : R.V.size();
      Cost.ArithOps += Width;
      VecN Out(Width);
      for (size_t I = 0; I != Width; ++I) {
        double A = L.K == Value::Vec ? L.V[I] : L.asFloat();
        double Bv = R.K == Value::Vec ? R.V[I] : R.asFloat();
        Out[I] = applyFloatOp(Op, A, Bv);
      }
      return Value::makeVec(std::move(Out));
    }

    if (L.K == Value::Int && R.K == Value::Int &&
        (Op == BinOp::Div || Op == BinOp::Rem))
      ++Cost.DivModOps;
    else
      ++Cost.ArithOps;
    if (L.K == Value::Int && R.K == Value::Int) {
      int64_t A = L.I, Bv = R.I;
      switch (Op) {
      case BinOp::Add:
        return Value::makeInt(wrapAdd(A, Bv));
      case BinOp::Sub:
        return Value::makeInt(wrapSub(A, Bv));
      case BinOp::Mul:
        return Value::makeInt(wrapMul(A, Bv));
      case BinOp::Div:
        if (Bv == 0)
          runtimeError("integer division by zero",
                       DiagCode::RuntimeDivByZero);
        // INT64_MIN / -1 overflows; wrap like the negation it is.
        if (Bv == -1)
          return Value::makeInt(wrapNeg(A));
        return Value::makeInt(A / Bv);
      case BinOp::Rem:
        if (Bv == 0)
          runtimeError("integer remainder by zero",
                       DiagCode::RuntimeDivByZero);
        if (Bv == -1)
          return Value::makeInt(0);
        return Value::makeInt(A % Bv);
      case BinOp::Lt:
        return Value::makeInt(A < Bv);
      case BinOp::Le:
        return Value::makeInt(A <= Bv);
      case BinOp::Gt:
        return Value::makeInt(A > Bv);
      case BinOp::Ge:
        return Value::makeInt(A >= Bv);
      case BinOp::Eq:
        return Value::makeInt(A == Bv);
      case BinOp::Ne:
        return Value::makeInt(A != Bv);
      case BinOp::And:
        return Value::makeInt(A != 0 && Bv != 0);
      case BinOp::Or:
        return Value::makeInt(A != 0 || Bv != 0);
      }
      lift_unreachable("unhandled binary operator");
    }

    double A = L.asFloat(), Bv = R.asFloat();
    switch (Op) {
    case BinOp::Lt:
      return Value::makeInt(A < Bv);
    case BinOp::Le:
      return Value::makeInt(A <= Bv);
    case BinOp::Gt:
      return Value::makeInt(A > Bv);
    case BinOp::Ge:
      return Value::makeInt(A >= Bv);
    case BinOp::Eq:
      return Value::makeInt(A == Bv);
    case BinOp::Ne:
      return Value::makeInt(A != Bv);
    case BinOp::And:
      return Value::makeInt(A != 0 && Bv != 0);
    case BinOp::Or:
      return Value::makeInt(A != 0 || Bv != 0);
    default:
      return Value::makeFloat(applyFloatOp(Op, A, Bv));
    }
  }

  [[noreturn]] static void badFloatOp() {
    throwDiag(DiagCode::RuntimeUnsupported, DiagLocation(),
              "runtime: unsupported float operation");
  }

  static double applyFloatOp(BinOp Op, double A, double B) {
    switch (Op) {
    case BinOp::Add:
      return A + B;
    case BinOp::Sub:
      return A - B;
    case BinOp::Mul:
      return A * B;
    case BinOp::Div:
      return A / B;
    case BinOp::Lt:
      return A < B;
    case BinOp::Gt:
      return A > B;
    case BinOp::Le:
      return A <= B;
    case BinOp::Ge:
      return A >= B;
    case BinOp::Eq:
      return A == B;
    case BinOp::Ne:
      return A != B;
    default:
      badFloatOp();
    }
  }

  using MathFn = double (*)(double);

  static MathFn unaryMathFn(c::CallKind K) {
    switch (K) {
    case c::CallKind::Sqrt:
      return [](double X) { return std::sqrt(X); };
    case c::CallKind::Rsqrt:
      return [](double X) { return 1.0 / std::sqrt(X); };
    case c::CallKind::Sin:
      return [](double X) { return std::sin(X); };
    case c::CallKind::Cos:
      return [](double X) { return std::cos(X); };
    case c::CallKind::Exp:
      return [](double X) { return std::exp(X); };
    case c::CallKind::Log:
      return [](double X) { return std::log(X); };
    case c::CallKind::Fabs:
      return [](double X) { return std::fabs(X); };
    default:
      return [](double X) { return std::floor(X); };
    }
  }

  Value evalCall(const Call *C, ItemCtx &W) {
    // The callee kind is resolved once per module alongside variable
    // slots; a module launched without that pass classifies by name here.
    int RK = C->ResolvedKind;
    if (RK < 0)
      RK = static_cast<int>(c::classifyBuiltin(C->getCallee()));
    c::CallKind Kind = static_cast<c::CallKind>(RK);

    switch (Kind) {
    case c::CallKind::GetLocalId:
    case c::CallKind::GetGroupId:
    case c::CallKind::GetGlobalId:
    case c::CallKind::GetLocalSize:
    case c::CallKind::GetNumGroups:
    case c::CallKind::GetGlobalSize: {
      int64_t D = evalIndex(C->getArgs()[0], W);
      if (D < 0 || D > 2)
        runtimeError("bad NDRange dimension");
      switch (Kind) {
      case c::CallKind::GetLocalId:
        return Value::makeInt(W.LocalId[D]);
      case c::CallKind::GetGroupId:
        return Value::makeInt(W.GroupId[D]);
      case c::CallKind::GetGlobalId:
        return Value::makeInt(W.GroupId[D] * P.Cfg.Local[D] + W.LocalId[D]);
      case c::CallKind::GetLocalSize:
        return Value::makeInt(P.Cfg.Local[D]);
      case c::CallKind::GetNumGroups:
        return Value::makeInt(P.Cfg.Global[D] / P.Cfg.Local[D]);
      default:
        return Value::makeInt(P.Cfg.Global[D]);
      }
    }

    case c::CallKind::Sqrt:
    case c::CallKind::Rsqrt:
    case c::CallKind::Sin:
    case c::CallKind::Cos:
    case c::CallKind::Exp:
    case c::CallKind::Log:
    case c::CallKind::Fabs:
    case c::CallKind::Floor: {
      ++Cost.MathCalls;
      MathFn Fn = unaryMathFn(Kind);
      Value A = evalExpr(C->getArgs()[0], W);
      if (A.K == Value::Vec) {
        for (double &D : A.V)
          D = Fn(D);
        return A;
      }
      return Value::makeFloat(Fn(A.asFloat()));
    }

    case c::CallKind::Fmin:
    case c::CallKind::Fmax:
    case c::CallKind::Pow: {
      ++Cost.MathCalls;
      double A = evalExpr(C->getArgs()[0], W).asFloat();
      double B = evalExpr(C->getArgs()[1], W).asFloat();
      if (Kind == c::CallKind::Pow)
        return Value::makeFloat(std::pow(A, B));
      return Value::makeFloat(Kind == c::CallKind::Fmin ? std::fmin(A, B)
                                                        : std::fmax(A, B));
    }

    case c::CallKind::Dot: {
      ++Cost.MathCalls;
      Value T1, T2;
      const Value &A = *evalVia(C->getArgs()[0], W, T1);
      const Value &B = *evalVia(C->getArgs()[1], W, T2);
      if (A.K != Value::Vec || B.K != Value::Vec || A.V.size() != B.V.size())
        runtimeError("dot expects equal-width vectors");
      double S = 0;
      for (size_t I = 0; I != A.V.size(); ++I)
        S += A.V[I] * B.V[I];
      return Value::makeFloat(S);
    }

    case c::CallKind::User:
      break;
    }

    // User functions from the module.
    const CFunction *F = C->ResolvedFn;
    if (!F) {
      F = P.K.Module.findFunction(C->getCallee()).get();
      if (!F)
        runtimeError("call to unknown function " + C->getCallee());
    }
    ++Cost.Calls;
    if (F->Params.size() != C->getArgs().size())
      runtimeError("arity mismatch calling " + C->getCallee());
    for (size_t I = 0, E = C->getArgs().size(); I != E; ++I)
      setVarNoArith(W, F->Params[I].get(), evalExpr(C->getArgs()[I], W));
    for (const CStmtPtr &S : F->Body->getStmts()) {
      ExecResult R = execStmtSingle(S, W);
      if (R.Returned)
        return std::move(R.Ret);
    }
    runtimeError("function " + C->getCallee() + " did not return a value");
  }
};

/// Renders the limit that cancelled the launch as a structured
/// diagnostic. Synthesized after the join from the shared monitor state,
/// so the message is identical at any thread count.
[[noreturn]] void throwLimitDiag(const LaunchPlan &Plan, ExecMonitor &Mon) {
  std::string Kernel =
      Plan.K.Module.Kernel ? Plan.K.Module.Kernel->Name : "kernel";
  std::vector<std::string> Notes;
  std::string Detail = Mon.detail();
  if (!Detail.empty())
    Notes.push_back(Detail);
  Notes.push_back(
      "the launch was cancelled; its buffers are poisoned until rewritten");
  switch (Mon.tripped()) {
  case LimitKind::Steps:
    throwDiag(DiagCode::RuntimeStepLimit, DiagLocation::inContext(Kernel),
              "runtime: step budget of " +
                  std::to_string(Mon.Limits.MaxSteps) +
                  " interpreter steps exhausted",
              Notes);
  case LimitKind::Deadline:
    throwDiag(DiagCode::RuntimeDeadline, DiagLocation::inContext(Kernel),
              "runtime: wall-clock deadline of " +
                  std::to_string(Mon.Limits.TimeoutMs) + " ms exceeded",
              Notes);
  case LimitKind::Memory:
    throwDiag(DiagCode::RuntimeMemoryLimit, DiagLocation::inContext(Kernel),
              "runtime: device memory limit of " +
                  std::to_string(Mon.Limits.MaxMemoryBytes) +
                  " bytes exceeded",
              Notes);
  case LimitKind::Cancelled:
    throwDiag(DiagCode::RuntimeCancelled, DiagLocation::inContext(Kernel),
              "runtime: launch cancelled by the host", Notes);
  case LimitKind::None:
    break;
  }
  fatalError("internal: limit diagnostic requested with no tripped limit");
}

/// Renders an injected mid-execution fault as the stable E0515
/// diagnostic. The message names only the kernel and the fault site —
/// never a group index or occurrence count — so the rendered text is
/// bit-identical at any thread count even though which worker tripped the
/// fault is scheduling-dependent.
[[noreturn]] void throwInjectedFaultDiag(const LaunchPlan &Plan,
                                         fault::Site S) {
  std::string Kernel =
      Plan.K.Module.Kernel ? Plan.K.Module.Kernel->Name : "kernel";
  throwDiag(DiagCode::RuntimeFaultMidExec, DiagLocation::inContext(Kernel),
            std::string("runtime: injected ") + fault::siteName(S) +
                " fault cancelled the launch",
            {"the launch was cancelled; its buffers are poisoned until "
             "rewritten"});
}

/// Dispatches the plan's work-groups over \p Workers pool workers (the
/// caller participates as worker 0) and merges per-worker costs and
/// per-group findings in canonical group order, so every observable
/// result is identical at any thread count. \p Engine, when non-null,
/// receives non-fatal warnings (the serial-fallback notice).
CostReport executePlan(LaunchPlan &Plan, RaceReport &Races,
                       GuardReport &Guards, DiagnosticEngine *Engine) {
  unsigned Workers = resolveThreadCount(Plan.Cfg.Threads);
  if (static_cast<int64_t>(Workers) > Plan.NumGroups)
    Workers = static_cast<unsigned>(Plan.NumGroups);
  if (Workers == 0)
    Workers = 1;

  const bool CheckR = Plan.Cfg.CheckRaces;
  const bool CheckM = Plan.Cfg.CheckMemory;
  const int64_t NumGroups = Plan.NumGroups;
  // The cross-group hazard pass needs every group's global footprint;
  // a single group cannot conflict with another one.
  const bool CollectXG = CheckR && NumGroups > 1;
  std::vector<RaceReport> GroupRaces(
      CheckR ? static_cast<size_t>(NumGroups) : 0);
  std::vector<GuardReport> GroupGuards(
      CheckM ? static_cast<size_t>(NumGroups) : 0);
  std::vector<std::vector<std::pair<const void *, int64_t>>> GroupWrites(
      CheckM ? static_cast<size_t>(NumGroups) : 0);
  std::vector<std::vector<RaceDetector::GlobalAccess>> GroupGlobalAcc(
      CollectXG ? static_cast<size_t>(NumGroups) : 0);
  std::vector<CostReport> WorkerCosts(Workers);
  std::vector<std::exception_ptr> GroupErrors(static_cast<size_t>(NumGroups));
  std::atomic<int64_t> NextGroup{0};
  std::atomic<bool> Failed{false};
  // First injected mid-execution fault wins (-1 = none); the diagnostic
  // is synthesized after the join, like execution limits.
  std::atomic<int> InjectedSite{-1};
  ExecMonitor *Mon = Plan.Monitor.get();

  // A failure outside any group (GroupWorker construction): first one
  // wins, reported after the join.
  std::mutex WorkerErrM;
  std::exception_ptr WorkerErr;

  auto Body = [&](unsigned Wx) {
    try {
      GroupWorker Worker(Plan);
      while (!Failed.load(std::memory_order_relaxed)) {
        int64_t G = NextGroup.fetch_add(1, std::memory_order_relaxed);
        if (G >= NumGroups)
          break;
        try {
          if (fault::shouldFail(fault::Site::GroupDispatch))
            throw InjectedFaultError{fault::Site::GroupDispatch};
          Worker.runGroup(
              G, CheckR ? &GroupRaces[static_cast<size_t>(G)] : nullptr,
              CheckM ? &GroupGuards[static_cast<size_t>(G)] : nullptr,
              CheckM ? &GroupWrites[static_cast<size_t>(G)] : nullptr,
              CollectXG ? &GroupGlobalAcc[static_cast<size_t>(G)] : nullptr);
          Worker.flushSteps();
        } catch (const CancelledError &) {
          // Another worker tripped a limit or failed first; just unwind.
          Failed.store(true, std::memory_order_relaxed);
        } catch (const InjectedFaultError &E) {
          // First injected fault wins; cancel the launch cooperatively.
          int Expected = -1;
          InjectedSite.compare_exchange_strong(Expected,
                                               static_cast<int>(E.S),
                                               std::memory_order_relaxed);
          Failed.store(true, std::memory_order_relaxed);
          if (Mon)
            Mon->requestStop();
        } catch (const LimitError &) {
          // The shared monitor holds the (first) tripped limit; the
          // diagnostic is synthesized after the join so it is identical
          // at any thread count.
          Failed.store(true, std::memory_order_relaxed);
        } catch (...) {
          // Record per group, cancel the launch, and let the smallest
          // failing group index win after the join — the same error a
          // serial in-order run would have surfaced first.
          GroupErrors[static_cast<size_t>(G)] = std::current_exception();
          Failed.store(true, std::memory_order_relaxed);
          if (Mon)
            Mon->requestStop();
        }
      }
      WorkerCosts[Wx] = Worker.Cost;
    } catch (...) {
      // Workers must never let an exception escape onto a pool thread
      // (std::terminate); stash it and cancel the launch.
      {
        std::lock_guard<std::mutex> L(WorkerErrM);
        if (!WorkerErr)
          WorkerErr = std::current_exception();
      }
      Failed.store(true, std::memory_order_relaxed);
      if (Mon)
        Mon->requestStop();
    }
  };

  if (Workers == 1) {
    Body(0);
  } else if (!ThreadPool::global().tryRun(Workers, Body)) {
    // The worker pool could not be brought up (thread creation failed or
    // a fault was injected): degrade to serial execution — identical
    // results, just slower — and leave a warning behind.
    std::string Kernel =
        Plan.K.Module.Kernel ? Plan.K.Module.Kernel->Name : "kernel";
    if (Engine)
      Engine->warning(DiagCode::RuntimePoolFallback,
                      DiagLocation::inContext(Kernel),
                      "worker pool unavailable; executing " +
                          std::to_string(NumGroups) +
                          " work-group(s) serially");
    else
      std::fprintf(stderr,
                   "lift: warning: worker pool unavailable; executing "
                   "work-groups of kernel '%s' serially\n",
                   Kernel.c_str());
    Body(0);
  }

  // Post-join error precedence: a real per-group error first (serial
  // order), then an injected mid-execution fault, then a tripped
  // execution limit, then a worker-level failure.
  for (int64_t G = 0; G != NumGroups; ++G)
    if (GroupErrors[static_cast<size_t>(G)])
      std::rethrow_exception(GroupErrors[static_cast<size_t>(G)]);
  if (int S = InjectedSite.load(std::memory_order_relaxed); S >= 0)
    throwInjectedFaultDiag(Plan, static_cast<fault::Site>(S));
  if (Mon && Mon->tripped() != LimitKind::None)
    throwLimitDiag(Plan, *Mon);
  if (WorkerErr)
    std::rethrow_exception(WorkerErr);

  CostReport Total;
  for (const CostReport &C : WorkerCosts)
    Total += C;
  if (CheckR)
    for (int64_t G = 0; G != NumGroups; ++G)
      Races.mergeFrom(GroupRaces[static_cast<size_t>(G)], Plan.MaxFindings);
  if (CheckM) {
    // Shared-bitmap commits only happen on this success path: a cancelled
    // or failed launch rethrows above and discards its pending writes, so
    // the launch-level init bitmaps never observe partial state.
    std::unordered_map<std::string, bool> Seen;
    for (int64_t G = 0; G != NumGroups; ++G) {
      mergeGuardReport(Guards, GroupGuards[static_cast<size_t>(G)],
                       Plan.MaxFindings, Seen);
      Plan.GuardBlocks.commitWrites(GroupWrites[static_cast<size_t>(G)]);
    }
  }
  if (CollectXG)
    crossGroupCheck(GroupGlobalAcc, Plan.RaceBlockNames, Races,
                    Plan.MaxFindings);
  return Total;
}

/// The one throwing execution path every public launch entry wraps:
/// resolves arguments, precomputes the shared analyses, then executes the
/// groups on the worker pool. If execution began and failed, the caller's
/// buffers are poisoned before the error propagates (partial writes must
/// not be readable as results); host out-of-memory is converted into the
/// E0512 memory-limit diagnostic instead of crashing the process.
CostReport runMachine(const codegen::CompiledKernel &K,
                      const std::vector<Buffer *> &Buffers,
                      const std::map<std::string, int64_t> &Sizes,
                      const LaunchConfig &Cfg, RaceReport &Races,
                      GuardReport &Guards, DiagnosticEngine *Engine,
                      uint64_t *StepsUsed = nullptr) {
  std::string Kernel = K.Module.Kernel ? K.Module.Kernel->Name : "kernel";
  LaunchPlan Plan(K, Cfg);
  try {
    Plan.setup(Buffers, Sizes);
  } catch (const std::bad_alloc &) {
    throwDiag(DiagCode::RuntimeMemoryLimit, DiagLocation::inContext(Kernel),
              "runtime: device allocation failed (out of host memory)");
  }
  try {
    CostReport Cost = executePlan(Plan, Races, Guards, Engine);
    if (StepsUsed)
      *StepsUsed = Plan.Monitor ? Plan.Monitor->stepsUsed() : 0;
    return Cost;
  } catch (const std::bad_alloc &) {
    for (Buffer *B : Plan.CallerBuffers)
      B->Poisoned = true;
    throwDiag(DiagCode::RuntimeMemoryLimit, DiagLocation::inContext(Kernel),
              "runtime: device allocation failed (out of host memory)",
              {"the launch was cancelled; its buffers are poisoned until "
               "rewritten"});
  } catch (...) {
    for (Buffer *B : Plan.CallerBuffers)
      B->Poisoned = true;
    throw;
  }
}

} // namespace

CostReport ocl::launch(const codegen::CompiledKernel &K,
                       const std::vector<Buffer *> &Buffers,
                       const std::map<std::string, int64_t> &Sizes,
                       const LaunchConfig &Cfg) {
  try {
    RaceReport Races;
    GuardReport Guards;
    CostReport Cost =
        runMachine(K, Buffers, Sizes, Cfg, Races, Guards, nullptr);
    if (!Races.clean())
      fatalError("runtime: race check failed for kernel '" +
                 K.Module.Kernel->Name + "': " + Races.summary());
    if (!Guards.clean())
      fatalError("runtime: memory check failed for kernel '" +
                 K.Module.Kernel->Name + "': " + Guards.summary());
    return Cost;
  } catch (DiagnosticError &E) {
    fatalError(E.Diag.render());
  }
}

CostReport ocl::launch(const codegen::CompiledKernel &K,
                       const std::vector<Buffer *> &Buffers,
                       const std::map<std::string, int64_t> &Sizes,
                       const LaunchConfig &Cfg, RaceReport &Report) {
  GuardReport Guards;
  return launch(K, Buffers, Sizes, Cfg, Report, Guards);
}

CostReport ocl::launch(const codegen::CompiledKernel &K,
                       const std::vector<Buffer *> &Buffers,
                       const std::map<std::string, int64_t> &Sizes,
                       const LaunchConfig &Cfg, RaceReport &Races,
                       GuardReport &Guards) {
  try {
    return runMachine(K, Buffers, Sizes, Cfg, Races, Guards, nullptr);
  } catch (DiagnosticError &E) {
    fatalError(E.Diag.render());
  }
}

Expected<LaunchResult>
ocl::launchChecked(const codegen::CompiledKernel &K,
                   const std::vector<Buffer *> &Buffers,
                   const std::map<std::string, int64_t> &Sizes,
                   const LaunchConfig &Cfg, DiagnosticEngine &Engine) {
  LaunchResult R;
  try {
    R.Cost = runMachine(K, Buffers, Sizes, Cfg, R.Races, R.Guards, &Engine,
                        &R.StepsUsed);
  } catch (DiagnosticError &E) {
    if (!E.Recorded)
      Engine.report(E.Diag);
    return {};
  }
  std::string Kernel = K.Module.Kernel ? K.Module.Kernel->Name : "kernel";
  for (const RaceFinding &F : R.Races.Findings)
    Engine.error(F.K == RaceFinding::CrossGroup
                     ? DiagCode::RuntimeCrossGroupRace
                     : DiagCode::RuntimeRace,
                 DiagLocation::inContext(Kernel),
                 std::string(RaceFinding::kindName(F.K)) + " at " +
                     F.Location + ": " + F.Detail);
  for (const GuardFinding &F : R.Guards.Findings)
    Engine.error(F.K == GuardFinding::UninitRead
                     ? DiagCode::RuntimeUninitRead
                     : DiagCode::RuntimeOutOfBounds,
                 DiagLocation::inContext(Kernel),
                 std::string(GuardFinding::kindName(F.K)) + " at " +
                     F.Location + ": " + F.Detail);
  return R;
}

codegen::CompiledKernel ocl::wrapModule(c::CModule M) {
  codegen::CompiledKernel K;
  if (!M.Kernel)
    throwDiag(DiagCode::HostBadBuffer, DiagLocation::inContext("wrapModule"),
              "wrapModule: translation unit has no kernel");
  unsigned NextId = 1;
  for (const CVarPtr &P : M.Kernel->Params) {
    codegen::KernelParamInfo Info;
    Info.Var = P;
    if (isa<PointerCType>(P->Ty.get())) {
      auto Store = std::make_shared<view::Storage>();
      Store->Id = NextId++;
      Store->Var = P;
      Store->AS = c::CAddrSpace::Global;
      Store->ElemType = cast<PointerCType>(P->Ty.get())->getPointee();
      Store->NumElements = arith::cst(0); // bound by the caller, in order
      Info.Store = Store;
    } else {
      Info.IsSizeParam = true;
      Info.ArithId = 0;
    }
    K.Params.push_back(Info);
  }
  K.Module = std::move(M);
  K.Slots = codegen::computeVarSlots(K.Module);
  return K;
}
