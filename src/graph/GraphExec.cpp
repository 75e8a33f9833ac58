//===- GraphExec.cpp - Pipeline-graph execution ---------------------------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "graph/GraphExec.h"

#include "support/FaultInject.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <thread>

using namespace lift;
using namespace lift::graph;

namespace {

using Clock = std::chrono::steady_clock;

/// Deterministic input data, same generator as the service layer: every
/// run of a graph sees the same pseudo-random inputs for a fixed seed.
std::vector<float> randomFloats(size_t N, uint64_t Seed) {
  std::vector<float> R(N);
  uint64_t S = Seed * 6364136223846793005ULL + 1442695040888963407ULL;
  for (size_t I = 0; I != N; ++I) {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    R[I] = static_cast<float>(static_cast<int64_t>(S % 2000) - 1000) / 1000.f;
  }
  return R;
}

/// One node's execution record: its own engine (merged in canonical order
/// after the wave joins, so concurrent stages report deterministically)
/// and its stage/iterate statistics.
struct NodeRun {
  size_t Idx = 0;
  DiagnosticEngine Eng{64};
  std::vector<StageRunInfo> Stages;
  std::vector<IterateRunInfo> Iters;
  bool Ok = true;
};

class Runner {
public:
  Runner(const ValidatedGraph &VG, const GraphRunOptions &Opts,
         DiagnosticEngine &Engine)
      : VG(VG), Opts(Opts), Engine(Engine) {}

  Expected<GraphRunResult> run() {
    if (Opts.NativeBackend && (Opts.CheckRaces || Opts.CheckMemory))
      Engine.note(ctx(""), native::SimulatorOnlyChecksNote);
    Limits = ocl::ExecLimits::withEnvDefaults(Opts.Limits);
    HasStepBudget = Limits.MaxSteps != 0;
    StepsLeft.store(Limits.MaxSteps, std::memory_order_relaxed);
    Start = Clock::now();
    NodeFailed.assign(VG.Nodes.size(), 0);

    for (const NodePlan &N : VG.Nodes)
      for (const std::string &B : N.Reads)
        ++UsesLeft[B];

    ocl::resetHostBytesHighWater();
    if (!materializeUpfront())
      return {};

    std::vector<char> Done(VG.Nodes.size(), 0);
    size_t DoneCount = 0;
    while (DoneCount != VG.Nodes.size()) {
      if (Failed && !Opts.KeepGoing)
        break;
      std::vector<size_t> Wave = nextWave(Done);
      if (Wave.empty())
        break;

      // Prep (serial, canonical order): dependency/poison-producer checks
      // and buffer allocation. Keeps the allocator, the recycle pool and
      // the fault counters single-threaded.
      std::vector<std::unique_ptr<NodeRun>> Runs;
      for (size_t Idx : Wave)
        Runs.push_back(prep(Idx));

      // Exec: independent stages launch concurrently.
      if (Runs.size() == 1) {
        exec(*Runs[0]);
      } else {
        std::vector<std::thread> Workers;
        for (auto &NR : Runs)
          Workers.emplace_back([this, &NR] { exec(*NR); });
        for (std::thread &W : Workers)
          W.join();
      }

      // Post (serial, canonical order): merge diagnostics, debit budgets,
      // release dead buffers.
      for (auto &NR : Runs) {
        post(*NR);
        Done[NR->Idx] = 1;
        ++DoneCount;
      }
    }

    R.PeakHostBytes = ocl::hostBytesHighWater();
    if (Failed)
      return {};
    for (const BufferDecl &B : VG.G.Buffers)
      if (B.Role == BufferRole::Output) {
        auto It = Live.find(B.Name);
        if (It != Live.end())
          R.Outputs[B.Name] = It->second->toFlatFloats();
      }
    return std::move(R);
  }

private:
  const ValidatedGraph &VG;
  const GraphRunOptions &Opts;
  DiagnosticEngine &Engine;

  ocl::ExecLimits Limits;
  bool HasStepBudget = false;
  std::atomic<uint64_t> StepsLeft{0};
  Clock::time_point Start;

  std::map<std::string, std::unique_ptr<ocl::Buffer>> Live;
  std::map<std::string, uint64_t> BufBytes;
  uint64_t LiveBytes = 0;
  /// Released intermediates waiting for an exact-(extent, elem) re-use.
  std::map<std::pair<int64_t, int>,
           std::vector<std::pair<std::unique_ptr<ocl::Buffer>, uint64_t>>>
      Pool;
  std::set<std::string> Allocated;
  std::map<std::string, unsigned> UsesLeft;
  std::vector<char> NodeFailed;

  GraphRunResult R;
  bool Failed = false;

  DiagLocation ctx(const std::string &Path) const {
    std::string C = "graph '" + VG.G.Name + "'";
    if (!Path.empty())
      C += ", " + Path;
    return DiagLocation::inContext(C);
  }

  static std::pair<int64_t, int> keyOf(const BufferDecl &B) {
    return {B.Extent, static_cast<int>(B.Elem)};
  }

  int64_t elapsedMs() const {
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               Clock::now() - Start)
        .count();
  }

  void debitSteps(uint64_t Used) {
    if (!HasStepBudget || Used == 0)
      return;
    uint64_t Cur = StepsLeft.load(std::memory_order_relaxed);
    while (!StepsLeft.compare_exchange_weak(
        Cur, Used >= Cur ? 0 : Cur - Used, std::memory_order_relaxed))
      ;
  }

  //===--------------------------------------------------------------------===//
  // Buffers: materialization, allocation, recycling
  //===--------------------------------------------------------------------===//

  bool chargeBytes(uint64_t Bytes, const std::string &Name,
                   DiagnosticEngine &Eng) {
    if (Limits.MaxMemoryBytes && LiveBytes + Bytes > Limits.MaxMemoryBytes) {
      Eng.error(DiagCode::RuntimeMemoryLimit, ctx(""),
                "allocating buffer '" + Name + "' (" + std::to_string(Bytes) +
                    " bytes) exceeds the graph memory budget of " +
                    std::to_string(Limits.MaxMemoryBytes) + " bytes",
                {"buffers live: " + std::to_string(LiveBytes) + " bytes"});
      return false;
    }
    LiveBytes += Bytes;
    return true;
  }

  /// Creates the buffer inside the hostBytesLive measurement window (all
  /// Buffer factories route through trackedMemory), charges the real
  /// allocation size against the graph budget, and makes it live.
  template <typename MakeFn>
  bool adopt(const BufferDecl &B, MakeFn Make, DiagnosticEngine &Eng) {
    uint64_t Before = ocl::hostBytesLive();
    auto P = std::make_unique<ocl::Buffer>(Make());
    uint64_t After = ocl::hostBytesLive();
    uint64_t Bytes = After > Before ? After - Before : 0;
    if (!chargeBytes(Bytes, B.Name, Eng))
      return false;
    BufBytes[B.Name] = Bytes;
    Live[B.Name] = std::move(P);
    Allocated.insert(B.Name);
    return true;
  }

  bool materializeInput(const BufferDecl &B, DiagnosticEngine &Eng) {
    auto Bind = Opts.Bindings.find(B.Name);
    if (Bind != Opts.Bindings.end()) {
      if (B.Elem != ElemType::Float) {
        Eng.error(DiagCode::GraphShapeMismatch, ctx(""),
                  "host binding for '" + B.Name +
                      "' is float data but the buffer is int");
        return false;
      }
      if (static_cast<int64_t>(Bind->second.size()) != B.Extent) {
        Eng.error(DiagCode::GraphShapeMismatch, ctx(""),
                  "host binding for '" + B.Name + "' has " +
                      std::to_string(Bind->second.size()) +
                      " elements, declared extent is " +
                      std::to_string(B.Extent));
        return false;
      }
      return adopt(
          B, [&] { return ocl::Buffer::ofFloats(Bind->second); }, Eng);
    }
    size_t N = static_cast<size_t>(B.Extent);
    switch (B.Init.K) {
    case InitSpec::Kind::Random: {
      uint64_t Seed = B.Init.Seed;
      if (Seed == 0) {
        // Stable per-buffer default: position in the declaration list.
        uint64_t Pos = 0;
        for (const BufferDecl &D : VG.G.Buffers) {
          if (D.Name == B.Name)
            break;
          ++Pos;
        }
        Seed = Opts.InputSeed + 2 * Pos + 1;
      }
      if (B.Elem == ElemType::Int) {
        Eng.error(DiagCode::GraphShapeMismatch, ctx(""),
                  "int input buffer '" + B.Name +
                      "' requires init=ramp(...) or init=const(...)");
        return false;
      }
      return adopt(
          B, [&] { return ocl::Buffer::ofFloats(randomFloats(N, Seed)); },
          Eng);
    }
    case InitSpec::Kind::Const: {
      if (B.Elem == ElemType::Int)
        return adopt(B,
                     [&] {
                       return ocl::Buffer::ofInts(std::vector<int>(
                           N, static_cast<int>(B.Init.Value)));
                     },
                     Eng);
      return adopt(B,
                   [&] {
                     return ocl::Buffer::ofFloats(std::vector<float>(
                         N, static_cast<float>(B.Init.Value)));
                   },
                   Eng);
    }
    case InitSpec::Kind::Ramp: {
      std::vector<int64_t> Vals(N);
      for (size_t I = 0; I != N; ++I) {
        int64_t V = B.Init.Start + B.Init.Step * static_cast<int64_t>(I);
        if (B.Init.Mod > 0)
          V = ((V % B.Init.Mod) + B.Init.Mod) % B.Init.Mod;
        Vals[I] = V;
      }
      if (B.Elem == ElemType::Int) {
        std::vector<int> IV(Vals.begin(), Vals.end());
        return adopt(B, [&] { return ocl::Buffer::ofInts(IV); }, Eng);
      }
      std::vector<float> FV(N);
      for (size_t I = 0; I != N; ++I)
        FV[I] = static_cast<float>(Vals[I]);
      return adopt(B, [&] { return ocl::Buffer::ofFloats(FV); }, Eng);
    }
    }
    return false;
  }

  /// Inputs always materialize up front; in naive (no-reuse) mode every
  /// buffer does, which is exactly the baseline the bench compares.
  bool materializeUpfront() {
    for (const BufferDecl &B : VG.G.Buffers) {
      bool Need = B.Role == BufferRole::Input || !Opts.ReuseBuffers;
      if (!Need)
        continue;
      bool Ok =
          B.Role == BufferRole::Input
              ? materializeInput(B, Engine)
              : adopt(B,
                      [&] {
                        return ocl::Buffer::zeros(
                            static_cast<size_t>(B.Extent));
                      },
                      Engine);
      if (!Ok) {
        Failed = true;
        return false;
      }
    }
    return true;
  }

  /// Allocates a stage-output buffer, recycling an exact-extent released
  /// intermediate when one is pooled (the GraphBufferReuse fault site).
  bool ensureAllocated(const std::string &Name, DiagnosticEngine &Eng) {
    if (Live.count(Name))
      return true;
    const BufferDecl *B = VG.G.findBuffer(Name);
    if (!B)
      return true; // Validation rejects unknown names before execution.
    auto Key = keyOf(*B);
    auto PoolIt = Pool.find(Key);
    if (Opts.ReuseBuffers && PoolIt != Pool.end() &&
        !PoolIt->second.empty()) {
      if (fault::shouldFail(fault::Site::GraphBufferReuse)) {
        Eng.error(DiagCode::GraphFaultInjected, ctx(""),
                  "injected fault: graph buffer reuse while recycling an "
                  "allocation for '" +
                      Name + "'");
        return false;
      }
      auto [Buf, Bytes] = std::move(PoolIt->second.back());
      PoolIt->second.pop_back();
      // Recycled storage must look freshly allocated: zero values, a
      // fresh all-uninitialized guard bitmap, no poison.
      for (ocl::Value &V : *Buf->Mem)
        V = ocl::Value::makeFloat(0);
      Buf->Init = std::make_shared<std::vector<uint8_t>>(
          Buf->Mem->size(), uint8_t(0));
      Buf->Poisoned = false;
      BufBytes[Name] = Bytes;
      Live[Name] = std::move(Buf);
      Allocated.insert(Name);
      ++R.BuffersRecycled;
      return true;
    }
    return adopt(*B,
                 [&] {
                   return ocl::Buffer::zeros(static_cast<size_t>(B->Extent));
                 },
                 Eng);
  }

  /// Pending future allocations of this shape: released buffers are kept
  /// for recycling only while someone will still want the storage.
  size_t pendingAllocs(const std::pair<int64_t, int> &Key) const {
    size_t N = 0;
    for (const BufferDecl &B : VG.G.Buffers)
      if (keyOf(B) == Key && !Allocated.count(B.Name))
        ++N;
    return N;
  }

  void release(const std::string &Name) {
    const BufferDecl *B = VG.G.findBuffer(Name);
    auto It = Live.find(Name);
    if (!B || It == Live.end() || B->Role == BufferRole::Output)
      return;
    if (!Opts.ReuseBuffers)
      return; // The naive baseline holds everything to the end.
    uint64_t Bytes = BufBytes[Name];
    auto Key = keyOf(*B);
    if (Pool[Key].size() < pendingAllocs(Key)) {
      Pool[Key].emplace_back(std::move(It->second), Bytes);
    } else {
      LiveBytes -= std::min(LiveBytes, Bytes);
      ++R.BuffersFreed;
    }
    Live.erase(It);
  }

  //===--------------------------------------------------------------------===//
  // Scheduling
  //===--------------------------------------------------------------------===//

  /// The next set of ready nodes, at most MaxConcurrentStages, in the
  /// canonical order. Iterate nodes run exclusively (their trip loop owns
  /// the budget and the fault counters).
  std::vector<size_t> nextWave(const std::vector<char> &Done) const {
    std::vector<size_t> Wave;
    unsigned Cap = std::max(1u, Opts.MaxConcurrentStages);
    for (size_t Idx : VG.Topo) {
      if (Done[Idx])
        continue;
      bool Ready = true;
      for (size_t D : VG.Deps[Idx])
        if (!Done[D]) {
          Ready = false;
          break;
        }
      if (!Ready)
        continue;
      bool IsIter = VG.Nodes[Idx].K == GraphNode::Kind::Iterate;
      if (IsIter) {
        if (Wave.empty())
          Wave.push_back(Idx);
        break;
      }
      Wave.push_back(Idx);
      if (Wave.size() == Cap)
        break;
    }
    return Wave;
  }

  std::unique_ptr<NodeRun> prep(size_t Idx) {
    auto NR = std::make_unique<NodeRun>();
    NR->Idx = Idx;
    const NodePlan &N = VG.Nodes[Idx];

    // A failed producer fails every dependent deterministically, naming
    // the producing stage — even when the producer never ran far enough
    // to poison its output.
    for (const std::string &B : N.Reads) {
      auto It = VG.ProducerOf.find(B);
      if (It == VG.ProducerOf.end() || It->second.empty())
        continue;
      for (size_t D : VG.Deps[Idx])
        if (NodeFailed[D] && VG.Nodes[D].Writes.count(B)) {
          NR->Eng.error(DiagCode::GraphPoisonedInput, ctx(nodePath(N)),
                        "buffer '" + B + "' is unusable: its producer " +
                            It->second + " failed");
          NR->Ok = false;
        }
    }
    if (!NR->Ok)
      return NR;

    // Allocate this node's outputs (iterate bodies allocate everything
    // before trip 1 — loop-carried scratch is read and written in-node).
    for (const BufferDecl &B : VG.G.Buffers)
      if (N.Writes.count(B.Name) && !ensureAllocated(B.Name, NR->Eng)) {
        NR->Ok = false;
        return NR;
      }
    return NR;
  }

  std::string nodePath(const NodePlan &N) const {
    return (N.K == GraphNode::Kind::Iterate ? "iterate '" : "stage '") +
           N.Name + "'";
  }

  void exec(NodeRun &NR) {
    if (!NR.Ok)
      return;
    const NodePlan &N = VG.Nodes[NR.Idx];
    if (N.K == GraphNode::Kind::Stage) {
      NR.Ok = launchStage(N.Stages[0], 0, NR);
    } else {
      NR.Ok = runIterate(N, NR);
    }
  }

  void post(NodeRun &NR) {
    for (const Diagnostic &D : NR.Eng.diagnostics())
      Engine.report(D);
    for (StageRunInfo &S : NR.Stages) {
      R.TotalCost += S.Cost;
      ++R.StagesRun;
      R.Stages.push_back(std::move(S));
    }
    for (IterateRunInfo &I : NR.Iters)
      R.Iterates.push_back(std::move(I));
    if (!NR.Ok) {
      Failed = true;
      NodeFailed[NR.Idx] = 1;
    }
    const NodePlan &N = VG.Nodes[NR.Idx];
    for (const std::string &B : N.Reads) {
      auto It = UsesLeft.find(B);
      if (It != UsesLeft.end() && --It->second == 0)
        release(B);
    }
    for (const std::string &B : N.Writes)
      if (!UsesLeft.count(B) || UsesLeft[B] == 0)
        release(B);
  }

  //===--------------------------------------------------------------------===//
  // Stage and iterate execution
  //===--------------------------------------------------------------------===//

  bool launchStage(const StagePlan &SP, uint64_t Trip, NodeRun &NR) {
    // Graph-wide gates, checked before every dispatch (including every
    // iterate trip) so budget trips name the stage that hit them.
    if (Limits.Cancel &&
        Limits.Cancel->load(std::memory_order_relaxed)) {
      NR.Eng.error(DiagCode::RuntimeCancelled, ctx(SP.Path),
                   "graph execution cancelled before " + SP.Path);
      return false;
    }
    if (Limits.TimeoutMs > 0 && elapsedMs() >= Limits.TimeoutMs) {
      NR.Eng.error(DiagCode::RuntimeDeadline, ctx(SP.Path),
                   "graph deadline of " + std::to_string(Limits.TimeoutMs) +
                       " ms exceeded before " + SP.Path);
      return false;
    }
    if (HasStepBudget &&
        StepsLeft.load(std::memory_order_relaxed) == 0) {
      NR.Eng.error(DiagCode::RuntimeStepLimit, ctx(SP.Path),
                   "graph step budget of " +
                       std::to_string(Limits.MaxSteps) +
                       " exhausted before " + SP.Path);
      return false;
    }
    if (fault::shouldFail(fault::Site::GraphStageDispatch)) {
      NR.Eng.error(DiagCode::GraphFaultInjected, ctx(SP.Path),
                   "injected fault: graph stage dispatch");
      return false;
    }

    // Poisoned inputs fail here, naming the stage that poisoned them.
    std::vector<ocl::Buffer *> Args;
    for (size_t I = 0; I != SP.Args.size(); ++I) {
      const std::string &Name = SP.Args[I];
      auto It = Live.find(Name);
      if (It == Live.end()) {
        NR.Eng.error(DiagCode::GraphStageFailed, ctx(SP.Path),
                     "buffer '" + Name + "' is not live at dispatch");
        return false;
      }
      ocl::Buffer *B = It->second.get();
      if (B->Poisoned) {
        auto Prod = VG.ProducerOf.find(Name);
        std::string Who = Prod != VG.ProducerOf.end() && !Prod->second.empty()
                              ? "its producer " + Prod->second
                              : "graph input '" + Name + "'";
        NR.Eng.error(DiagCode::GraphPoisonedInput, ctx(SP.Path),
                     "buffer '" + Name + "' was poisoned by " + Who +
                         " and cannot be consumed",
                     {"clearPoison() or rewrite the buffer to accept "
                      "partial results"});
        return false;
      }
      Args.push_back(B);
    }

    ocl::LaunchConfig Cfg;
    Cfg.Global = SP.Decl.Global;
    Cfg.Local = SP.Decl.Local;
    Cfg.Threads = Opts.Threads;
    Cfg.CheckRaces = Opts.CheckRaces && !Opts.NativeBackend;
    Cfg.CheckMemory = Opts.CheckMemory && !Opts.NativeBackend;
    Cfg.Limits.Cancel = Limits.Cancel;
    Cfg.Limits.MaxFindings = Limits.MaxFindings;
    if (HasStepBudget)
      Cfg.Limits.MaxSteps =
          std::max<uint64_t>(1, StepsLeft.load(std::memory_order_relaxed));
    if (Limits.TimeoutMs > 0)
      Cfg.Limits.TimeoutMs =
          std::max<int64_t>(1, Limits.TimeoutMs - elapsedMs());
    if (Limits.MaxMemoryBytes > 0)
      Cfg.Limits.MaxMemoryBytes = std::max<uint64_t>(
          1, Limits.MaxMemoryBytes - std::min(Limits.MaxMemoryBytes,
                                              LiveBytes));

    StageRunInfo Info;
    Info.Path = SP.Path;
    Info.Trip = Trip;

    bool LaunchOk = false;
    bool Clean = true;
    if (Opts.NativeBackend) {
      Expected<native::NativeLaunchResult> LR = native::launchNativeChecked(
          *SP.Kernel, Args, SP.Sizes, Cfg, NR.Eng, Opts.NMode);
      if (LR) {
        LaunchOk = true;
        Info.NativeWallMs = LR->WallMs;
      }
    } else {
      Expected<ocl::LaunchResult> LR =
          ocl::launchChecked(*SP.Kernel, Args, SP.Sizes, Cfg, NR.Eng);
      if (LR) {
        LaunchOk = true;
        Clean = LR->clean();
        Info.Cost = LR->Cost.cost();
        Info.StepsUsed = LR->StepsUsed;
        debitSteps(LR->StepsUsed);
      }
    }

    if (!LaunchOk || !Clean) {
      // launchChecked already recorded the underlying E05xx/E06xx
      // diagnostics (and race/guard findings); name the stage on top.
      std::string Msg = SP.Path + " failed";
      if (Trip)
        Msg += " (trip " + std::to_string(Trip) + ")";
      if (LaunchOk && !Clean)
        Msg += ": race or memory findings were reported";
      NR.Eng.error(DiagCode::GraphStageFailed, ctx(SP.Path), Msg);
      return false;
    }
    NR.Stages.push_back(std::move(Info));
    return true;
  }

  double maxAbsDiff(const ocl::Buffer &A, const ocl::Buffer &B) const {
    size_t N = std::min(A.Mem->size(), B.Mem->size());
    double Max = 0;
    for (size_t I = 0; I != N; ++I)
      Max = std::max(Max, std::fabs((*A.Mem)[I].asFloat() -
                                    (*B.Mem)[I].asFloat()));
    return Max;
  }

  bool runIterate(const NodePlan &N, NodeRun &NR) {
    const IterateDecl &It = N.Iter;
    IterateRunInfo Info;
    Info.Name = It.Name;
    for (uint64_t Trip = 1; Trip <= It.MaxTrips; ++Trip) {
      for (const StagePlan &SP : N.Stages)
        if (!launchStage(SP, Trip, NR)) {
          NR.Iters.push_back(std::move(Info));
          return false;
        }
      Info.Trips = Trip;
      Info.Residual =
          maxAbsDiff(*Live.at(It.CompareA), *Live.at(It.CompareB));
      if (Info.Residual <= It.Eps) {
        Info.Converged = true;
        break;
      }
      if (Trip != It.MaxTrips) {
        for (const auto &[A, B] : It.Swaps) {
          ocl::Buffer &BA = *Live.at(A);
          ocl::Buffer &BB = *Live.at(B);
          std::swap(BA.Mem, BB.Mem);
          std::swap(BA.Init, BB.Init);
          std::swap(BA.Poisoned, BB.Poisoned);
        }
      }
    }
    if (!Info.Converged)
      NR.Eng.warning(DiagCode::GraphNotConverged,
                     ctx("iterate '" + It.Name + "'"),
                     "iterate '" + It.Name + "' exhausted " +
                         std::to_string(It.MaxTrips) +
                         " trips without converging (residual " +
                         std::to_string(Info.Residual) + " > eps " +
                         std::to_string(It.Eps) + ")");
    NR.Iters.push_back(std::move(Info));
    return true;
  }
};

} // namespace

Expected<GraphRunResult> graph::runGraph(const ValidatedGraph &VG,
                                         const GraphRunOptions &Opts,
                                         DiagnosticEngine &Engine) {
  try {
    return Runner(VG, Opts, Engine).run();
  } catch (DiagnosticError &E) {
    if (!E.Recorded)
      Engine.report(E.Diag);
    return {};
  } catch (const std::bad_alloc &) {
    Engine.error(DiagCode::RuntimeMemoryLimit,
                 DiagLocation::inContext("graph '" + VG.G.Name + "'"),
                 "graph execution ran out of host memory");
    return {};
  }
}
