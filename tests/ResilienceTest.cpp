//===- ResilienceTest.cpp - Mid-execution faults and degradation ----------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The graceful-degradation matrix (docs/RELIABILITY.md): mid-execution
/// fault injection swept over the benchmark suite at several thread
/// counts (every injected barrier / group-dispatch / step-chunk fault
/// must unwind as a clean Expected<> failure with a thread-count-
/// invariant E0515 diagnostic and poisoned buffers, never a hang or
/// abort); the native-to-simulator fallback (E0610) with bit-identical
/// results; the content store's one policy (support/ContentStore.h:
/// sidecar checks, quarantine, fault sites, retried atomic writes) and
/// its use by the tuning cache (E0608, E0609); and the deterministic
/// bounded-retry policy (support/Retry.h) that distinguishes the two:
/// transient failures recover invisibly, persistent outages degrade with
/// a warning. Runs under `ctest -L resilience`.
///
//===----------------------------------------------------------------------===//

#include "codegen/Compiler.h"
#include "ir/DSL.h"
#include "ir/Prelude.h"
#include "ocl/Runtime.h"
#include "suite/Benchmark.h"
#include "support/ContentStore.h"
#include "support/Diagnostics.h"
#include "support/FaultInject.h"
#include "support/Retry.h"
#include "tune/Cache.h"
#include "tune/Tuner.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <unistd.h>
#include <vector>

using namespace lift;
using namespace lift::bench;
namespace fs = std::filesystem;

namespace {

/// Disarms the fault harness no matter how a test exits.
struct DisarmGuard {
  ~DisarmGuard() { fault::disarm(); }
};

bool hasCode(const DiagnosticEngine &Engine, DiagCode Code) {
  for (const Diagnostic &D : Engine.diagnostics())
    if (D.Code == Code)
      return true;
  return false;
}

/// The rendered text of the first E0515 diagnostic (empty when none).
std::string midExecMessage(const DiagnosticEngine &Engine) {
  for (const Diagnostic &D : Engine.diagnostics())
    if (D.Code == DiagCode::RuntimeFaultMidExec)
      return D.render();
  return std::string();
}

/// First / middle / last of a 1-based occurrence range, deduplicated.
std::set<uint64_t> sweepPoints(uint64_t Total) {
  return {1, (Total + 1) / 2, Total};
}

//===----------------------------------------------------------------------===//
// Mid-execution fault sweep over the benchmark suite
//===----------------------------------------------------------------------===//

/// One benchmark per parameter so failures name the workload and ctest
/// can spread the sweep across cores.
class MidExecSweep : public ::testing::TestWithParam<int> {};

/// Barrier crossings and group dispatches happen the same number of
/// times at every thread count, so the n-th occurrence is a
/// deterministic event: injecting it must fail cleanly with E0515, and
/// the diagnostic must be bit-identical whether one worker or eight hit
/// the fault.
TEST_P(MidExecSweep, BarrierAndDispatchFaultsAreThreadCountInvariant) {
  DisarmGuard Guard;
  BenchmarkCase Case = allBenchmarks(false)[GetParam()];

  const int ThreadCounts[] = {1, 2, 8};

  // Discover the sweep bounds at one thread count, then pin that the
  // totals are thread-count-invariant (they count work, not workers).
  std::map<fault::Site, uint64_t> Totals;
  for (int Threads : ThreadCounts) {
    RunOptions Run;
    Run.Threads = Threads;
    fault::countOnly();
    DiagnosticEngine Engine;
    Expected<Outcome> Base = runLiftChecked(Case, OptConfig::Full, Run, Engine);
    ASSERT_TRUE(bool(Base)) << Case.Name << ":\n" << Engine.render();
    for (fault::Site S : {fault::Site::Barrier, fault::Site::GroupDispatch}) {
      uint64_t N = fault::occurrences(S);
      if (Threads == 1)
        Totals[S] = N;
      else
        EXPECT_EQ(Totals[S], N)
            << Case.Name << ": " << fault::siteName(S)
            << " occurrence count changed with " << Threads << " threads";
    }
    fault::disarm();
  }
  ASSERT_GT(Totals[fault::Site::GroupDispatch], 0u)
      << Case.Name << ": no group dispatches recorded";

  for (fault::Site S : {fault::Site::Barrier, fault::Site::GroupDispatch}) {
    if (Totals[S] == 0)
      continue; // benchmark has no barriers
    for (uint64_t Nth : sweepPoints(Totals[S])) {
      std::set<std::string> Messages;
      for (int Threads : ThreadCounts) {
        RunOptions Run;
        Run.Threads = Threads;
        fault::arm(S, Nth);
        DiagnosticEngine Engine;
        Expected<Outcome> R =
            runLiftChecked(Case, OptConfig::Full, Run, Engine);
        fault::disarm();
        EXPECT_FALSE(bool(R))
            << Case.Name << ": survived injected " << fault::siteName(S)
            << " fault #" << Nth << " at " << Threads << " threads";
        EXPECT_TRUE(hasCode(Engine, DiagCode::RuntimeFaultMidExec))
            << Case.Name << " (" << fault::siteName(S) << " #" << Nth
            << ", " << Threads << " threads):\n" << Engine.render();
        Messages.insert(midExecMessage(Engine));
      }
      EXPECT_EQ(Messages.size(), 1u)
          << Case.Name << ": the E0515 diagnostic for " << fault::siteName(S)
          << " #" << Nth << " depends on the thread count";
    }
  }
}

/// The step-chunk checkpoint (the interpreter's back edge, every
/// TickInterval steps per worker) only ticks on bounded runs. Its
/// occurrence count is per-worker and so legitimately varies with the
/// thread count — the sweep re-counts per thread count and checks the
/// clean-failure invariant at first / middle / last.
TEST_P(MidExecSweep, StepChunkCheckpointsFailCleanlyAtEveryThreadCount) {
  DisarmGuard Guard;
  BenchmarkCase Case = allBenchmarks(false)[GetParam()];

  bool Swept = false;
  for (int Threads : {1, 2, 8}) {
    RunOptions Run;
    Run.Threads = Threads;
    Run.Limits.MaxSteps = 50000000; // bind the budget: enables the hook

    fault::countOnly();
    {
      DiagnosticEngine Engine;
      Expected<Outcome> Base =
          runLiftChecked(Case, OptConfig::Full, Run, Engine);
      ASSERT_TRUE(bool(Base)) << Case.Name << ":\n" << Engine.render();
    }
    uint64_t Total = fault::occurrences(fault::Site::StepChunk);
    fault::disarm();
    if (Total == 0)
      continue; // run shorter than one tick interval at this width

    Swept = true;
    for (uint64_t Nth : sweepPoints(Total)) {
      fault::arm(fault::Site::StepChunk, Nth);
      DiagnosticEngine Engine;
      Expected<Outcome> R = runLiftChecked(Case, OptConfig::Full, Run, Engine);
      uint64_t Seen = fault::occurrences(fault::Site::StepChunk);
      fault::disarm();
      if (bool(R)) {
        // Each worker keeps a private step countdown, so a parallel run
        // may batch its checkpoints differently than the counting run
        // and legitimately finish before the n-th occurrence. Serial
        // runs have no such freedom, and a run that did reach the n-th
        // occurrence must have failed at it.
        EXPECT_GT(Threads, 1)
            << Case.Name << ": a serial run survived step-chunk fault #"
            << Nth;
        EXPECT_LT(Seen, Nth)
            << Case.Name << ": survived step-chunk fault #" << Nth
            << " at " << Threads << " threads despite reaching it";
        EXPECT_TRUE(R->Valid) << Case.Name;
      } else {
        EXPECT_TRUE(hasCode(Engine, DiagCode::RuntimeFaultMidExec))
            << Case.Name << " (step chunk #" << Nth << ", " << Threads
            << " threads):\n" << Engine.render();
        // The injection outranks the step budget: never misreported as
        // E0510.
        EXPECT_FALSE(hasCode(Engine, DiagCode::RuntimeStepLimit))
            << Case.Name << ":\n" << Engine.render();
      }
    }
  }
  if (!Swept)
    GTEST_SKIP() << Case.Name
                 << " finishes inside one tick interval at every width";
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, MidExecSweep, ::testing::Range(0, 12));

//===----------------------------------------------------------------------===//
// Buffer poisoning and recovery after a cancelled launch
//===----------------------------------------------------------------------===//

/// A launch cancelled mid-execution leaves partially-written buffers:
/// they must come back poisoned (E0601 on reuse) and usable again only
/// after the host explicitly accepts or rewrites them.
TEST(MidExecPoisoning, CancelledLaunchPoisonsBuffersUntilCleared) {
  DisarmGuard Guard;
  using namespace ir;
  using namespace ir::dsl;

  // A barrier-dense kernel: each work-group stages its row through local
  // memory (one barrier per copy) and squares it back out.
  ParamPtr X = param("x", arrayOf(float32(), arith::cst(16)));
  LambdaPtr P = lambda(
      {X}, pipe(ExprPtr(X), split(4), mapWrg(fun([&](ExprPtr Row) {
             return pipe(Row, toLocal(mapLcl(prelude::idFloatFun())),
                         toGlobal(mapLcl(prelude::squareFun())));
           })),
           join()));

  DiagnosticEngine CompileEngine;
  codegen::CompilerOptions Opts;
  Opts.GlobalSize = {16, 1, 1};
  Opts.LocalSize = {4, 1, 1};
  Expected<codegen::CompiledKernel> K =
      codegen::compileChecked(P, Opts, CompileEngine);
  ASSERT_TRUE(bool(K)) << CompileEngine.render();

  std::vector<float> In(16);
  for (size_t I = 0; I != In.size(); ++I)
    In[I] = static_cast<float>(I) * 0.5f;
  ocl::Buffer InBuf = ocl::Buffer::ofFloats(In);
  ocl::Buffer OutBuf = ocl::Buffer::zeros(16);
  std::vector<ocl::Buffer *> Bufs = {&InBuf, &OutBuf};
  ocl::LaunchConfig Cfg = ocl::LaunchConfig::fromOptions(Opts);
  Cfg.Threads = 2;

  // Trip the first barrier crossing: the launch fails with E0515 and a
  // note that the buffers are poisoned.
  fault::arm(fault::Site::Barrier, 1);
  DiagnosticEngine FaultEngine;
  Expected<ocl::LaunchResult> R =
      ocl::launchChecked(*K, Bufs, {}, Cfg, FaultEngine);
  fault::disarm();
  ASSERT_FALSE(bool(R)) << "survived the injected barrier fault";
  EXPECT_TRUE(hasCode(FaultEngine, DiagCode::RuntimeFaultMidExec))
      << FaultEngine.render();
  EXPECT_NE(midExecMessage(FaultEngine).find("poisoned"), std::string::npos)
      << FaultEngine.render();
  EXPECT_TRUE(InBuf.Poisoned);
  EXPECT_TRUE(OutBuf.Poisoned);

  // Reusing a poisoned buffer is refused (E0601)...
  DiagnosticEngine ReuseEngine;
  EXPECT_FALSE(bool(ocl::launchChecked(*K, Bufs, {}, Cfg, ReuseEngine)));
  EXPECT_TRUE(hasCode(ReuseEngine, DiagCode::HostBadBuffer))
      << ReuseEngine.render();

  // ...until the host explicitly accepts the contents; the retried
  // launch then rewrites everything and succeeds with correct results.
  InBuf.clearPoison();
  OutBuf.clearPoison();
  DiagnosticEngine RetryEngine;
  Expected<ocl::LaunchResult> Again =
      ocl::launchChecked(*K, Bufs, {}, Cfg, RetryEngine);
  ASSERT_TRUE(bool(Again)) << RetryEngine.render();
  EXPECT_FALSE(OutBuf.Poisoned);
  std::vector<float> Out = OutBuf.toFlatFloats();
  ASSERT_EQ(Out.size(), In.size());
  for (size_t I = 0; I != Out.size(); ++I)
    EXPECT_EQ(Out[I], In[I] * In[I]) << "element " << I;
}

//===----------------------------------------------------------------------===//
// Transient faults recover through the retry policy
//===----------------------------------------------------------------------===//

/// A one-shot pool bring-up fault is the model transient failure: the
/// bring-up retry (support/Retry.h) absorbs it invisibly — the launch
/// stays parallel, nothing degrades, no warning is emitted. (Contrast
/// FaultInjectTest.PoolFailureDegradesToSerialWithIdenticalResults,
/// where a persistent outage exhausts the retries and falls back.)
TEST(RetryRecovery, OneShotPoolFaultIsAbsorbedWithoutFallback) {
  DisarmGuard Guard;
  RunOptions Run;
  Run.Threads = 4;

  // Find a benchmark whose launch actually consults the pool.
  int Which = -1;
  for (int C = 0; C != 12 && Which < 0; ++C) {
    fault::countOnly();
    DiagnosticEngine Engine;
    Expected<Outcome> R = runLiftChecked(allBenchmarks(false)[C],
                                         OptConfig::Full, Run, Engine);
    ASSERT_TRUE(bool(R)) << Engine.render();
    if (fault::occurrences(fault::Site::PoolStart) > 0)
      Which = C;
    fault::disarm();
  }
  ASSERT_GE(Which, 0) << "no benchmark consulted the pool-dispatch site";
  BenchmarkCase Case = allBenchmarks(false)[Which];

  DiagnosticEngine CleanEngine;
  Expected<Outcome> Clean =
      runLiftChecked(Case, OptConfig::Full, Run, CleanEngine);
  ASSERT_TRUE(bool(Clean)) << CleanEngine.render();

  fault::arm(fault::Site::PoolStart, 1);
  DiagnosticEngine FaultEngine;
  Expected<Outcome> Retried =
      runLiftChecked(Case, OptConfig::Full, Run, FaultEngine);
  fault::disarm();
  ASSERT_TRUE(bool(Retried))
      << Case.Name << ": one-shot pool fault was not absorbed:\n"
      << FaultEngine.render();
  EXPECT_TRUE(Retried->Valid) << Case.Name;
  EXPECT_FALSE(hasCode(FaultEngine, DiagCode::RuntimePoolFallback))
      << Case.Name
      << ": bring-up retry should recover without degrading to serial:\n"
      << FaultEngine.render();
  EXPECT_EQ(Clean->Output, Retried->Output)
      << Case.Name << ": the recovered run changed the results";
}

//===----------------------------------------------------------------------===//
// Native backend failure degrades to the simulator, bit-identically
//===----------------------------------------------------------------------===//

class NativeFallbackMatrix : public ::testing::TestWithParam<int> {
protected:
  std::string CacheDir;

  void SetUp() override {
    // Private artifact cache: the persistent compile outage below must
    // not evict another process's healthy artifacts.
    CacheDir = ::testing::TempDir() + "lift-resilience-native-cache-" +
               std::to_string(::getpid());
    ::setenv("LIFT_NATIVE_CACHE_DIR", CacheDir.c_str(), 1);
  }
  void TearDown() override {
    fault::disarm();
    ::unsetenv("LIFT_NATIVE_CACHE_DIR");
    std::error_code EC;
    fs::remove_all(CacheDir, EC);
  }
};

/// With the native toolchain persistently down (injected compile outage
/// — the same path covers a genuinely missing toolchain), every
/// benchmark must still produce a result: runLiftNativeOrSimChecked
/// warns (E0610) and re-runs on the simulator, bit-identical to a
/// simulator-only run. Exercised on all 12 benchmarks.
TEST_P(NativeFallbackMatrix, CompileOutageFallsBackBitIdentically) {
  DisarmGuard Guard;
  BenchmarkCase Case = allBenchmarks(false)[GetParam()];
  RunOptions Run;
  Run.Threads = 2;

  DiagnosticEngine SimEngine;
  Expected<Outcome> SimOnly =
      runLiftChecked(Case, OptConfig::Full, Run, SimEngine);
  ASSERT_TRUE(bool(SimOnly)) << Case.Name << ":\n" << SimEngine.render();

  // A persistent outage: one-shot faults would be recovered by the
  // toolchain retry policy before the fallback ever engages.
  fault::armAlways(fault::Site::NativeCompile);
  DiagnosticEngine Engine;
  bool UsedFallback = false;
  Expected<Outcome> R = runLiftNativeOrSimChecked(Case, OptConfig::Full, Run,
                                                  Engine, &UsedFallback);
  fault::disarm();

  ASSERT_TRUE(bool(R)) << Case.Name << ": fallback did not engage:\n"
                       << Engine.render();
  EXPECT_TRUE(UsedFallback) << Case.Name;
  EXPECT_TRUE(R->Valid) << Case.Name;
  EXPECT_TRUE(hasCode(Engine, DiagCode::NativeFallback))
      << Case.Name << ": no E0610 warning:\n" << Engine.render();
  EXPECT_FALSE(Engine.hasErrors())
      << Case.Name << ": the absorbed native failure leaked an error:\n"
      << Engine.render();
  EXPECT_EQ(SimOnly->Output, R->Output)
      << Case.Name << ": fallback output differs from a simulator-only run";
}

INSTANTIATE_TEST_SUITE_P(Benchmarks, NativeFallbackMatrix,
                         ::testing::Range(0, 12));

//===----------------------------------------------------------------------===//
// Tuning-cache corruption, quarantine, and atomic writes
//===----------------------------------------------------------------------===//

class TuneCacheResilience : public ::testing::Test {
protected:
  fs::path Dir;
  tune::Workload W;
  tune::TuneConfig C;

  void SetUp() override {
    using namespace ir;
    using namespace ir::dsl;
    Dir = fs::temp_directory_path() /
          ("lift-resilience-tune-" + std::to_string(::getpid()));
    fs::remove_all(Dir);

    // The tiny workload of TuneTest: map(square) over [float]32, small
    // enough for the exhaustive search to stay fast.
    W.Name = "resilience-tune-tiny";
    ParamPtr X = param("x", arrayOf(float32(), arith::cst(32)));
    W.Program = lambda({X}, pipe(ExprPtr(X), map(prelude::squareFun())));
    std::vector<float> In(32);
    for (size_t I = 0; I != In.size(); ++I)
      In[I] = static_cast<float>(I % 13) * 0.25f - 1.f;
    W.Inputs = {In};
    W.OutCount = 32;
    W.BaseGlobal = {32, 1, 1};
    W.BaseLocal = {8, 1, 1};
    W.OuterN = 32;

    C.CacheDir = Dir.string();
  }

  void TearDown() override {
    fault::disarm();
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }

  /// Runs the search cold and returns the stored result; the cache file
  /// exists afterwards.
  tune::TuneResult populate() {
    DiagnosticEngine Engine;
    Expected<tune::TuneResult> R = tune::tuneWorkload(W, C, Engine);
    EXPECT_TRUE(bool(R)) << Engine.render();
    EXPECT_TRUE(fs::exists(tune::tuneCachePath(W, C)));
    return *R;
  }

  /// No temporary files may linger in the cache directory.
  void expectNoTempFiles() {
    std::error_code EC;
    for (const auto &Entry : fs::directory_iterator(Dir, EC))
      EXPECT_EQ(Entry.path().filename().string().find(".tmp"),
                std::string::npos)
          << "leaked temp file: " << Entry.path();
  }
};

TEST_F(TuneCacheResilience, GarbageEntryIsQuarantinedAndTreatedAsMiss) {
  populate();
  const std::string Path = tune::tuneCachePath(W, C);
  {
    std::ofstream Out(Path, std::ios::trunc);
    Out << "{ this is not json ]";
  }

  tune::TuneResult R;
  DiagnosticEngine Engine;
  EXPECT_FALSE(tune::loadCachedResult(W, C, R, &Engine))
      << "a garbage entry was treated as a hit";
  EXPECT_TRUE(hasCode(Engine, DiagCode::CacheEntryQuarantined))
      << Engine.render();
  EXPECT_FALSE(Engine.hasErrors()) << Engine.render();
  // Quarantined: set aside, not deleted — the evidence survives for
  // inspection, and the path is free for the next store.
  EXPECT_FALSE(fs::exists(Path));
  EXPECT_TRUE(fs::exists(Path + ".corrupt"));

  // The subsequent search repopulates the entry and hits warm again.
  DiagnosticEngine E2;
  Expected<tune::TuneResult> Repopulated = tune::tuneWorkload(W, C, E2);
  ASSERT_TRUE(bool(Repopulated)) << E2.render();
  EXPECT_FALSE(Repopulated->CacheHit);
  DiagnosticEngine E3;
  Expected<tune::TuneResult> Warm = tune::tuneWorkload(W, C, E3);
  ASSERT_TRUE(bool(Warm)) << E3.render();
  EXPECT_TRUE(Warm->CacheHit);
}

TEST_F(TuneCacheResilience, TruncatedEntryIsQuarantined) {
  populate();
  const std::string Path = tune::tuneCachePath(W, C);
  std::string Contents;
  {
    std::ifstream InFile(Path);
    std::ostringstream SS;
    SS << InFile.rdbuf();
    Contents = SS.str();
  }
  ASSERT_GT(Contents.size(), 8u);
  {
    // A torn write: the JSON breaks off mid-document.
    std::ofstream Out(Path, std::ios::trunc);
    Out << Contents.substr(0, Contents.size() / 3);
  }

  tune::TuneResult R;
  DiagnosticEngine Engine;
  EXPECT_FALSE(tune::loadCachedResult(W, C, R, &Engine));
  EXPECT_TRUE(hasCode(Engine, DiagCode::CacheEntryQuarantined))
      << Engine.render();
  EXPECT_TRUE(fs::exists(Path + ".corrupt"));
}

TEST_F(TuneCacheResilience, ReadFaultIsAPlainMissLeavingTheFileIntact) {
  tune::TuneResult Stored = populate();
  const std::string Path = tune::tuneCachePath(W, C);
  const auto Size = fs::file_size(Path);

  // An injected read fault models EINTR/EIO, not corruption: the entry
  // must NOT be quarantined — the file is healthy and the next read
  // will see it.
  fault::arm(fault::Site::CacheRead, 1);
  tune::TuneResult R;
  DiagnosticEngine Engine;
  EXPECT_FALSE(tune::loadCachedResult(W, C, R, &Engine));
  fault::disarm();
  EXPECT_FALSE(hasCode(Engine, DiagCode::CacheEntryQuarantined))
      << Engine.render();
  EXPECT_TRUE(fs::exists(Path));
  EXPECT_EQ(fs::file_size(Path), Size);

  DiagnosticEngine E2;
  tune::TuneResult AfterR;
  EXPECT_TRUE(tune::loadCachedResult(W, C, AfterR, &E2)) << E2.render();
  EXPECT_EQ(AfterR.HasBest, Stored.HasBest);
  if (Stored.HasBest) {
    EXPECT_EQ(AfterR.Best.key(), Stored.Best.key());
  }
}

TEST_F(TuneCacheResilience, WriteOutageWarnsAndLeavesNoPartialFile) {
  // The result to store comes from a cache-free search.
  tune::TuneConfig NoCache = C;
  NoCache.UseCache = false;
  DiagnosticEngine SearchEngine;
  Expected<tune::TuneResult> R = tune::tuneWorkload(W, NoCache, SearchEngine);
  ASSERT_TRUE(bool(R)) << SearchEngine.render();

  // Persistent write outage: the retry policy exhausts, the store warns
  // (E0609) and reports failure — and no file, whole or torn, appears.
  fault::armAlways(fault::Site::CacheWrite);
  DiagnosticEngine Engine;
  EXPECT_FALSE(tune::storeCachedResult(W, C, *R, &Engine));
  fault::disarm();
  EXPECT_TRUE(hasCode(Engine, DiagCode::CacheWriteFailed)) << Engine.render();
  EXPECT_FALSE(Engine.hasErrors()) << Engine.render();
  EXPECT_FALSE(fs::exists(tune::tuneCachePath(W, C)));
  if (fs::exists(Dir))
    expectNoTempFiles();

  // A one-shot write fault is transient: the retry recovers it and the
  // store lands atomically.
  fault::arm(fault::Site::CacheWrite, 1);
  DiagnosticEngine E2;
  EXPECT_TRUE(tune::storeCachedResult(W, C, *R, &E2)) << E2.render();
  fault::disarm();
  EXPECT_TRUE(fs::exists(tune::tuneCachePath(W, C)));
  expectNoTempFiles();

  tune::TuneResult Loaded;
  DiagnosticEngine E3;
  EXPECT_TRUE(tune::loadCachedResult(W, C, Loaded, &E3)) << E3.render();
  EXPECT_EQ(Loaded.HasBest, R->HasBest);
}

//===----------------------------------------------------------------------===//
// The content store's one policy, shared by the tune, native and liftd
// caches
//===----------------------------------------------------------------------===//

class ContentStorePolicy : public ::testing::Test {
protected:
  using Entry = support::ContentStore::Entry;
  fs::path Root;
  fs::path Dir;

  void SetUp() override {
    // A directory whose parents do not exist yet: put creates them all.
    Root = fs::temp_directory_path() /
           ("lift-content-store-" + std::to_string(::getpid()));
    Dir = Root / "a" / "b";
    fs::remove_all(Root);
  }
  void TearDown() override {
    fault::disarm();
    std::error_code EC;
    fs::remove_all(Root, EC);
  }

  support::ContentStore store() const {
    return support::ContentStore(Dir.string());
  }
  fs::path file(const std::string &Name) const { return Dir / Name; }
  std::string contents(const std::string &Name) const {
    std::ifstream In(file(Name), std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(In), {});
  }
  void overwrite(const std::string &Name, const std::string &Bytes) const {
    std::ofstream Out(file(Name), std::ios::binary | std::ios::trunc);
    Out << Bytes;
  }
  void expectNoTempFiles() const {
    std::error_code EC;
    for (const auto &E : fs::directory_iterator(Dir, EC))
      EXPECT_EQ(E.path().filename().string().find(".tmp."), std::string::npos)
          << "leaked temp file: " << E.path();
  }
};

TEST_F(ContentStorePolicy, PutThenGetRoundTrips) {
  const support::ContentStore S = store();
  std::string Err;
  ASSERT_TRUE(S.put("k.json", "{\"v\": 1}\n", Err)) << Err;
  // The sidecar is the body's 16-hex-digit content hash and a newline.
  EXPECT_EQ(contents("k.hash"), support::contentHash("{\"v\": 1}\n") + "\n");
  EXPECT_EQ(contents("k.hash").size(), 17u);

  Entry E = S.get("k.json");
  EXPECT_EQ(E.K, Entry::Hit) << E.Why;
  EXPECT_EQ(E.Bytes, "{\"v\": 1}\n");
  EXPECT_EQ(S.get("other.json").K, Entry::Miss);
  expectNoTempFiles();
}

TEST_F(ContentStorePolicy, TornBodyIsQuarantined) {
  const support::ContentStore S = store();
  std::string Err;
  ASSERT_TRUE(S.put("k.so", std::string(4096, 'x'), Err)) << Err;
  overwrite("k.so", std::string(1000, 'x')); // torn; sidecar intact

  Entry E = S.get("k.so");
  EXPECT_EQ(E.K, Entry::Corrupt);
  EXPECT_NE(E.Why.find("content hash mismatch"), std::string::npos) << E.Why;
  EXPECT_TRUE(E.Bytes.empty());
  // Set aside, not deleted, and the name is free for the next put.
  EXPECT_FALSE(fs::exists(file("k.so")));
  EXPECT_TRUE(fs::exists(file("k.so.corrupt")));
  EXPECT_TRUE(fs::exists(file("k.hash.corrupt")));
  EXPECT_EQ(S.get("k.so").K, Entry::Miss);
}

TEST_F(ContentStorePolicy, MissingSidecarReadsAsCorrupt) {
  const support::ContentStore S = store();
  std::string Err;
  ASSERT_TRUE(S.put("k.json", "{}", Err)) << Err;
  fs::remove(file("k.hash"));

  Entry E = S.get("k.json");
  EXPECT_EQ(E.K, Entry::Corrupt);
  EXPECT_NE(E.Why.find("no content hash"), std::string::npos) << E.Why;
  EXPECT_TRUE(fs::exists(file("k.json.corrupt")));
}

TEST_F(ContentStorePolicy, HalfPublishedEntryIsLeftToItsWriter) {
  // A writer holding the lock has published the body but not yet the
  // sidecar: a reader must not condemn the entry.
  const support::ContentStore S = store();
  std::string Err;
  ASSERT_TRUE(S.put("k.json", "{}", Err)) << Err;
  fs::remove(file("k.hash"));
  {
    support::FileLock Writer = S.lock("k.json");
    ASSERT_TRUE(Writer.locked());
    EXPECT_EQ(S.get("k.json").K, Entry::Miss);
    EXPECT_TRUE(fs::exists(file("k.json")));
  }
  // Once the writer is gone, the same state is corrupt.
  EXPECT_EQ(S.get("k.json").K, Entry::Corrupt);
}

TEST_F(ContentStorePolicy, ReadFaultIsAMissThatMovesNothing) {
  const support::ContentStore S = store();
  std::string Err;
  ASSERT_TRUE(S.put("k.json", "{}", Err)) << Err;

  fault::arm(fault::Site::CacheRead, 1);
  Entry E = S.get("k.json");
  fault::disarm();
  EXPECT_EQ(E.K, Entry::Miss);
  EXPECT_EQ(contents("k.json"), "{}");
  EXPECT_FALSE(fs::exists(file("k.json.corrupt")));
  EXPECT_EQ(S.get("k.json").K, Entry::Hit);
}

TEST_F(ContentStorePolicy, PersistentWriteOutageLeavesNothingBehind) {
  const support::ContentStore S = store();
  fault::armAlways(fault::Site::CacheWrite);
  std::string Err;
  EXPECT_FALSE(S.put("k.json", "{}", Err));
  fault::disarm();
  EXPECT_NE(Err.find("injected fault"), std::string::npos) << Err;
  EXPECT_FALSE(fs::exists(file("k.json")));
  EXPECT_FALSE(fs::exists(file("k.hash")));
  expectNoTempFiles();
}

TEST_F(ContentStorePolicy, OneShotWriteFaultIsAbsorbedByTheRetry) {
  const support::ContentStore S = store();
  fault::arm(fault::Site::CacheWrite, 1);
  std::string Err;
  EXPECT_TRUE(S.put("k.json", "{}", Err)) << Err;
  const uint64_t Fired = fault::occurrences(fault::Site::CacheWrite);
  fault::disarm();
  EXPECT_EQ(Fired, 2u) << "the retry should have written on attempt two";
  EXPECT_EQ(S.get("k.json").K, Entry::Hit);
  expectNoTempFiles();
}

//===----------------------------------------------------------------------===//
// The retry policy itself: deterministic, bounded, correctly classified
//===----------------------------------------------------------------------===//

TEST(RetryPolicy, BackoffScheduleIsDeterministic) {
  retry::Policy P;
  P.BaseUs = 100;
  P.Seed = 12345;

  retry::Backoff A(P), B(P);
  for (int I = 0; I != 8; ++I) {
    uint64_t DA = A.nextDelayUs();
    EXPECT_EQ(DA, B.nextDelayUs()) << "attempt " << I;
    // Exponential base term plus jitter in [0, BaseUs).
    uint64_t Base = P.BaseUs << (I > 16 ? 16 : I);
    EXPECT_GE(DA, Base) << "attempt " << I;
    EXPECT_LT(DA, Base + P.BaseUs) << "attempt " << I;
  }

  // A different seed jitters differently somewhere in the schedule.
  retry::Policy Q = P;
  Q.Seed = 54321;
  retry::Backoff C1(P), C2(Q);
  bool Differs = false;
  for (int I = 0; I != 8; ++I)
    Differs |= C1.nextDelayUs() != C2.nextDelayUs();
  EXPECT_TRUE(Differs) << "the seed does not reach the jitter";
}

TEST(RetryPolicy, ClassifiesTransientVersusPermanent) {
  // Transient: injected faults and cache I/O — a real host sees these as
  // spurious ENOMEM/EINTR-class conditions.
  EXPECT_TRUE(retry::isTransient(DiagCode::RuntimeFaultInjected));
  EXPECT_TRUE(retry::isTransient(DiagCode::RuntimeFaultMidExec));
  EXPECT_TRUE(retry::isTransient(DiagCode::RuntimePoolFallback));
  EXPECT_TRUE(retry::isTransient(DiagCode::CacheEntryQuarantined));
  EXPECT_TRUE(retry::isTransient(DiagCode::CacheWriteFailed));
  // Permanent: retrying cannot conjure a toolchain or fix a program.
  EXPECT_FALSE(retry::isTransient(DiagCode::NativeToolchainMissing));
  EXPECT_FALSE(retry::isTransient(DiagCode::NativeCompileFailed));
  EXPECT_FALSE(retry::isTransient(DiagCode::NativeLoadFailed));
  EXPECT_FALSE(retry::isTransient(DiagCode::NativeSymbolMissing));
  EXPECT_FALSE(retry::isTransient(DiagCode::NativeUnsupported));
  EXPECT_FALSE(retry::isTransient(DiagCode::HostBadBuffer));
  EXPECT_FALSE(retry::isTransient(DiagCode::TypeMismatch));
}

TEST(RetryPolicy, RecoversTransientFailuresWithinTheBudget) {
  retry::Policy P;
  P.MaxAttempts = 3;
  P.BaseUs = 1; // keep the test's sleeps negligible
  int Calls = 0;
  int V = retry::runWithRetry(P, "flaky op", [&] {
    if (++Calls < 3)
      throwDiag(DiagCode::RuntimeFaultInjected, DiagLocation(),
                "injected transient failure");
    return 7;
  });
  EXPECT_EQ(V, 7);
  EXPECT_EQ(Calls, 3);
}

TEST(RetryPolicy, PermanentFailuresFailFast) {
  retry::Policy P;
  P.MaxAttempts = 5;
  P.BaseUs = 1;
  int Calls = 0;
  try {
    retry::runWithRetry(P, "doomed op", [&]() -> int {
      ++Calls;
      throwDiag(DiagCode::NativeToolchainMissing, DiagLocation(),
                "no toolchain");
    });
    FAIL() << "a permanent failure was swallowed";
  } catch (const DiagnosticError &E) {
    EXPECT_EQ(E.Diag.Code, DiagCode::NativeToolchainMissing);
  }
  EXPECT_EQ(Calls, 1) << "a permanent failure was retried";
}

TEST(RetryPolicy, ExhaustionAnnotatesTheAttemptCount) {
  retry::Policy P;
  P.MaxAttempts = 3;
  P.BaseUs = 1;
  int Calls = 0;
  try {
    retry::runWithRetry(P, "stuck op", [&]() -> int {
      ++Calls;
      throwDiag(DiagCode::RuntimeFaultInjected, DiagLocation(),
                "injected transient failure");
    });
    FAIL() << "an exhausted retry budget was swallowed";
  } catch (const DiagnosticError &E) {
    EXPECT_EQ(E.Diag.Code, DiagCode::RuntimeFaultInjected);
    bool SawNote = false;
    for (const std::string &N : E.Diag.Notes)
      SawNote |= N.find("stuck op failed after 3 attempts") !=
                 std::string::npos;
    EXPECT_TRUE(SawNote) << E.what();
  }
  EXPECT_EQ(Calls, 3);
}

TEST(RetryPolicy, EnvironmentOverridesAreReadPerCall) {
  ::setenv("LIFT_RETRY_ATTEMPTS", "5", 1);
  ::setenv("LIFT_RETRY_BASE_US", "7", 1);
  ::setenv("LIFT_RETRY_SEED", "9", 1);
  retry::Policy P = retry::Policy::fromEnv();
  EXPECT_EQ(P.MaxAttempts, 5u);
  EXPECT_EQ(P.BaseUs, 7u);
  EXPECT_EQ(P.Seed, 9u);
  ::unsetenv("LIFT_RETRY_ATTEMPTS");
  ::unsetenv("LIFT_RETRY_BASE_US");
  ::unsetenv("LIFT_RETRY_SEED");
  retry::Policy D = retry::Policy::fromEnv();
  EXPECT_EQ(D.MaxAttempts, retry::Policy().MaxAttempts);
  EXPECT_EQ(D.BaseUs, retry::Policy().BaseUs);
  EXPECT_EQ(D.Seed, retry::Policy().Seed);
}

} // namespace
