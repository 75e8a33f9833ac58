//===- ParallelRuntimeTest.cpp - Determinism of the parallel runtime -----===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// The simulated runtime executes work-groups on a worker pool
// (LaunchConfig::Threads). The design guarantee (docs/PARALLEL_RUNTIME.md)
// is that the thread count is unobservable: output buffers are
// bit-identical, cost reports identical, and race/memory findings
// identical at any thread count — including under --perturb-schedule,
// whose RNG is seeded per work-group exactly so schedules don't depend on
// which worker runs which group. This suite pins that guarantee across
// the full benchmark suite.
//
//===----------------------------------------------------------------------===//

#include "ocl/ThreadPool.h"
#include "suite/Benchmark.h"
#include "support/FaultInject.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <dirent.h>
#include <fstream>

using namespace lift;

namespace {

void expectSameCost(const ocl::CostReport &A, const ocl::CostReport &B,
                    const std::string &What) {
  EXPECT_EQ(A.GlobalAccesses, B.GlobalAccesses) << What;
  EXPECT_EQ(A.LocalAccesses, B.LocalAccesses) << What;
  EXPECT_EQ(A.PrivateAccesses, B.PrivateAccesses) << What;
  EXPECT_EQ(A.ArithOps, B.ArithOps) << What;
  EXPECT_EQ(A.DivModOps, B.DivModOps) << What;
  EXPECT_EQ(A.MathCalls, B.MathCalls) << What;
  EXPECT_EQ(A.Calls, B.Calls) << What;
  EXPECT_EQ(A.Barriers, B.Barriers) << What;
  EXPECT_EQ(A.LoopIters, B.LoopIters) << What;
}

/// Bit-identical outputs: == on the flattened float vectors, not a
/// tolerance comparison.
void expectSameRun(const bench::Outcome &Serial, const bench::Outcome &Pool,
                   const std::string &What) {
  EXPECT_TRUE(Pool.Valid) << What;
  EXPECT_EQ(Serial.Output, Pool.Output) << What << ": outputs differ";
  expectSameCost(Serial.Cost, Pool.Cost, What + ": cost reports differ");
  EXPECT_EQ(Serial.Races.summary(), Pool.Races.summary()) << What;
  EXPECT_EQ(Serial.Races.IntervalsChecked, Pool.Races.IntervalsChecked)
      << What;
  EXPECT_EQ(Serial.Races.AccessesRecorded, Pool.Races.AccessesRecorded)
      << What;
  EXPECT_EQ(Serial.Guards.summary(), Pool.Guards.summary()) << What;
  EXPECT_EQ(Serial.Guards.AccessesChecked, Pool.Guards.AccessesChecked)
      << What;
}

class ParallelRuntimeTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelRuntimeTest, ThreadCountIsUnobservable) {
  std::vector<bench::BenchmarkCase> All = bench::allBenchmarks(false);
  ASSERT_LT(static_cast<size_t>(GetParam()), All.size());
  bench::BenchmarkCase &Case = All[static_cast<size_t>(GetParam())];

  // Plain runs: serial baseline vs the pool at 2, 4 and 8 workers.
  bench::RunOptions Serial;
  Serial.Threads = 1;
  bench::Outcome Base = bench::runLift(Case, bench::OptConfig::Full, Serial);
  ASSERT_TRUE(Base.Valid) << Case.Name;
  ASSERT_FALSE(Base.Output.empty()) << Case.Name;

  for (int Threads : {2, 4, 8}) {
    bench::RunOptions Pool;
    Pool.Threads = Threads;
    bench::Outcome Out = bench::runLift(Case, bench::OptConfig::Full, Pool);
    expectSameRun(Base, Out,
                  Case.Name + " at " + std::to_string(Threads) + " threads");
  }

  // Checked runs: the race detector, guarded memory and the perturbed
  // schedule must report the same findings (none, for the suite) and the
  // same statistics regardless of the thread count.
  bench::RunOptions Checked;
  Checked.Threads = 1;
  Checked.CheckRaces = true;
  Checked.CheckMemory = true;
  Checked.PerturbSchedule = true;
  Checked.ScheduleSeed = 7;
  bench::Outcome CheckedBase =
      bench::runLift(Case, bench::OptConfig::Full, Checked);
  ASSERT_TRUE(CheckedBase.Valid) << Case.Name;
  EXPECT_GT(CheckedBase.Races.IntervalsChecked, 0u) << Case.Name;

  Checked.Threads = 4;
  bench::Outcome CheckedPool =
      bench::runLift(Case, bench::OptConfig::Full, Checked);
  expectSameRun(CheckedBase, CheckedPool,
                Case.Name + " checked+perturbed at 4 threads");
}

//===----------------------------------------------------------------------===//
// Pool churn soak
//===----------------------------------------------------------------------===//

// The liftd daemon keeps one process alive across thousands of launches,
// so pool bring-up must be repeatable indefinitely — including bring-ups
// that fail under an injected fault and are retried. This soak cycles
// tryRun hundreds of times with a one-shot PoolStart fault armed each
// round and pins two invariants: the one-shot fault stays invisible
// (the retry succeeds and runs every worker), and neither threads nor
// file descriptors accumulate across the churn.

size_t countOpenFds() {
  size_t N = 0;
  if (DIR *D = opendir("/proc/self/fd")) {
    while (readdir(D))
      ++N;
    closedir(D);
  }
  return N;
}

size_t countThreads() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("Threads:", 0) == 0)
      return static_cast<size_t>(std::strtoul(Line.c_str() + 8, nullptr, 10));
  return 0;
}

TEST(ThreadPoolChurnSoak, BringUpFaultsLeakNothing) {
  fault::disarm();
  ocl::ThreadPool &Pool = ocl::ThreadPool::global();

  constexpr int Cycles = 300;
  constexpr unsigned Workers = 4;

  // Warm the pool and the fd table first so lazily created resources
  // (worker threads, /proc handles) don't read as leaks.
  for (int I = 0; I < 10; ++I) {
    std::atomic<unsigned> Ran{0};
    ASSERT_TRUE(Pool.tryRun(Workers, [&](unsigned) { ++Ran; }));
    ASSERT_EQ(Ran.load(), Workers);
  }
  size_t BaseThreads = countThreads();
  size_t BaseFds = countOpenFds();

  for (int I = 0; I < Cycles; ++I) {
    // One-shot bring-up fault: the pool's internal bounded retry absorbs
    // it, so the dispatch succeeds and runs every worker exactly once.
    fault::arm(fault::Site::PoolStart, 1);
    std::atomic<unsigned> Ran{0};
    ASSERT_TRUE(Pool.tryRun(Workers, [&](unsigned) { ++Ran; }))
        << "cycle " << I << ": one-shot fault must stay invisible";
    EXPECT_EQ(Ran.load(), Workers) << "cycle " << I;
  }

  // Persistent bring-up outage: tryRun gives up after the bounded retry,
  // without having run any work — and without leaking per-attempt state.
  for (int I = 0; I < 50; ++I) {
    fault::armAlways(fault::Site::PoolStart);
    std::atomic<unsigned> Ran{0};
    EXPECT_FALSE(Pool.tryRun(Workers, [&](unsigned) { ++Ran; }))
        << "cycle " << I;
    EXPECT_EQ(Ran.load(), 0u) << "a failed bring-up must not run work";
    fault::disarm();
    ASSERT_TRUE(Pool.tryRun(Workers, [&](unsigned) { ++Ran; }));
    EXPECT_EQ(Ran.load(), Workers) << "recovery cycle " << I;
  }
  fault::disarm();

  EXPECT_EQ(countThreads(), BaseThreads)
      << "pool churn must not accumulate threads";
  EXPECT_EQ(countOpenFds(), BaseFds)
      << "pool churn must not accumulate file descriptors";

  // The PR 7 contract on the full launch path: a one-shot PoolStart
  // fault is invisible behind the runtime's serial fallback — the run
  // still succeeds and its results are bit-identical.
  std::vector<bench::BenchmarkCase> All = bench::allBenchmarks(false);
  ASSERT_FALSE(All.empty());
  bench::RunOptions Serial;
  Serial.Threads = 1;
  bench::Outcome Base = bench::runLift(All[0], bench::OptConfig::Full, Serial);
  ASSERT_TRUE(Base.Valid);
  for (int I = 0; I < 5; ++I) {
    fault::arm(fault::Site::PoolStart, 1);
    bench::RunOptions Pooled;
    Pooled.Threads = 4;
    bench::Outcome Out = bench::runLift(All[0], bench::OptConfig::Full, Pooled);
    expectSameRun(Base, Out, "one-shot PoolStart cycle " + std::to_string(I));
  }
  fault::disarm();
}

std::string parallelBenchName(const ::testing::TestParamInfo<int> &I) {
  static const char *Names[] = {"NBodyNvidia", "NBodyAmd", "MD",
                                "KMeans",      "NN",       "MriQ",
                                "Convolution", "Atax",     "Gemv",
                                "Gesummv",     "MMNvidia", "MMAmd"};
  return Names[I.param];
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ParallelRuntimeTest,
                         ::testing::Range(0, 12), parallelBenchName);

} // namespace
