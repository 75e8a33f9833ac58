//===- Bench.h - Shared types of the end-to-end benchmark -------*- C++ -*-===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Trace.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Every thread and connection count a run uses. Each is set explicitly;
/// no run asks a layer for its "auto" default.
struct Resources {
  int SimThreads = 1;    ///< simulator worker threads per launch
  int NativeThreads = 1; ///< OpenMP threads per native launch
  int DaemonWorkers = 1; ///< liftd --max-inflight
  int Connections = 1;   ///< closed-loop client connections to liftd
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir;     ///< this workload's scratch directory
  std::string ExamplesDir; ///< the repository's examples/
  std::string Liftd;       ///< the liftd binary
  Resources Res;
};

/// What one run measured, as wall-clock milliseconds.
struct Report {
  std::vector<double> SetupMs;
  std::vector<double> PassMs;   ///< untraced passes
  std::vector<double> OpMs;     ///< every operation of the untraced passes
  std::vector<unsigned> OpKind; ///< which distinct operation each one was
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;    ///< the first few failures
  std::map<std::string, double> Layer; ///< per-layer metrics (traced runs)
  std::vector<std::string> Notes;      ///< printed ahead of the result line

  /// Counts one operation or check; records \p Why when it failed.
  void count(bool Ok, const std::string &Why = "");
  /// Whether an untraced run sets up once more: at least 3 times, and up
  /// to 15 while its set-ups took under 2 s in total, so that a cheap
  /// set-up's median rests on more samples.
  bool anotherSetup() const;
};

bool readFile(const std::string &Path, std::string &Out);

double median(std::vector<double> V);
/// Linear-interpolated percentile, \p Q in [0, 1].
double percentile(std::vector<double> V, double Q);

/// Workloads sim and native-warm. Returns false when set-up
/// fails (the reason is in \p R.Errors).
bool runSuiteWorkload(const Options &O, Tracer &T, Report &R);
/// Workload service.
bool runServiceWorkload(const Options &O, Tracer &T, Report &R);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
