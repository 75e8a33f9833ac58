//===- Trace.h - Spans around the calls into each layer ---------*- C++ -*-===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's span recorder. Spans are opened by the benchmark's own
/// code around each call into a layer's public function and are named
/// after the per-layer metric they feed: the self time of all
/// "codegen.compile" spans is codegen.compile_ms. A layer that reports a
/// duration but no start time (NativeLaunchResult::CompileMs,
/// StageRunInfo::NativeWallMs) becomes a derived child span placed inside
/// its parent. Spans stay in memory and are written as Chrome trace-event
/// JSON (viewable in Perfetto) when the run ends. Nothing is recorded
/// unless the run was started with --trace 1.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point T0);

class Tracer {
public:
  struct Span {
    std::string Name;
    double StartUs = 0;
    double DurUs = 0;
    unsigned Tid = 0;
    long Parent = -1; ///< index of the enclosing span; -1 at top level
  };

  bool On = false;

  /// Opens a span nested in the calling thread's innermost open span and
  /// returns its index.
  long open(const std::string &Name);
  void close(long Id);
  /// Records a child of \p Parent lasting \p DurMs, starting \p OffsetMs
  /// after the parent's start.
  void derived(const std::string &Name, long Parent, double OffsetMs,
               double DurMs);

  size_t size() const;
  /// Self time in milliseconds per span name over the spans [From, To):
  /// each span's duration minus the durations of its direct children.
  std::map<std::string, double> selfMs(size_t From, size_t To) const;
  bool writeChromeJson(const std::string &Path) const;

private:
  mutable std::mutex M;
  std::vector<Span> Spans;
  const Clock::time_point T0 = Clock::now();
};

/// A span for the enclosing scope; records nothing while tracing is off.
class Scope {
public:
  Scope(Tracer &T, const char *Name) : T(T), Id(T.On ? T.open(Name) : -1) {}
  ~Scope() {
    if (Id >= 0)
      T.close(Id);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  long id() const { return Id; }

private:
  Tracer &T;
  long Id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
