//===- FaultInject.h - Deterministic runtime fault injection ----*- C++ -*-===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic fault-injection harness for the runtime. Every
/// fallible operation — device allocation, pool dispatch, buffer
/// binding, the native toolchain, persistent-cache I/O, and the
/// mid-execution checkpoints (barrier crossings, work-group dispatch,
/// step-budget ticks) — calls \c shouldFail(Site) at the point where a
/// real implementation could fail; when the harness is disarmed (the
/// default) this is a single relaxed atomic load. Tests arm the harness
/// to fail the n-th occurrence of a site exactly (\c arm / liftc
/// \c --inject-faults n,k), model a persistent outage that exhausts the
/// retry policy (\c armAlways / \c --inject-faults 0,k), count
/// occurrences without failing (\c countOnly / \c --count-faults) to
/// discover sweep bounds, or fail probabilistically from a seed
/// (\c LIFT_FAULT_SEED) for soak runs. Setup-site failures surface as
/// E0513 diagnostics, mid-execution trips as a cooperative E0515
/// cancellation that poisons the output buffers, pool faults as a
/// graceful serial fallback (E0509), and cache faults as a miss or an
/// E0609 write warning — see docs/RELIABILITY.md. The service sites
/// (accept, request read/write, queue admit) model connection- and
/// admission-level outages in the liftd daemon: a tripped site drops the
/// connection or sheds the request, and the client's retry policy
/// recovers — see docs/SERVICE.md.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_SUPPORT_FAULTINJECT_H
#define LIFT_SUPPORT_FAULTINJECT_H

#include <cstdint>

namespace lift {
namespace fault {

/// The runtime operations that can be made to fail. Numeric values are the
/// "k" in liftc --inject-faults n,k and are stable.
enum class Site : unsigned {
  Alloc = 0,         ///< device allocation (temp buffers, local/private arrays)
  PoolStart = 1,     ///< dispatching a launch onto the worker pool
  BufferMap = 2,     ///< binding/mapping a caller buffer to a kernel argument
  NativeCompile = 3, ///< invoking the system compiler (native backend)
  NativeLoad = 4,    ///< dlopen of a compiled native object
  NativeSym = 5,     ///< dlsym of the native kernel entry point
  Barrier = 6,       ///< a work-group barrier crossing mid-execution
  GroupDispatch = 7, ///< claiming a work-group for execution
  StepChunk = 8,     ///< a step-budget checkpoint (every TickInterval steps)
  CacheRead = 9,     ///< reading a content-store entry (support/ContentStore.h)
  CacheWrite = 10,   ///< publishing a content-store entry
  Accept = 11,       ///< accepting a client connection (liftd listener)
  RequestRead = 12,  ///< reading a request frame off a client connection
  RequestWrite = 13, ///< writing a response frame back to a client
  QueueAdmit = 14,   ///< admitting a request into the bounded work queue
  GraphStageDispatch = 15, ///< dispatching a pipeline-graph stage
  GraphBufferReuse = 16,   ///< recycling an intermediate buffer between stages
};

inline constexpr unsigned NumSites = 17;

const char *siteName(Site S);

/// Arms the harness to fail exactly the \p Nth (1-based) occurrence of
/// \p S. Resets all occurrence counters.
void arm(Site S, uint64_t Nth);

/// Arms the harness to fail *every* occurrence of \p S (liftc
/// --inject-faults 0,k). This is how tests model a persistent outage:
/// retry policies (support/Retry.h) recover from an arm(S, n) transient
/// on the next attempt, so exhausting them needs a site that stays down.
/// Resets all occurrence counters.
void armAlways(Site S);

/// Counting-only mode: occurrences are tallied but nothing fails. Used by
/// tests to discover how many injection opportunities a workload has.
/// Resets all occurrence counters.
void countOnly();

/// Probabilistic mode: every occurrence of every site fails with
/// probability 1/64, deterministically derived from \p Seed. Also reached
/// via the LIFT_FAULT_SEED environment variable. Resets all counters.
void armSeeded(uint64_t Seed);

/// Disarms the harness and resets all occurrence counters.
void disarm();

/// Occurrences of \p S observed since the harness was last (re)armed.
uint64_t occurrences(Site S);

/// True when any mode (exact, counting, seeded) is active.
bool enabled();

/// The runtime-side hook: returns true when this occurrence of \p S must
/// fail. Disarmed fast path is one relaxed atomic load.
bool shouldFail(Site S);

} // namespace fault
} // namespace lift

#endif // LIFT_SUPPORT_FAULTINJECT_H
