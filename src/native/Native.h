//===- Native.h - dlopen-based native CPU execution -------------*- C++ -*-===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs a compiled kernel on the host CPU: the C AST is lowered to plain
/// C++/OpenMP (NativePrinter.h), built into a shared object by the system
/// compiler, loaded with dlopen and invoked through a fixed `extern "C"`
/// entry point. Shared objects are cached under $LIFT_NATIVE_CACHE_DIR
/// (default `.lift-native/`), a content store (support/ContentStore.h)
/// keyed by a 64-bit FNV-1a hash of the source, flags and compiler, so
/// repeat launches skip the compile entirely.
///
/// The launch boundary mirrors the simulator's launchChecked: the same
/// argument-binding order and the same E05xx diagnostics for launch
/// misuse, plus the native-specific E0603..E0607 codes for toolchain,
/// compile, load, symbol and subset failures. Buffers are marshalled to
/// flat typed arrays (8-byte int64/double words in exact mode, 4-byte
/// int32/float leaves in fast mode), executed against, and read back;
/// on a cancelled or failed execution the caller's buffers are poisoned
/// exactly like a cancelled simulator launch. Deterministic fault
/// injection (support/FaultInject.h) covers the compile/dlopen/dlsym steps.
///
/// The simulator remains the verification backend: native runs enforce
/// the wall-clock deadline and the memory cap, but not MaxSteps, race
/// detection or guarded-memory checking. See docs/NATIVE_BACKEND.md.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_NATIVE_NATIVE_H
#define LIFT_NATIVE_NATIVE_H

#include "native/NativePrinter.h"
#include "ocl/Runtime.h"

#include <map>
#include <string>
#include <vector>

namespace lift {
namespace native {

/// What a successful native launch reports.
struct NativeLaunchResult {
  /// Wall-clock time of the kernel entry invocation, in milliseconds
  /// (excludes compilation and marshalling).
  double WallMs = 0;
  /// Wall-clock time spent in the system compiler; 0 on a cache hit.
  double CompileMs = 0;
  /// Wall-clock time spent marshalling buffers in and reading results
  /// back out, in milliseconds. Cache-hit launches re-fill persistent
  /// per-artifact arenas and skip the pre-launch copy and readback of
  /// buffers the kernel provably never writes, so this drops after the
  /// first launch of a workload.
  double MarshalMs = 0;
  /// True when the shared object was reused from the on-disk cache.
  bool CacheHit = false;
  /// Worker threads the OpenMP group loop was asked for.
  int64_t Threads = 1;
  /// The generated C++ translation unit (for tests and --dump-native).
  std::string Source;
};

/// The note a native run records when it was asked for simulator-only
/// checks (single kernels and graphs alike).
inline constexpr const char *SimulatorOnlyChecksNote =
    "race/memory checking and schedule perturbation are simulator-only; "
    "the native backend ignores them";

/// The compiler the native backend would invoke: $LIFT_NATIVE_CXX if set,
/// otherwise the first of c++/g++/clang++ on PATH. Empty when none is
/// usable — callers should skip native execution (E0603 at launch).
std::string toolchainCompiler();

/// Executes \p K natively. Mirrors ocl::launchChecked's contract: buffers
/// bind to the program's pointer parameters in declaration order, Sizes
/// binds size and scalar parameters by name, Cfg supplies the NDRange,
/// thread count and execution limits (TimeoutMs is enforced by a host
/// watchdog; MaxMemoryBytes bounds the launch's simulated bytes exactly
/// like the simulator; MaxSteps is not enforceable natively). On failure
/// the diagnostic is recorded into \p Engine and an empty Expected is
/// returned; buffers are poisoned only when execution had begun.
///
/// \p Mode selects the numeric model (NativePrinter.h): Exact is
/// bit-identical to the simulator, Fast trades that for natively-typed
/// scalars, SIMD-friendly loops and -O3 -march=native. The two modes
/// hash to distinct cache artifacts and launch plans.
Expected<NativeLaunchResult>
launchNativeChecked(const codegen::CompiledKernel &K,
                    const std::vector<ocl::Buffer *> &Buffers,
                    const std::map<std::string, int64_t> &Sizes,
                    const ocl::LaunchConfig &Cfg, DiagnosticEngine &Engine,
                    NativeMode Mode = NativeMode::Exact);

} // namespace native
} // namespace lift

#endif // LIFT_NATIVE_NATIVE_H
