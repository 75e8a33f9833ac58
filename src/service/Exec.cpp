//===- Exec.cpp - Shared compile-and-run pipeline -------------------------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// This is tools/liftc's pipeline, extracted verbatim: the stdout bytes,
// the diagnostic ordering and the exit codes must stay identical to what
// the standalone driver produced before the extraction — the service
// tests assert bit-identity between a daemon response and a solo run.
// When touching output formatting here, mirror-check tests/ServiceTest
// and the liftc golden tests.
//
//===----------------------------------------------------------------------===//

#include "service/Exec.h"

#include "ir/Printer.h"
#include "lift/Lift.h"
#include "native/NativePrinter.h"
#include "passes/Verify.h"
#include "support/ContentStore.h"
#include "support/FaultInject.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <exception>
#include <stdexcept>

using namespace lift;
using namespace lift::service;

namespace {

/// Deterministic input data for --run (identical to liftc's historical
/// generator: every request sees the same pseudo-random inputs).
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

void appendf(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  Out += Buf;
}

/// The "// fault-count" block a --count-faults run appends to stdout.
void appendFaultCounts(std::string &Out) {
  for (unsigned S = 0; S != fault::NumSites; ++S) {
    auto Id = static_cast<fault::Site>(S);
    appendf(Out, "// fault-count %u %llu %s\n", S,
            static_cast<unsigned long long>(fault::occurrences(Id)),
            fault::siteName(Id));
  }
}

void flushInto(std::vector<std::string> &Lines,
               const DiagnosticEngine &Engine) {
  for (const Diagnostic &D : Engine.diagnostics())
    Lines.push_back(D.render());
}

uint64_t clampLimit(uint64_t Requested, uint64_t Ceiling) {
  if (Ceiling == 0)
    return Requested;
  if (Requested == 0)
    return Ceiling;
  return std::min(Requested, Ceiling);
}

} // namespace

codegen::CompilerOptions
service::clampOptions(const codegen::CompilerOptions &Opts,
                      const ExecContext &Ctx) {
  codegen::CompilerOptions E = Opts;
  E.MaxSteps = clampLimit(Opts.MaxSteps, Ctx.MaxSteps);
  E.TimeoutMs = static_cast<int64_t>(
      clampLimit(static_cast<uint64_t>(Opts.TimeoutMs),
                 static_cast<uint64_t>(Ctx.TimeoutMs)));
  E.MaxMemoryBytes = clampLimit(Opts.MaxMemoryBytes, Ctx.MaxMemoryBytes);
  if (Ctx.MaxThreads > 0)
    E.Threads = Opts.Threads == 0 ? Ctx.MaxThreads
                                  : std::min(Opts.Threads, Ctx.MaxThreads);
  return E;
}

std::string service::compileKey(const ExecRequest &R) {
  std::string K;
  K.reserve(R.Source.size() + 64);
  K += R.Source;
  K += '|';
  K += std::to_string(R.MaxErrors);
  for (int64_t V : R.Opts.GlobalSize) {
    K += ',';
    K += std::to_string(V);
  }
  K += '|';
  for (int64_t V : R.Opts.LocalSize) {
    K += ',';
    K += std::to_string(V);
  }
  K += R.Opts.BarrierElimination ? "|be1" : "|be0";
  K += R.Opts.ControlFlowSimplification ? "cfs1" : "cfs0";
  K += R.Opts.ArrayAccessSimplification ? "aas1" : "aas0";
  K += R.Opts.VerifyEach ? "v1" : "v0";
  K += "|u";
  K += std::to_string(R.Opts.UnrollLimit);
  return support::contentHash(K);
}

std::shared_ptr<CompileProduct> service::compileRequest(const ExecRequest &R) {
  auto P = std::make_shared<CompileProduct>();
  DiagnosticEngine Engine(R.MaxErrors);
  try {
    Expected<frontend::ParsedProgram> Parsed =
        frontend::parseILChecked(R.Source, Engine);
    if (!Parsed) {
      P->Diags = Engine.diagnostics();
      return P;
    }
    P->Parsed = true;
    P->Program =
        std::make_shared<frontend::ParsedProgram>(std::move(*Parsed));
    P->PrintedIl = ir::printProgram(P->Program->Program);

    codegen::CompilerOptions Opts = R.Opts;
    Opts.KernelName = "liftc_kernel";
    if (Opts.VerifyEach &&
        !passes::verifyChecked(P->Program->Program, Engine,
                               "after parsing")) {
      P->Diags = Engine.diagnostics();
      return P;
    }

    Expected<codegen::CompiledKernel> K =
        codegen::compileChecked(P->Program->Program, Opts, Engine);
    if (!K) {
      P->Diags = Engine.diagnostics();
      return P;
    }
    P->Kernel = std::make_shared<codegen::CompiledKernel>(std::move(*K));
    P->KernelSource = P->Kernel->Source;
    P->Ok = true;
  } catch (DiagnosticError &E) {
    // The checked boundaries normally record for us; a stray escape is
    // still an input problem, not a crash.
    if (!E.Recorded)
      Engine.report(E.Diag);
  }
  P->Diags = Engine.diagnostics();
  return P;
}

namespace {

/// Everything past the compile stage, mirroring liftc line by line.
int runStages(const ExecRequest &R, const ExecContext &Ctx,
              CompileProduct &Pre, DiagnosticEngine &Engine,
              ExecOutcome &O) {
  enum { ExitOk = 0, ExitDiagnostics = 1 };

  if (!Pre.Parsed) {
    flushInto(O.Diags, Engine);
    return ExitDiagnostics;
  }
  if (R.PrintIl) {
    O.Stdout += "// parsed IL\n";
    O.Stdout += Pre.PrintedIl;
    O.Stdout += '\n';
  }
  if (!Pre.Ok) {
    flushInto(O.Diags, Engine);
    return ExitDiagnostics;
  }
  O.Stdout += Pre.KernelSource;

  // Compile-only requests can be served from a text-only product (a
  // disk-loaded daemon artifact has the kernel source but no kernel
  // object); anything past this point needs the real kernel.
  if (R.DumpNative || R.Run) {
    if (!Pre.Kernel)
      throw std::runtime_error(
          "compile product has no kernel object for a run request");
  }

  if (R.DumpNative) {
    // The native translation unit is a plain-C++ lowering of the same
    // kernel AST; unsupported constructs raise E0607 like a launch would.
    O.Stdout += "\n// native C++ translation unit\n";
    O.Stdout += native::printNativeModule(*Pre.Kernel, R.NMode);
  }

  if (!R.Run)
    return ExitOk;

  codegen::CompiledKernel &K = *Pre.Kernel;

  codegen::CompilerOptions Opts = clampOptions(R.Opts, Ctx);
  Opts.KernelName = "liftc_kernel";

  // Bind size variables; default unbound ones to 1024.
  std::map<std::string, int64_t> Sizes = R.Sizes;
  arith::EvalContext SizeCtx;
  std::map<unsigned, int64_t> SizeEnv;
  for (const auto &[Name, Var] : Pre.Program->SizeVars) {
    auto It = Sizes.find(Name);
    int64_t V = It != Sizes.end() ? It->second : 1024;
    Sizes[Name] = V;
    SizeEnv[Var->getId()] = V;
  }
  SizeCtx.VarValue = [&](const arith::VarNode &V) -> int64_t {
    auto It = SizeEnv.find(V.getId());
    if (It == SizeEnv.end())
      throwDiag(DiagCode::HostUnboundSize, DiagLocation(),
                "liftc: unbound size variable " + V.getName());
    return It->second;
  };

  // Materialize buffers: random floats for inputs, zeros for the output.
  std::vector<ocl::Buffer> Buffers;
  std::vector<ocl::Buffer *> Args;
  uint64_t Seed = 1;
  uint64_t HostBytes = 0;
  for (const codegen::KernelParamInfo &Param : K.Params) {
    if (Param.IsSizeParam || !Param.Store || !Param.Store->NumElements)
      continue;
    int64_t Count = arith::evaluate(Param.Store->NumElements, SizeCtx);
    if (Count < 0)
      throwDiag(DiagCode::RuntimeBadLaunch, DiagLocation(),
                "host: kernel parameter has negative extent " +
                    std::to_string(Count));
    HostBytes += static_cast<uint64_t>(Count) * sizeof(float);
    if (Ctx.MaxHostBufferBytes && HostBytes > Ctx.MaxHostBufferBytes)
      throwDiag(DiagCode::RuntimeMemoryLimit, DiagLocation(),
                "host: request buffers exceed the service ceiling of " +
                    std::to_string(Ctx.MaxHostBufferBytes) + " bytes",
                {"bind smaller sizes or raise the daemon's "
                 "--max-request-memory"});
    if (Param.IsOutput)
      Buffers.push_back(ocl::Buffer::zeros(static_cast<size_t>(Count)));
    else
      Buffers.push_back(ocl::Buffer::ofFloats(
          randomFloats(static_cast<size_t>(Count), Seed++)));
  }
  for (ocl::Buffer &B : Buffers)
    Args.push_back(&B);

  ocl::LaunchConfig Cfg = ocl::LaunchConfig::fromOptions(Opts);
  Cfg.Limits.Cancel = Ctx.Cancel;

  if (R.NativeBackend) {
    if (Opts.CheckRaces || Opts.CheckMemory || Opts.PerturbSchedule)
      O.Diags.push_back(std::string("note: ") +
                        native::SimulatorOnlyChecksNote);
    // The native attempt records into its own engine: on failure it is
    // demoted to an E0610 warning and the run degrades to the simulator
    // below instead of failing.
    DiagnosticEngine NativeEngine(R.MaxErrors);
    Expected<native::NativeLaunchResult> NR = native::launchNativeChecked(
        K, Args, Sizes, Cfg, NativeEngine, R.NMode);
    if (NR) {
      double Checksum = 0;
      if (!Buffers.empty())
        for (float V : Buffers.back().toFlatFloats())
          Checksum += V;
      appendf(O.Stdout,
              "\n// run[native]: wall-ms=%.3f compile-ms=%.0f cache=%s "
              "threads=%lld checksum=%.6g\n",
              NR->WallMs, NR->CompileMs, NR->CacheHit ? "hit" : "miss",
              static_cast<long long>(NR->Threads), Checksum);
      if (R.CountFaults)
        appendFaultCounts(O.Stdout);
      flushInto(O.Diags, NativeEngine);
      return NativeEngine.hasErrors() ? ExitDiagnostics : ExitOk;
    }
    std::string Detail = "no diagnostic";
    for (const Diagnostic &D : NativeEngine.diagnostics())
      if (D.Severity == DiagSeverity::Error) {
        Detail = diagCodeId(D.Code) + ": " + D.Message;
        break;
      }
    Engine.warning(DiagCode::NativeFallback, DiagLocation(),
                   "native backend unavailable (" + Detail +
                       "); degrading to the simulator");
    // A failed native attempt never read results back (contents are
    // intact) but may have poisoned the buffers; the simulator rerun
    // starts from a clean launch.
    for (ocl::Buffer &B : Buffers)
      B.Poisoned = false;
  }

  Expected<ocl::LaunchResult> LR =
      ocl::launchChecked(K, Args, Sizes, Cfg, Engine);
  if (!LR) {
    flushInto(O.Diags, Engine);
    return ExitDiagnostics;
  }

  double Checksum = 0;
  if (!Buffers.empty())
    for (float V : Buffers.back().toFlatFloats())
      Checksum += V;
  appendf(O.Stdout,
          "\n// run: cost=%.0f global=%llu local=%llu barriers=%llu "
          "divmod=%llu checksum=%.6g\n",
          LR->Cost.cost(),
          static_cast<unsigned long long>(LR->Cost.GlobalAccesses),
          static_cast<unsigned long long>(LR->Cost.LocalAccesses),
          static_cast<unsigned long long>(LR->Cost.Barriers),
          static_cast<unsigned long long>(LR->Cost.DivModOps), Checksum);

  if (Opts.CheckRaces)
    appendf(O.Stdout, "// race check: %s\n", LR->Races.summary().c_str());
  if (Opts.CheckMemory)
    appendf(O.Stdout, "// memory check: %s\n", LR->Guards.summary().c_str());
  if (R.CountFaults)
    appendFaultCounts(O.Stdout);
  // Successful runs can still carry warnings (e.g. E0509 serial
  // fallback) — surface them without failing the run.
  flushInto(O.Diags, Engine);
  return Engine.hasErrors() ? ExitDiagnostics : ExitOk;
}

} // namespace

ExecOutcome service::execRequest(const ExecRequest &R, const ExecContext &Ctx,
                                 CompileProduct *Pre) {
  ExecOutcome O;
  std::shared_ptr<CompileProduct> Local;
  if (!Pre) {
    Local = compileRequest(R);
    Pre = Local.get();
  }

  // Per-request isolation: a fresh engine seeded by replaying the shared
  // compile-stage diagnostics, so a cached compile surfaces its warnings
  // exactly as a solo run would.
  DiagnosticEngine Engine(R.MaxErrors);
  for (const Diagnostic &D : Pre->Diags)
    Engine.report(D);

  try {
    O.Exit = runStages(R, Ctx, *Pre, Engine, O);
  } catch (DiagnosticError &E) {
    // A recoverable diagnostic that escaped a checked boundary: still an
    // input problem, not a crash. Matches liftc's top-level handler —
    // only the escaped diagnostic is printed.
    O.Diags.push_back(E.Diag.render());
    O.Exit = 1;
  } catch (const std::exception &E) {
    O.Diags.push_back(std::string("internal error: ") + E.what());
    O.Exit = 2;
  }
  return O;
}
