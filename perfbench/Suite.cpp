//===- Suite.cpp - The sim and native-warm workloads ----------------------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// One pass runs the 12 paper benchmarks at large size and the 4 example
// graphs, in a seeded order, through the entry points liftc uses:
//
//   program  IL source -> frontend::parseILChecked -> codegen::compileChecked
//            (Full config) -> ocl::launchChecked | native::launchNativeChecked
//            -> output checked against the host golden reference
//   graph    .liftg text -> graph::parseGraphChecked -> graph::validateGraph
//            -> graph::runGraph (buffer reuse on) -> outputs checked bit for
//            bit against a simulator run without reuse made during set-up
//
// sim runs everything on the simulator. native-warm runs the programs in
// fast mode and the graphs in exact mode on the native backend. Each of
// its set-ups fills a fresh, empty artifact directory with one pass, so
// set-up time is the cold path (the system compiler); the measured passes
// only read the directory.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "IlSource.h"

#include "frontend/ILParser.h"
#include "graph/GraphExec.h"
#include "ir/TypeInference.h"
#include "native/Native.h"
#include "suite/Benchmark.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <set>

using namespace lift;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

enum class Backend { Sim, NativeWarm };

const char *const GraphNames[] = {"stencil_chain", "matmul_bias", "jacobi",
                                  "kmeans_loop"};

/// One native compile per distinct (kernel, NDRange, mode) triple. The
/// kernel and NDRange are identified by the translation unit they print
/// to, since different stages can print the same unit (and then share an
/// artifact).
using ArtifactKey = std::pair<std::string, native::NativeMode>;

ArtifactKey artifactKey(const codegen::CompiledKernel &K,
                        const std::array<int64_t, 3> &Global,
                        const std::array<int64_t, 3> &Local,
                        native::NativeMode Mode) {
  return {native::printNativeModule(K, Global, Local, Mode), Mode};
}

struct Program {
  bench::BenchmarkCase Case;
  std::vector<std::string> Sources; ///< complete IL, one per Lift stage
  double RefCost = 0; ///< simulator cost of the hand-written reference
};

struct GraphInput {
  std::string Name;
  std::string Text;
  std::map<std::string, std::vector<float>> Bindings;
  /// Simulator outputs without buffer reuse, recorded during set-up.
  std::map<std::string, std::vector<float>> Expected;
};

struct State {
  std::vector<Program> Programs;
  std::vector<GraphInput> Graphs;
  /// The pass order: (is graph, index), shuffled by the seed.
  std::vector<std::pair<bool, size_t>> Order;
  std::set<ArtifactKey> Artifacts;
  std::string WarmCache; ///< native-warm's filled artifact directory
  /// Self times of native-warm's cache-filling pass (traced runs).
  std::map<std::string, double> FillSelfMs;
  /// Programs that enter through the in-memory IR, with the reason.
  std::vector<std::string> IrOnly;
};

/// Counts one pass accumulates.
struct PassStats {
  std::vector<double> GenCost; ///< simulator cost per program (sim)
  double CostUnits = 0;
  uint64_t HostBytes = 0;
  uint64_t KernelBytes = 0;
  uint64_t BarriersEliminated = 0;
  uint64_t LoopsSimplified = 0;
  uint64_t CacheMisses = 0; ///< native launches with CacheHit=false
  uint64_t Compiles = 0;    ///< artifacts the pass added to the cache
  uint64_t StagesRun = 0;
  uint64_t Recycled = 0;
  uint64_t Freed = 0;
  uint64_t GraphPeakBytes = 0;
};

struct Ctx {
  const Options &O;
  Backend B;
  Tracer &T;
  Report &R;
};

/// Suite programs run natively in fast mode; graphs run in exact mode.
constexpr native::NativeMode ProgramMode = native::NativeMode::Fast;

codegen::CompilerOptions compileOptions(const bench::Stage &S) {
  codegen::CompilerOptions O; // the Full configuration: BE + CFS + AAS
  O.GlobalSize = S.Global;
  O.LocalSize = S.Local;
  return O;
}

std::string firstError(const DiagnosticEngine &E) {
  for (const Diagnostic &D : E.diagnostics())
    if (D.Severity == DiagSeverity::Error)
      return D.render();
  return "failed without a diagnostic";
}

/// The suite's validation rule: largest error relative to max(1, |expected|).
double maxRelError(const std::vector<float> &Got,
                   const std::vector<float> &Want) {
  if (Got.size() != Want.size())
    return INFINITY;
  double Max = 0;
  for (size_t I = 0; I != Got.size(); ++I) {
    double Scale = std::fmax(1.0, std::fabs(double(Want[I])));
    Max = std::fmax(Max, std::fabs(double(Got[I]) - double(Want[I])) / Scale);
  }
  return Max;
}

bool sameBits(const std::map<std::string, std::vector<float>> &A,
              const std::map<std::string, std::vector<float>> &B) {
  if (A.size() != B.size())
    return false;
  for (const auto &[Name, V] : A) {
    auto It = B.find(Name);
    if (It == B.end() || It->second.size() != V.size() ||
        std::memcmp(V.data(), It->second.data(), V.size() * sizeof(float)))
      return false;
  }
  return true;
}

size_t countArtifacts(const std::string &Dir) {
  size_t N = 0;
  std::error_code EC;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir, EC)) {
    const std::string Name = E.path().filename().string();
    if (Name.size() > 3 && Name.compare(Name.size() - 3, 3, ".so") == 0 &&
        Name.find(".tmp.") == std::string::npos)
      ++N;
  }
  return N;
}

void addKernelCounts(const codegen::CompiledKernel &K, PassStats &St) {
  St.KernelBytes += K.Source.size();
  St.BarriersEliminated += K.BarriersEliminated;
  St.LoopsSimplified += K.LoopsSimplified;
}

//===----------------------------------------------------------------------===//
// Operations
//===----------------------------------------------------------------------===//

bool runProgram(Ctx &C, const Program &P, PassStats &St, std::string &Why) {
  Tracer &T = C.T;
  Scope Op(T, "op.program");
  ocl::resetHostBytesHighWater();
  std::vector<ocl::Buffer> Bufs;
  {
    Scope Sp(T, "ocl.host_buffers");
    for (const bench::BufferInit &B : P.Case.WorkingBuffers)
      Bufs.push_back(B.materialize());
  }

  double Cost = 0;
  for (size_t I = 0; I != P.Case.LiftStages.size(); ++I) {
    const bench::Stage &S = P.Case.LiftStages[I];
    DiagnosticEngine E;
    ir::LambdaPtr Prog = S.Program;
    if (!P.Sources[I].empty()) {
      Expected<frontend::ParsedProgram> PP;
      {
        Scope Sp(T, "frontend.parse");
        PP = frontend::parseILChecked(P.Sources[I], E);
      }
      if (!PP)
        return Why = firstError(E), false;
      Prog = PP->Program;
      if (T.On) {
        // compileChecked infers types internally; a separate call shows
        // that share of codegen.compile_ms (traced runs only).
        Scope Sp(T, "ir.typeinfer");
        ir::inferProgramTypes(Prog);
      }
    }
    Expected<codegen::CompiledKernel> K;
    {
      Scope Sp(T, "codegen.compile");
      K = codegen::compileChecked(Prog, compileOptions(S), E);
    }
    if (!K)
      return Why = firstError(E), false;
    addKernelCounts(*K, St);

    std::vector<ocl::Buffer *> Args;
    for (size_t Idx : S.Buffers)
      Args.push_back(&Bufs[Idx]);
    ocl::LaunchConfig Cfg;
    Cfg.Global = S.Global;
    Cfg.Local = S.Local;
    if (C.B == Backend::Sim) {
      Cfg.Threads = C.O.Res.SimThreads;
      Expected<ocl::LaunchResult> LR;
      {
        Scope Sp(T, "ocl.launch");
        LR = ocl::launchChecked(*K, Args, S.Sizes, Cfg, E);
      }
      if (!LR)
        return Why = firstError(E), false;
      Cost += LR->Cost.cost();
      continue;
    }
    Cfg.Threads = C.O.Res.NativeThreads;
    if (T.On) {
      Scope Sp(T, "native.print");
      (void)native::printNativeModule(*K, S.Global, S.Local, ProgramMode);
    }
    Expected<native::NativeLaunchResult> NR;
    long LaunchSpan;
    {
      // The launch span's self time is what remains of the launch once
      // the toolchain, marshalling and kernel children are taken out.
      Scope Sp(T, "native.load");
      LaunchSpan = Sp.id();
      NR = native::launchNativeChecked(*K, Args, S.Sizes, Cfg, E,
                                       ProgramMode);
    }
    if (!NR)
      return Why = firstError(E), false;
    St.CacheMisses += NR->CacheHit ? 0 : 1;
    if (T.On) {
      T.derived("native.toolchain", LaunchSpan, 0, NR->CompileMs);
      T.derived("native.marshal", LaunchSpan, NR->CompileMs, NR->MarshalMs);
      T.derived("native.kernel", LaunchSpan, NR->CompileMs + NR->MarshalMs,
                NR->WallMs);
    }
  }

  std::vector<float> Out;
  {
    Scope Sp(T, "ocl.host_buffers");
    Out = Bufs[P.Case.OutputBuffer].toFlatFloats();
  }
  St.HostBytes += ocl::hostBytesHighWater();
  const double Err = maxRelError(Out, P.Case.Expected);
  if (!(Err < P.Case.Tolerance)) {
    Why = "output differs from the host reference (max relative error " +
          std::to_string(Err) + ", tolerance " +
          std::to_string(P.Case.Tolerance) + ")";
    return false;
  }
  St.GenCost.push_back(Cost);
  St.CostUnits += Cost;
  return true;
}

bool runGraphOp(Ctx &C, const GraphInput &G, PassStats &St,
                std::string &Why) {
  Tracer &T = C.T;
  Scope Op(T, "op.graph");
  DiagnosticEngine E;
  Expected<graph::Graph> Gr;
  {
    Scope Sp(T, "graph.parse");
    Gr = graph::parseGraphChecked(G.Text, E);
  }
  if (!Gr)
    return Why = firstError(E), false;
  Expected<graph::ValidatedGraph> VG;
  {
    Scope Sp(T, "graph.validate");
    VG = graph::validateGraph(*Gr, E);
  }
  if (!VG)
    return Why = firstError(E), false;
  for (const graph::NodePlan &N : VG->Nodes)
    for (const graph::StagePlan &SP : N.Stages)
      addKernelCounts(*SP.Kernel, St);

  graph::GraphRunOptions GO;
  GO.NativeBackend = C.B != Backend::Sim;
  GO.NMode = native::NativeMode::Exact;
  GO.Threads = GO.NativeBackend ? C.O.Res.NativeThreads : C.O.Res.SimThreads;
  GO.ReuseBuffers = true;
  GO.Bindings = G.Bindings;
  Expected<graph::GraphRunResult> RR;
  long RunSpan;
  {
    Scope Sp(T, "graph.run");
    RunSpan = Sp.id();
    RR = graph::runGraph(*VG, GO, E);
  }
  if (!RR)
    return Why = firstError(E), false;
  if (T.On && GO.NativeBackend) {
    double KernelMs = 0;
    for (const graph::StageRunInfo &SI : RR->Stages)
      KernelMs += SI.NativeWallMs;
    T.derived("native.kernel", RunSpan, 0, KernelMs);
  }
  St.CostUnits += RR->TotalCost;
  St.StagesRun += RR->StagesRun;
  St.Recycled += RR->BuffersRecycled;
  St.Freed += RR->BuffersFreed;
  St.GraphPeakBytes += RR->PeakHostBytes;
  if (!sameBits(RR->Outputs, G.Expected)) {
    Why = "outputs are not bit-identical to the simulator reference";
    return false;
  }
  return true;
}

/// Runs every operation once; \p Record keeps their times in the report.
void runOps(Ctx &C, State &S, PassStats &St, bool Record) {
  for (const auto &[IsGraph, I] : S.Order) {
    const Clock::time_point Op0 = Clock::now();
    std::string Why;
    const bool Ok = IsGraph ? runGraphOp(C, S.Graphs[I], St, Why)
                            : runProgram(C, S.Programs[I], St, Why);
    if (Record) {
      C.R.OpMs.push_back(msSince(Op0));
      C.R.OpKind.push_back(unsigned(IsGraph ? S.Programs.size() + I : I));
    }
    C.R.count(Ok, (IsGraph ? S.Graphs[I].Name : S.Programs[I].Case.Name) +
                      ": " + Why);
  }
}

/// One pass over the operation list; returns its wall-clock in ms, and
/// with \p Record keeps it in the report. Cache checks run after the clock
/// stops.
double runPass(Ctx &C, State &S, PassStats &St, bool Record) {
  const size_t WarmBefore =
      C.B == Backend::NativeWarm ? countArtifacts(S.WarmCache) : 0;

  const Clock::time_point T0 = Clock::now();
  {
    Scope Pass(C.T, "pass");
    runOps(C, S, St, Record);
  }
  const double PassMs = msSince(T0);
  if (Record)
    C.R.PassMs.push_back(PassMs);

  if (C.B == Backend::NativeWarm) {
    St.Compiles = countArtifacts(S.WarmCache) - WarmBefore;
    C.R.count(St.Compiles == 0 && St.CacheMisses == 0,
              "native-warm pass compiled " + std::to_string(St.Compiles) +
                  " artifacts (" + std::to_string(St.CacheMisses) +
                  " cache misses); expected none");
  }
  return PassMs;
}

//===----------------------------------------------------------------------===//
// Set-up
//===----------------------------------------------------------------------===//

bool fail(Report &R, const std::string &Why) {
  R.count(false, "set-up: " + Why);
  return false;
}

bool setupPrograms(Ctx &C, State &S) {
  for (bench::BenchmarkCase &Case : bench::allBenchmarks(/*Large=*/true)) {
    Program P;
    P.Case = std::move(Case);
    const std::string &Name = P.Case.Name;
    for (const bench::Stage &St : P.Case.LiftStages) {
      const std::string Lit = unspellableLiteral(St.Program);
      if (!Lit.empty()) {
        // No IL text can carry this program, so it enters through the
        // in-memory IR (an empty source marks that).
        DiagnosticEngine E;
        Expected<codegen::CompiledKernel> K =
            codegen::compileChecked(St.Program, compileOptions(St), E);
        if (!K)
          return fail(C.R, Name + ": " + firstError(E));
        S.Artifacts.insert(artifactKey(*K, St.Global, St.Local, ProgramMode));
        P.Sources.emplace_back();
        S.IrOnly.push_back(Name + " (literal '" + Lit + "')");
        continue;
      }
      // The suite enters through parseILChecked, as liftc does; the parsed
      // program must compile to exactly the in-memory IR's kernel.
      std::string Src, Err;
      if (!completeIlSource(St.Program, Src, Err))
        return fail(C.R, Name + ": " + Err);
      DiagnosticEngine E;
      Expected<frontend::ParsedProgram> PP = frontend::parseILChecked(Src, E);
      if (!PP)
        return fail(C.R, Name + ": printed IL does not parse: " +
                             firstError(E));
      Expected<codegen::CompiledKernel> FromText =
          codegen::compileChecked(PP->Program, compileOptions(St), E);
      Expected<codegen::CompiledKernel> FromIr =
          codegen::compileChecked(St.Program, compileOptions(St), E);
      if (!FromText || !FromIr)
        return fail(C.R, Name + ": " + firstError(E));
      if (FromText->Source != FromIr->Source) {
        const std::string Base = C.O.WorkDir + "/mismatch";
        std::ofstream(Base + ".lift") << Src;
        std::ofstream(Base + "-from-il.cl") << FromText->Source;
        std::ofstream(Base + "-from-ir.cl") << FromIr->Source;
        return fail(C.R, Name + ": the parsed IL compiles to different "
                                "kernel source than the in-memory IR (see " +
                                Base + "*)");
      }
      S.Artifacts.insert(
          artifactKey(*FromText, St.Global, St.Local, ProgramMode));
      P.Sources.push_back(std::move(Src));
    }
    if (C.B == Backend::Sim) {
      // Reference kernels are costed once, here, for fig8_rel_geomean.
      bench::RunOptions Run;
      Run.Threads = C.O.Res.SimThreads;
      DiagnosticEngine E;
      Expected<bench::Outcome> Ref = bench::runReferenceChecked(P.Case, Run, E);
      if (!Ref)
        return fail(C.R, Name + " reference: " + firstError(E));
      if (!Ref->Valid)
        return fail(C.R, Name + ": reference output differs from the host "
                                "golden reference");
      P.RefCost = Ref->Cost.cost();
    }
    S.Programs.push_back(std::move(P));
  }
  return true;
}

bool setupGraphs(Ctx &C, State &S) {
  uint64_t InputNo = 0;
  for (const char *Name : GraphNames) {
    GraphInput G;
    G.Name = Name;
    const std::string Path = C.O.ExamplesDir + "/graph/" + Name + ".liftg";
    if (!readFile(Path, G.Text))
      return fail(C.R, "cannot read " + Path);
    DiagnosticEngine E;
    Expected<graph::Graph> Gr = graph::parseGraphChecked(G.Text, E);
    Expected<graph::ValidatedGraph> VG =
        Gr ? graph::validateGraph(*Gr, E) : Expected<graph::ValidatedGraph>();
    if (!VG)
      return fail(C.R, G.Name + ": " + firstError(E));

    // Graphs without an iterate node get seeded float inputs. Iterate
    // graphs keep their committed inputs: their trip counts depend on the
    // data, and a pass must do the same work under every seed.
    bool Iterates = false;
    for (const graph::GraphNode &N : Gr->Nodes)
      Iterates |= N.K == graph::GraphNode::Kind::Iterate;
    for (const graph::BufferDecl &B : Gr->Buffers)
      if (!Iterates && B.Role == graph::BufferRole::Input &&
          B.Elem == graph::ElemType::Float)
        G.Bindings[B.Name] = bench::randomFloats(
            static_cast<size_t>(B.Extent), C.O.Seed * 1000 + ++InputNo);

    graph::GraphRunOptions GO;
    GO.Threads = C.O.Res.SimThreads;
    GO.ReuseBuffers = false;
    GO.Bindings = G.Bindings;
    Expected<graph::GraphRunResult> Ref = graph::runGraph(*VG, GO, E);
    if (!Ref)
      return fail(C.R, G.Name + " reference run: " + firstError(E));
    G.Expected = Ref->Outputs;
    for (const graph::NodePlan &N : VG->Nodes)
      for (const graph::StagePlan &SP : N.Stages)
        S.Artifacts.insert(artifactKey(*SP.Kernel, SP.Decl.Global,
                                       SP.Decl.Local,
                                       native::NativeMode::Exact));
    S.Graphs.push_back(std::move(G));
  }
  return true;
}

bool setup(Ctx &C, State &S) {
  if (!setupPrograms(C, S) || !setupGraphs(C, S))
    return false;
  for (size_t I = 0; I != S.Programs.size(); ++I)
    S.Order.push_back({false, I});
  for (size_t I = 0; I != S.Graphs.size(); ++I)
    S.Order.push_back({true, I});
  std::mt19937_64 Rng(C.O.Seed);
  std::shuffle(S.Order.begin(), S.Order.end(), Rng);

  if (C.B == Backend::NativeWarm) {
    // Fill a fresh artifact directory with one cold pass; the measured
    // passes then only read it. A new directory per set-up keeps the
    // dlopen handle cache (keyed by .so path) cold too. A traced run
    // traces this pass, the only one where the toolchain runs.
    S.WarmCache = C.O.WorkDir + "/warm-cache-" +
                  std::to_string(C.R.SetupMs.size());
    fs::remove_all(S.WarmCache);
    ::setenv("LIFT_NATIVE_CACHE_DIR", S.WarmCache.c_str(), 1);
    PassStats St;
    const uint64_t FailedBefore = C.R.Failed;
    const size_t From = C.T.size();
    C.T.On = C.O.Trace;
    runOps(C, S, St, /*Record=*/false);
    C.T.On = false;
    S.FillSelfMs = C.T.selfMs(From, C.T.size());
    if (C.R.Failed != FailedBefore)
      return false;
    if (countArtifacts(S.WarmCache) != S.Artifacts.size())
      return fail(C.R, "filling the warm cache compiled " +
                           std::to_string(countArtifacts(S.WarmCache)) +
                           " artifacts for " +
                           std::to_string(S.Artifacts.size()) +
                           " distinct triples");
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// The workload
//===----------------------------------------------------------------------===//

bool perfbench::runSuiteWorkload(const Options &O, Tracer &T, Report &R) {
  const Backend B = O.Workload == "sim" ? Backend::Sim : Backend::NativeWarm;
  Ctx C{O, B, T, R};
  fs::create_directories(O.WorkDir);

  // Set up several times and keep the last; each set-up starts from
  // nothing (the previous state is torn down, untimed, first).
  std::unique_ptr<State> S;
  do {
    S.reset();
    auto Fresh = std::make_unique<State>();
    const Clock::time_point T0 = Clock::now();
    if (!setup(C, *Fresh))
      return false;
    R.SetupMs.push_back(msSince(T0));
    S = std::move(Fresh);
  } while (!O.Trace && R.anotherSetup());

  for (const std::string &P : S->IrOnly)
    R.Notes.push_back("enters through the in-memory IR, not parseILChecked: " +
                      P + " has no IL spelling");
  if (B == Backend::NativeWarm)
    R.Notes.push_back(
        "native-warm cache state: every set-up fills a fresh, empty artifact "
        "directory, so the on-disk cache and the dlopen handle cache (keyed "
        "by .so path) are cold in each set-up; the launch-plan cache (keyed "
        "by artifact hash) is cold in the first set-up of the process and "
        "warm in later ones. Passes compile nothing");

  // A traced run alternates untraced and traced passes, so tracing
  // overhead is the difference of their medians.
  const unsigned MinPasses = 2;
  std::vector<double> TracedMs, UntracedMs;
  std::vector<std::map<std::string, double>> TracedSelf;
  PassStats Counts;
  const Clock::time_point W0 = Clock::now();
  for (unsigned N = 0; N < MinPasses || msSince(W0) < O.Seconds * 1000; ++N) {
    const bool Traced = O.Trace && N % 2 == 1;
    T.On = Traced;
    const size_t From = T.size();
    PassStats St;
    const double Ms = runPass(C, *S, St, !Traced);
    T.On = false;
    if (Traced) {
      TracedMs.push_back(Ms);
      TracedSelf.push_back(T.selfMs(From, T.size()));
      Counts = St;
    } else {
      UntracedMs.push_back(Ms);
    }
  }
  if (!O.Trace)
    return true;

  auto Self = [&](std::initializer_list<const char *> Spans) {
    std::vector<double> V;
    for (const std::map<std::string, double> &M : TracedSelf) {
      double Sum = 0;
      for (const char *Name : Spans) {
        auto It = M.find(Name);
        Sum += It == M.end() ? 0 : It->second;
      }
      V.push_back(Sum);
    }
    return median(V);
  };
  std::map<std::string, double> &L = R.Layer;
  L["frontend.parse_ms"] = Self({"frontend.parse"});
  L["ir.typeinfer_ms"] = Self({"ir.typeinfer"});
  L["codegen.compile_ms"] = Self({"codegen.compile"});
  L["codegen.kernel_bytes"] = double(Counts.KernelBytes);
  L["codegen.barriers_eliminated"] = double(Counts.BarriersEliminated);
  L["codegen.loops_simplified"] = double(Counts.LoopsSimplified);
  L["ocl.launch_ms"] = Self({"ocl.launch"});
  L["ocl.host_buffers_ms"] = Self({"ocl.host_buffers"});
  L["ocl.cost_units"] = Counts.CostUnits;
  L["ocl.peak_host_mb"] = double(Counts.HostBytes) / 1e6;
  // geomean(reference / generated) = geomean(reference) / geomean(generated),
  // so GenCost (in pass order) need not line up with Programs.
  double LogSum = 0;
  for (size_t I = 0; B == Backend::Sim && I != Counts.GenCost.size(); ++I)
    LogSum += std::log(S->Programs[I].RefCost) - std::log(Counts.GenCost[I]);
  L["ocl.fig8_rel_geomean"] =
      B == Backend::Sim ? std::exp(LogSum / double(Counts.GenCost.size())) : 0;
  L["native.print_ms"] = Self({"native.print"});
  // The toolchain runs only in native-warm's cache-filling set-up pass,
  // which compiled one artifact per distinct triple (set-up checks that).
  L["native.toolchain_ms"] = S->FillSelfMs["native.toolchain"];
  L["native.compiles"] =
      B == Backend::NativeWarm ? double(S->Artifacts.size()) : 0;
  L["native.load_ms"] = Self({"native.load"});
  L["native.marshal_ms"] = Self({"native.marshal"});
  L["native.kernel_ms"] = Self({"native.kernel"});
  L["graph.parse_ms"] = Self({"graph.parse"});
  L["graph.validate_ms"] = Self({"graph.validate"});
  L["graph.run_ms"] = Self({"graph.run"});
  L["graph.stages_run"] = double(Counts.StagesRun);
  L["graph.buffers_recycled"] = double(Counts.Recycled);
  L["graph.buffers_freed"] = double(Counts.Freed);
  L["graph.peak_host_bytes"] = double(Counts.GraphPeakBytes);
  L["trace.pass_ms"] = median(TracedMs);
  L["trace.overhead_ms"] = median(TracedMs) - median(UntracedMs);
  L["trace.unexplained_ms"] = Self({"pass", "op.program", "op.graph"});
  const double LayerMs =
      Self({"frontend.parse", "ir.typeinfer", "codegen.compile", "ocl.launch",
            "ocl.host_buffers", "native.print", "native.toolchain", "native.load",
            "native.marshal", "native.kernel", "graph.parse",
            "graph.validate", "graph.run"});
  R.Notes.push_back(
      "accounting (medians over " + std::to_string(TracedMs.size()) +
      " traced passes): traced pass " + std::to_string(L["trace.pass_ms"]) +
      " ms = layer self times " + std::to_string(LayerMs) +
      " ms + unexplained " + std::to_string(L["trace.unexplained_ms"]) +
      " ms; tracing overhead " + std::to_string(L["trace.overhead_ms"]) +
      " ms per pass");
  return true;
}
