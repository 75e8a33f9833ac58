//===- liftc.cpp - Command-line Lift compiler driver ---------------------------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// liftc: compiles a Lift IL source file to OpenCL and optionally executes
// it on the simulated device.
//
//   liftc prog.lift                          print the generated kernel
//   liftc prog.lift --print-il               also echo the parsed IL
//   liftc prog.lift --global 1024 --local 64 NDRange (1D shorthand)
//   liftc prog.lift --size N=4096            bind a size variable
//   liftc prog.lift --no-aas|--no-cfs|--no-be  toggle optimizations
//   liftc prog.lift --verify-each            run the IR verifier after
//                                            parsing and each pipeline stage
//   liftc prog.lift --max-errors N           report up to N errors (default 20)
//   liftc prog.lift --run                    execute with random inputs,
//                                            report cost and a checksum
//   liftc prog.lift --run --check-races      detect data races and barrier
//                                            divergence while executing
//   liftc prog.lift --run --check-memory     bounds- and initialization-check
//                                            every element access
//   liftc prog.lift --run --check-races --perturb-schedule [--schedule-seed N]
//                                            also permute work-item order
//   liftc prog.lift --run --backend=native   execute on the native C++/OpenMP
//                                            backend (src/native) instead of
//                                            the simulator
//   liftc prog.lift --dump-native            print the generated native C++
//                                            translation unit
//   liftc prog.lift --remote=SOCK ...        send the request to a liftd
//                                            daemon (docs/SERVICE.md) and
//                                            relay its response
//   liftc --graph=pipe.liftg                 run a multi-kernel pipeline
//                                            graph (docs/PIPELINES.md):
//                                            stages scheduled in dependency
//                                            order with buffer reuse,
//                                            graph-wide limits, and iterate-
//                                            until-convergence nodes
//
// The pipeline itself lives in src/service/Exec so the liftd daemon and
// this driver produce bit-identical output; this file only parses flags,
// reads the file, and prints the outcome.
//
// Exit codes: 0 = success; 1 = the input was rejected (diagnostics were
// printed, including usage errors and race/memory findings); 2 = internal
// error (a compiler bug, not an input problem).
//
//===----------------------------------------------------------------------===//

#include "graph/GraphExec.h"
#include "service/Client.h"
#include "service/Exec.h"
#include "support/Diagnostics.h"
#include "support/FaultInject.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>

using namespace lift;

namespace {

enum ExitCode { ExitOk = 0, ExitDiagnostics = 1, ExitInternal = 2 };

void usage() {
  std::fprintf(
      stderr,
      "usage: liftc <file.lift> [--print-il] [--run]\n"
      "             [--global N[,N[,N]]] [--local N[,N[,N]]]\n"
      "             [--size NAME=VALUE]... [--no-aas] [--no-cfs] "
      "[--no-be]\n"
      "             [--verify-each] [--max-errors N]\n"
      "             [--check-races] [--check-memory] [--perturb-schedule] "
      "[--schedule-seed N]\n"
      "             [--threads N]   (0 = auto: LIFT_THREADS, else hardware "
      "concurrency; 1 = serial)\n"
      "             [--max-steps N]   cancel the launch after N interpreter "
      "steps (E0510)\n"
      "             [--timeout-ms N]  cancel the launch after N ms of wall "
      "clock (E0511)\n"
      "             [--max-memory N]  cap simulated device allocation at N "
      "bytes (E0512)\n"
      "             [--backend=sim|native] execution backend for --run "
      "(default sim)\n"
      "             [--native-mode=exact|fast] numeric model for the native "
      "backend\n"
      "                               (exact: bit-identical to the simulator; "
      "fast: typed\n"
      "                                scalars, -O3 -march=native; default "
      "exact)\n"
      "             [--dump-native]   print the generated native C++ "
      "translation unit\n"
      "             [--remote=SOCK]   send the request to the liftd daemon "
      "listening on\n"
      "                               the Unix socket SOCK instead of "
      "compiling locally\n"
      "                               (incompatible with --inject-faults / "
      "--count-faults:\n"
      "                                fault arming is process-local)\n"
      "             [--retry-attempts N]  attempts for transient failures "
      "(N >= 1;\n"
      "                               sets LIFT_RETRY_ATTEMPTS for this "
      "run)\n"
      "             [--retry-base-us N]   retry backoff base in "
      "microseconds (N >= 0;\n"
      "                               sets LIFT_RETRY_BASE_US for this "
      "run)\n"
      "             [--inject-faults N,K] fail the N-th occurrence of fault "
      "site K\n"
      "                               (N = 0 fails every occurrence: a "
      "persistent outage\n"
      "                                that exhausts the retry policy)\n"
      "                               (0 = allocation, 1 = pool start, 2 = "
      "buffer map,\n"
      "                                3 = native compile, 4 = native dlopen, "
      "5 = native dlsym,\n"
      "                                6 = barrier, 7 = group dispatch, 8 = "
      "step chunk,\n"
      "                                9 = cache read, 10 = cache write, 11 = "
      "accept,\n"
      "                                12 = request read, 13 = request write, "
      "14 = queue admit,\n"
      "                                15 = graph stage dispatch, 16 = graph "
      "buffer reuse)\n"
      "             [--count-faults]  run in fault-counting mode: nothing "
      "fails, and a\n"
      "                               '// fault-count K N <site>' line per "
      "site reports how\n"
      "                               many injection opportunities the run "
      "had (the sweep\n"
      "                               bound for --inject-faults; overrides "
      "--inject-faults)\n"
      "             [--graph=FILE]    run a .liftg pipeline graph "
      "(docs/PIPELINES.md);\n"
      "                               honours --backend/--native-mode, "
      "--threads,\n"
      "                               --check-races/--check-memory, the "
      "limit flags and\n"
      "                               fault injection; incompatible with "
      "--remote,\n"
      "                               --print-il and --dump-native\n"
      "             [--no-reuse-buffers]  graph mode: naive baseline, all "
      "buffers\n"
      "                               allocated up front and held (the bench "
      "comparison)\n"
      "             [--graph-jobs N]  graph mode: dispatch up to N "
      "independent stages\n"
      "                               concurrently (default 1 = exact fault/"
      "budget order)\n"
      "             [--input-seed N]  graph mode: base seed for random input "
      "buffers\n");
}

bool parseDims(const char *S, std::array<int64_t, 3> &Out) {
  Out = {1, 1, 1};
  int I = 0;
  const char *P = S;
  while (*P && I < 3) {
    char *End = nullptr;
    long long V = std::strtoll(P, &End, 10);
    if (End == P || V <= 0)
      return false;
    Out[static_cast<size_t>(I++)] = V;
    P = (*End == ',') ? End + 1 : End;
    if (*End && *End != ',')
      return false;
  }
  return I > 0;
}

/// Strictly numeric argument for the retry flags: rejects empty strings,
/// trailing junk and negative values.
bool parseCount(const char *S, unsigned long long &Out) {
  if (!S || !*S || *S == '-')
    return false;
  char *End = nullptr;
  Out = std::strtoull(S, &End, 10);
  return End != S && *End == '\0';
}

/// Prints every recorded diagnostic to stderr.
void flushDiagnostics(const DiagnosticEngine &Engine) {
  for (const Diagnostic &D : Engine.diagnostics())
    std::fprintf(stderr, "liftc: %s\n", D.render().c_str());
}

void printFaultCounts() {
  for (unsigned S = 0; S != fault::NumSites; ++S) {
    auto Id = static_cast<fault::Site>(S);
    std::printf("// fault-count %u %llu %s\n", S,
                static_cast<unsigned long long>(fault::occurrences(Id)),
                fault::siteName(Id));
  }
}

/// Graph mode: parse + validate + run a .liftg pipeline and print a
/// stage-by-stage report. Same exit-code contract as single-kernel runs.
int runGraphFile(const std::string &Source, const graph::GraphRunOptions &GO,
                 bool CountFaults, unsigned MaxErrors) {
  DiagnosticEngine Engine(MaxErrors);
  Expected<graph::Graph> G = graph::parseGraphChecked(Source, Engine);
  if (!G) {
    flushDiagnostics(Engine);
    return ExitDiagnostics;
  }
  Expected<graph::ValidatedGraph> VG = graph::validateGraph(*G, Engine);
  if (!VG) {
    flushDiagnostics(Engine);
    return ExitDiagnostics;
  }

  Expected<graph::GraphRunResult> R = graph::runGraph(*VG, GO, Engine);
  if (!R) {
    if (CountFaults)
      printFaultCounts();
    flushDiagnostics(Engine);
    return ExitDiagnostics;
  }

  std::printf("// graph '%s': %zu nodes, backend %s\n", VG->G.Name.c_str(),
              VG->Nodes.size(),
              GO.NativeBackend
                  ? (GO.NMode == native::NativeMode::Exact ? "native/exact"
                                                           : "native/fast")
                  : "sim");
  for (const graph::StageRunInfo &S : R->Stages) {
    if (S.Trip)
      std::printf("// %s trip %llu: cost=%.0f steps=%llu\n", S.Path.c_str(),
                  static_cast<unsigned long long>(S.Trip), S.Cost,
                  static_cast<unsigned long long>(S.StepsUsed));
    else if (GO.NativeBackend)
      std::printf("// %s: wall-ms=%.3f\n", S.Path.c_str(), S.NativeWallMs);
    else
      std::printf("// %s: cost=%.0f steps=%llu\n", S.Path.c_str(), S.Cost,
                  static_cast<unsigned long long>(S.StepsUsed));
  }
  for (const graph::IterateRunInfo &It : R->Iterates)
    std::printf("// iterate '%s': %s in %llu trips (residual %.6g)\n",
                It.Name.c_str(),
                It.Converged ? "converged" : "did not converge",
                static_cast<unsigned long long>(It.Trips), It.Residual);
  for (const auto &[Name, Data] : R->Outputs) {
    double Checksum = 0;
    for (float V : Data)
      Checksum += V;
    std::printf("// output %s: n=%zu checksum=%.6g\n", Name.c_str(),
                Data.size(), Checksum);
  }
  std::printf("// graph: stages-run=%llu cost=%.0f peak-host-bytes=%llu "
              "recycled=%llu freed=%llu\n",
              static_cast<unsigned long long>(R->StagesRun), R->TotalCost,
              static_cast<unsigned long long>(R->PeakHostBytes),
              static_cast<unsigned long long>(R->BuffersRecycled),
              static_cast<unsigned long long>(R->BuffersFreed));
  if (CountFaults)
    printFaultCounts();
  flushDiagnostics(Engine);
  return Engine.hasErrors() ? ExitDiagnostics : ExitOk;
}

int run(int argc, char **argv) {
  if (argc < 2) {
    usage();
    return ExitDiagnostics;
  }

  std::string File;
  std::string Remote;
  std::string GraphFile;
  bool FaultFlagsUsed = false;
  bool NoReuseBuffers = false;
  unsigned GraphJobs = 1;
  bool GraphKeepGoing = false;
  uint64_t InputSeed = 1;
  service::ExecRequest Req;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--print-il") {
      Req.PrintIl = true;
    } else if (A == "--run") {
      Req.Run = true;
    } else if (A == "--dump-native") {
      Req.DumpNative = true;
    } else if (A == "--backend=sim") {
      Req.NativeBackend = false;
    } else if (A == "--backend=native") {
      Req.NativeBackend = true;
    } else if (A == "--native-mode=exact") {
      Req.NMode = native::NativeMode::Exact;
    } else if (A == "--native-mode=fast") {
      Req.NMode = native::NativeMode::Fast;
    } else if (A == "--no-aas") {
      Req.Opts.ArrayAccessSimplification = false;
    } else if (A == "--no-cfs") {
      Req.Opts.ControlFlowSimplification = false;
    } else if (A == "--no-be") {
      Req.Opts.BarrierElimination = false;
    } else if (A == "--verify-each") {
      Req.Opts.VerifyEach = true;
    } else if (A == "--check-races") {
      Req.Opts.CheckRaces = true;
    } else if (A == "--check-memory") {
      Req.Opts.CheckMemory = true;
    } else if (A == "--perturb-schedule") {
      Req.Opts.PerturbSchedule = true;
    } else if (A == "--schedule-seed" && I + 1 < argc) {
      Req.Opts.ScheduleSeed = std::strtoull(argv[++I], nullptr, 10);
    } else if (A == "--threads" && I + 1 < argc) {
      Req.Opts.Threads =
          static_cast<int>(std::strtol(argv[++I], nullptr, 10));
      if (Req.Opts.Threads < 0) {
        std::fprintf(stderr, "liftc: --threads needs a count >= 0\n");
        return ExitDiagnostics;
      }
    } else if (A == "--max-steps" && I + 1 < argc) {
      Req.Opts.MaxSteps = std::strtoull(argv[++I], nullptr, 10);
    } else if (A == "--timeout-ms" && I + 1 < argc) {
      Req.Opts.TimeoutMs = std::strtoll(argv[++I], nullptr, 10);
      if (Req.Opts.TimeoutMs < 0) {
        std::fprintf(stderr, "liftc: --timeout-ms needs a count >= 0\n");
        return ExitDiagnostics;
      }
    } else if (A == "--max-memory" && I + 1 < argc) {
      Req.Opts.MaxMemoryBytes = std::strtoull(argv[++I], nullptr, 10);
    } else if (A.rfind("--graph=", 0) == 0) {
      GraphFile = A.substr(std::strlen("--graph="));
      if (GraphFile.empty()) {
        std::fprintf(stderr, "liftc: --graph needs a .liftg file path\n");
        return ExitDiagnostics;
      }
    } else if (A == "--graph" && I + 1 < argc) {
      GraphFile = argv[++I];
    } else if (A == "--no-reuse-buffers") {
      NoReuseBuffers = true;
    } else if (A == "--keep-going") {
      GraphKeepGoing = true;
    } else if (A == "--graph-jobs" && I + 1 < argc) {
      unsigned long long V = 0;
      if (!parseCount(argv[++I], V) || V == 0 || V > 64) {
        std::fprintf(stderr, "liftc: --graph-jobs needs a count in "
                             "[1, 64]\n");
        return ExitDiagnostics;
      }
      GraphJobs = static_cast<unsigned>(V);
    } else if (A == "--input-seed" && I + 1 < argc) {
      unsigned long long V = 0;
      if (!parseCount(argv[++I], V)) {
        std::fprintf(stderr, "liftc: --input-seed needs a count >= 0\n");
        return ExitDiagnostics;
      }
      InputSeed = V;
    } else if (A.rfind("--remote=", 0) == 0) {
      Remote = A.substr(std::strlen("--remote="));
      if (Remote.empty()) {
        std::fprintf(stderr, "liftc: --remote needs a socket path\n");
        return ExitDiagnostics;
      }
    } else if (A == "--remote" && I + 1 < argc) {
      Remote = argv[++I];
    } else if (A == "--retry-attempts" && I + 1 < argc) {
      unsigned long long V = 0;
      if (!parseCount(argv[++I], V) || V == 0 || V > 1000000) {
        std::fprintf(stderr, "liftc: --retry-attempts needs a count in "
                             "[1, 1000000]\n");
        return ExitDiagnostics;
      }
      ::setenv("LIFT_RETRY_ATTEMPTS", std::to_string(V).c_str(), 1);
    } else if (A == "--retry-base-us" && I + 1 < argc) {
      unsigned long long V = 0;
      if (!parseCount(argv[++I], V) || V > 60000000) {
        std::fprintf(stderr, "liftc: --retry-base-us needs microseconds "
                             "in [0, 60000000]\n");
        return ExitDiagnostics;
      }
      ::setenv("LIFT_RETRY_BASE_US", std::to_string(V).c_str(), 1);
    } else if (A == "--inject-faults" && I + 1 < argc) {
      char *End = nullptr;
      unsigned long long Nth = std::strtoull(argv[++I], &End, 10);
      unsigned long long SiteId =
          *End == ',' ? std::strtoull(End + 1, nullptr, 10) : ~0ull;
      if (End == argv[I] || SiteId >= fault::NumSites) {
        std::fprintf(stderr,
                     "liftc: --inject-faults needs N,K with N >= 0 and "
                     "K in [0,%u)\n",
                     fault::NumSites);
        return ExitDiagnostics;
      }
      FaultFlagsUsed = true;
      if (Nth == 0)
        fault::armAlways(static_cast<fault::Site>(SiteId));
      else
        fault::arm(static_cast<fault::Site>(SiteId), Nth);
    } else if (A == "--count-faults") {
      FaultFlagsUsed = true;
      Req.CountFaults = true;
    } else if (A == "--max-errors" && I + 1 < argc) {
      Req.MaxErrors =
          static_cast<unsigned>(std::strtoul(argv[++I], nullptr, 10));
      if (Req.MaxErrors == 0) {
        std::fprintf(stderr, "liftc: --max-errors needs a positive count\n");
        return ExitDiagnostics;
      }
    } else if (A == "--global" && I + 1 < argc) {
      if (!parseDims(argv[++I], Req.Opts.GlobalSize)) {
        usage();
        return ExitDiagnostics;
      }
    } else if (A == "--local" && I + 1 < argc) {
      if (!parseDims(argv[++I], Req.Opts.LocalSize)) {
        usage();
        return ExitDiagnostics;
      }
    } else if (A == "--size" && I + 1 < argc) {
      std::string KV = argv[++I];
      size_t Eq = KV.find('=');
      if (Eq == std::string::npos) {
        usage();
        return ExitDiagnostics;
      }
      Req.Sizes[KV.substr(0, Eq)] = std::strtoll(KV.c_str() + Eq + 1,
                                                 nullptr, 10);
    } else if (!A.empty() && A[0] != '-') {
      File = A;
    } else {
      usage();
      return ExitDiagnostics;
    }
  }
  if (File.empty() && GraphFile.empty()) {
    usage();
    return ExitDiagnostics;
  }
  if (!GraphFile.empty()) {
    if (!Remote.empty() || Req.PrintIl || Req.DumpNative || !File.empty()) {
      std::fprintf(stderr,
                   "liftc: --graph cannot be combined with --remote, "
                   "--print-il, --dump-native or a .lift input file\n");
      return ExitDiagnostics;
    }
    if (Req.CountFaults)
      fault::countOnly();
    std::ifstream GIn(GraphFile);
    if (!GIn) {
      std::fprintf(stderr, "liftc: cannot open %s\n", GraphFile.c_str());
      return ExitDiagnostics;
    }
    std::stringstream GS;
    GS << GIn.rdbuf();
    graph::GraphRunOptions GO;
    GO.NativeBackend = Req.NativeBackend;
    GO.NMode = Req.NMode;
    GO.CheckRaces = Req.Opts.CheckRaces;
    GO.CheckMemory = Req.Opts.CheckMemory;
    GO.Threads = Req.Opts.Threads;
    GO.Limits.MaxSteps = Req.Opts.MaxSteps;
    GO.Limits.TimeoutMs = Req.Opts.TimeoutMs;
    GO.Limits.MaxMemoryBytes = Req.Opts.MaxMemoryBytes;
    GO.ReuseBuffers = !NoReuseBuffers;
    GO.MaxConcurrentStages = GraphJobs;
    GO.KeepGoing = GraphKeepGoing;
    GO.InputSeed = InputSeed;
    return runGraphFile(GS.str(), GO, Req.CountFaults, Req.MaxErrors);
  }
  if (!Remote.empty() && FaultFlagsUsed) {
    std::fprintf(stderr,
                 "liftc: --remote cannot be combined with --inject-faults "
                 "or --count-faults; fault arming is process-local (arm "
                 "the daemon via LIFT_FAULT_SEED instead)\n");
    return ExitDiagnostics;
  }

  if (Req.CountFaults)
    fault::countOnly();

  std::ifstream In(File);
  if (!In) {
    std::fprintf(stderr, "liftc: cannot open %s\n", File.c_str());
    return ExitDiagnostics;
  }
  std::stringstream SS;
  SS << In.rdbuf();
  Req.Source = SS.str();

  if (!Remote.empty()) {
    // Remote mode: the daemon runs the identical pipeline; this side
    // only relays its stdout/diagnostics/exit-code triple.
    service::Request WireReq;
    WireReq.Kind = service::Op::Exec;
    WireReq.Exec = Req;
    service::ClientOptions CO;
    CO.SocketPath = Remote;
    DiagnosticEngine Engine(Req.MaxErrors);
    service::Response Resp;
    if (!service::roundTrip(CO, WireReq, Resp, Engine)) {
      flushDiagnostics(Engine);
      return ExitDiagnostics;
    }
    std::fwrite(Resp.Stdout.data(), 1, Resp.Stdout.size(), stdout);
    for (const std::string &D : Resp.Diagnostics)
      std::fprintf(stderr, "liftc: %s\n", D.c_str());
    if (Resp.St == service::Status::BadRequest)
      std::fprintf(stderr, "liftc: error[%s]: daemon rejected the "
                           "request: %s\n",
                   Resp.Code.empty() ? "E0702" : Resp.Code.c_str(),
                   Resp.Message.c_str());
    return Resp.Exit;
  }

  service::ExecOutcome Out = service::execRequest(Req);
  std::fwrite(Out.Stdout.data(), 1, Out.Stdout.size(), stdout);
  for (const std::string &D : Out.Diags)
    std::fprintf(stderr, "liftc: %s\n", D.c_str());
  return Out.Exit;
}

} // namespace

int main(int argc, char **argv) {
  try {
    return run(argc, argv);
  } catch (DiagnosticError &E) {
    // A recoverable diagnostic that escaped a checked boundary: still an
    // input problem, not a crash.
    std::fprintf(stderr, "liftc: %s\n", E.Diag.render().c_str());
    return ExitDiagnostics;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "liftc: internal error: %s\n", E.what());
    return ExitInternal;
  }
}
