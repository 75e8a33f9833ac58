//===- main.cpp - lift-e2e, the end-to-end benchmark ----------------------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
//   lift-e2e --workload sim|native-warm|service --seed N
//            --seconds S --trace 0|1 --work DIR --examples DIR --liftd PATH
//
// Runs one workload for at least S seconds of whole passes and prints, as
// the last line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end metrics; with --trace 1 they are the per-layer metrics, and
// the spans are written as Chrome trace-event JSON into DIR. The
// environment (cores, build type, compilers, seed, thread and connection
// counts) is printed ahead of the result and saved with it in DIR.
// perfbench/README.md defines every workload and metric.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "native/Native.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sched.h>
#include <sstream>
#include <unistd.h>

using namespace perfbench;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

const MetricDef EndToEnd[] = {
    {"setup_s", "s"},
    {"pass_s", "s"},
    {"op_geomean_ms", "ms"},
    {"op_tail_ms", "ms"}};

/// Every workload reports every per-layer metric; 0 where the layer does
/// no work in that workload.
const MetricDef PerLayer[] = {
    {"frontend.parse_ms", "ms"},
    {"ir.typeinfer_ms", "ms"},
    {"codegen.compile_ms", "ms"},
    {"codegen.kernel_bytes", "bytes"},
    {"codegen.barriers_eliminated", "count"},
    {"codegen.loops_simplified", "count"},
    {"ocl.launch_ms", "ms"},
    {"ocl.host_buffers_ms", "ms"},
    {"ocl.cost_units", "count"},
    {"ocl.peak_host_mb", "MB"},
    {"ocl.fig8_rel_geomean", "x"},
    {"native.print_ms", "ms"},
    {"native.toolchain_ms", "ms"},
    {"native.compiles", "count"},
    {"native.load_ms", "ms"},
    {"native.marshal_ms", "ms"},
    {"native.kernel_ms", "ms"},
    {"graph.parse_ms", "ms"},
    {"graph.validate_ms", "ms"},
    {"graph.run_ms", "ms"},
    {"graph.stages_run", "count"},
    {"graph.buffers_recycled", "count"},
    {"graph.buffers_freed", "count"},
    {"graph.peak_host_bytes", "bytes"},
    {"service.roundtrip_ms", "ms"},
    {"service.exec_ms", "ms"},
    {"service.overhead_ms", "ms"},
    {"service.compiles", "count"},
    {"service.dedupe_hit_ratio", "ratio"},
    {"service.shed", "count"},
    {"service.samples", "count"},
    {"trace.pass_ms", "ms"},
    {"trace.overhead_ms", "ms"},
    {"trace.unexplained_ms", "ms"},
};

/// op_tail_ms is this quantile of the distinct operations' best times.
constexpr double TailQ = 0.9;

std::string num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.15g", V);
  return Buf;
}

std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

/// First line of `<compiler> --version`, or "none".
std::string nativeToolchain() {
  const std::string Cxx = lift::native::toolchainCompiler();
  if (Cxx.empty())
    return "none";
  std::string Line = Cxx;
  if (std::FILE *P = ::popen((Cxx + " --version 2>/dev/null").c_str(), "r")) {
    char Buf[256];
    if (std::fgets(Buf, sizeof(Buf), P)) {
      Line = Buf;
      Line.erase(Line.find_last_not_of("\r\n") + 1);
    }
    ::pclose(P);
  }
  return Line;
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "lift-e2e: %s\nusage: lift-e2e --workload "
               "sim|native-warm|service --seed N --seconds S "
               "--trace 0|1 --work DIR --examples DIR --liftd PATH\n",
               Why);
  return 2;
}

} // namespace

void Report::count(bool Ok, const std::string &Why) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Errors.size() < 20)
    Errors.push_back(Why);
}

bool Report::anotherSetup() const {
  double Ms = 0;
  for (double S : SetupMs)
    Ms += S;
  return SetupMs.size() < 3 || (SetupMs.size() < 15 && Ms < 2000);
}

bool perfbench::readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::stringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

double perfbench::median(std::vector<double> V) { return percentile(V, 0.5); }

double perfbench::percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * double(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

int main(int argc, char **argv) {
  Options O;
  std::map<std::string, std::string> Args;
  for (int I = 1; I < argc; I += 2) {
    if (I + 1 >= argc || std::strncmp(argv[I], "--", 2) != 0)
      return usage("malformed arguments");
    Args[argv[I] + 2] = argv[I + 1];
  }
  for (const char *K :
       {"workload", "seed", "seconds", "trace", "work", "examples", "liftd"})
    if (!Args.count(K))
      return usage((std::string("missing --") + K).c_str());
  O.Workload = Args["workload"];
  if (O.Workload != "sim" && O.Workload != "native-warm" &&
      O.Workload != "service")
    return usage("unknown workload");
  char *End = nullptr;
  O.Seed = std::strtoull(Args["seed"].c_str(), &End, 10);
  if (*End)
    return usage("--seed needs a whole number");
  O.Seconds = std::strtod(Args["seconds"].c_str(), &End);
  if (*End || !(O.Seconds > 0))
    return usage("--seconds needs a positive number");
  if (Args["trace"] != "0" && Args["trace"] != "1")
    return usage("--trace needs 0 or 1");
  O.Trace = Args["trace"] == "1";
  O.WorkDir = Args["work"];
  O.ExamplesDir = Args["examples"];
  O.Liftd = Args["liftd"];

  // Every count is pinned to one. A launch over several threads waits for
  // the slowest, so on a shared host any other tenant's load stalls it,
  // and the spread between runs grows with the thread count.
  //
  // The benchmark and every process it starts (liftd, the system
  // compiler) share the core it started on. Nothing it measures runs two
  // things at once, and a hand-off between processes is then a local
  // context switch: on a virtual machine a wake-up on another core is a
  // trip through the hypervisor whose cost moves with other tenants' load.
  const long Cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  const int Core = ::sched_getcpu();
  bool Pinned = false;
  if (Core >= 0) {
    cpu_set_t Set;
    CPU_ZERO(&Set);
    CPU_SET(Core, &Set);
    Pinned = ::sched_setaffinity(0, sizeof(Set), &Set) == 0;
  }
  if (!Pinned)
    std::fprintf(stderr, "lift-e2e: cannot pin to one core; running unpinned\n");
  O.Res.SimThreads = 1;
  O.Res.NativeThreads = 1;
  O.Res.DaemonWorkers = 1;
  O.Res.Connections = 1;

  const std::string Env =
      "{\"workload\": " + quoted(O.Workload) +
      ", \"seed\": " + std::to_string(O.Seed) +
      ", \"seconds\": " + num(O.Seconds) + ", \"trace\": " +
      (O.Trace ? "1" : "0") + ", \"nproc\": " + std::to_string(Cpus) +
      ", \"pinned_core\": " + std::to_string(Pinned ? Core : -1) +
      ", \"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
      ", \"cxx\": " + quoted(PERFBENCH_CXX) +
      ", \"native_cxx\": " + quoted(nativeToolchain()) +
      ", \"sim_threads\": " + std::to_string(O.Res.SimThreads) +
      ", \"native_threads\": " + std::to_string(O.Res.NativeThreads) +
      ", \"daemon_workers\": " + std::to_string(O.Res.DaemonWorkers) +
      ", \"connections\": " + std::to_string(O.Res.Connections) + "}";
  std::printf("env: %s\n", Env.c_str());
  std::fflush(stdout);

  Tracer T;
  Report R;
  const bool SetUp = O.Workload == "service" ? runServiceWorkload(O, T, R)
                                             : runSuiteWorkload(O, T, R);
  for (const std::string &E : R.Errors)
    std::fprintf(stderr, "lift-e2e: FAILED %s\n", E.c_str());
  if (!SetUp) {
    std::fprintf(stderr, "lift-e2e: set-up failed; no result\n");
    return 1;
  }

  std::vector<std::pair<const MetricDef *, double>> Values;
  if (!O.Trace) {
    // Other tenants of a shared host only ever add time, in bursts of a
    // few seconds that do not average out within a run, so each distinct
    // operation is taken at its fastest repetition (README.md).
    std::map<unsigned, double> Best;
    for (size_t I = 0; I != R.OpMs.size(); ++I) {
      double &Ms = Best.try_emplace(R.OpKind[I], R.OpMs[I]).first->second;
      Ms = std::min(Ms, R.OpMs[I]);
    }
    double BestOpsMs = 0; // every timed operation at its best time
    for (unsigned Kind : R.OpKind)
      BestOpsMs += Best[Kind];
    std::vector<double> BestMs;
    double LogSum = 0;
    for (const auto &[Kind, Ms] : Best) {
      BestMs.push_back(Ms);
      LogSum += std::log(Ms);
    }
    R.Notes.push_back(
        "operations: " + std::to_string(R.OpMs.size()) + " timed in " +
        std::to_string(R.PassMs.size()) + " passes, " +
        std::to_string(BestMs.size()) + " distinct, each at its fastest; "
        "op_tail_ms is p" + num(100 * TailQ) + " of those; wall-clock pass "
        "median " + num(median(R.PassMs) / 1000) + " s; " +
        std::to_string(R.SetupMs.size()) + " set-ups, " +
        num(percentile(R.SetupMs, 0) / 1000) + " to " +
        num(percentile(R.SetupMs, 1) / 1000) + " s");
    const double V[] = {median(R.SetupMs) / 1000,
                        BestOpsMs / double(R.PassMs.size()) / 1000,
                        std::exp(LogSum / double(BestMs.size())),
                        percentile(BestMs, TailQ)};
    for (size_t I = 0; I != std::size(EndToEnd); ++I)
      Values.push_back({&EndToEnd[I], V[I]});
  } else {
    for (const MetricDef &M : PerLayer) {
      auto It = R.Layer.find(M.Name);
      Values.push_back({&M, It == R.Layer.end() ? 0 : It->second});
    }
    const std::string Path =
        O.WorkDir + "/trace-seed" + std::to_string(O.Seed) + ".json";
    if (T.writeChromeJson(Path))
      R.Notes.push_back("trace written to " + Path);
  }
  for (const std::string &N : R.Notes)
    std::printf("note: %s\n", N.c_str());

  std::string Metrics;
  for (const auto &[M, V] : Values)
    Metrics += std::string(Metrics.empty() ? "" : ", ") + quoted(M->Name) +
               ": {\"value\": " + num(V) + ", \"unit\": " + quoted(M->Unit) +
               "}";
  const std::string Result =
      std::string("{\"correct\": ") + (R.Failed == 0 ? "true" : "false") +
      ", \"attempted\": " + std::to_string(R.Attempted) +
      ", \"failed\": " + std::to_string(R.Failed) + ", \"metrics\": {" +
      Metrics + "}}";
  std::ofstream(O.WorkDir + "/result-seed" + std::to_string(O.Seed) +
                "-trace" + (O.Trace ? "1" : "0") + ".json")
      << "{\"env\": " << Env << ", \"result\": " << Result << "}\n";
  std::printf("%s\n", Result.c_str());
  return 0;
}
