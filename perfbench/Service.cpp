//===- Service.cpp - The service workload ---------------------------------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// A local liftd (built from tools/liftd.cpp) driven in a closed loop by a
// fixed number of connections: each connection sends its next request only
// after the reply to the previous one, the way liftc --remote and lift-tune
// use the daemon. Three requests in four repeat a small fixed program set
// and hit the daemon's dedupe cache; the fourth carries a seeded source the
// daemon has never seen, so it is parsed, verified, compiled and written to
// the artifact store. A pass is a fixed batch of requests.
//
// Every reply is checked after the window against an in-process
// service::execRequest of the same request under the daemon's execution
// context: exit code, stdout and diagnostics must be bit-identical. A shed,
// refused or failed request counts as failed and keeps its latency sample.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "frontend/ILParser.h"
#include "ir/TypeInference.h"
#include "service/Client.h"
#include "service/Exec.h"

#include <atomic>
#include <csignal>
#include <fcntl.h>
#include <filesystem>
#include <memory>
#include <random>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace lift;
using namespace perfbench;
namespace fs = std::filesystem;

namespace {

/// Requests per pass; one in four is novel.
constexpr uint64_t BatchSize = 96;

const char *const ScaleIl = "def tri(x: float): float = \"return 3.0f * x + "
                            "1.0f;\"\n\nfun(x: [float]N) =>\n  mapGlb0(tri)(x)\n";
const char *const AxpyIl =
    "def axpy(t: (float, float)): float = \"return 2.0f * t._0 + t._1;\"\n\n"
    "fun(x: [float]N, y: [float]N) =>\n  mapGlb0(axpy)(zip(x, y))\n";

service::ExecRequest runRequest(std::string Source, int64_t N, int64_t Global,
                                int64_t Local) {
  service::ExecRequest E;
  E.Source = std::move(Source);
  E.Run = true;
  E.Opts.GlobalSize = {Global, 1, 1};
  E.Opts.LocalSize = {Local, 1, 1};
  E.Opts.Threads = 1;
  E.Sizes["N"] = N;
  return E;
}

/// The execution context liftd builds for the flags the benchmark starts
/// it with, so in-process runs clamp exactly as the daemon does.
service::ExecContext daemonContext() {
  service::ExecContext Ctx;
  Ctx.MaxThreads = 1;
  Ctx.MaxHostBufferBytes = 256ull << 20;
  return Ctx;
}

/// The request sequence of one run.
struct Mix {
  uint64_t Seed = 1;
  std::vector<service::ExecRequest> Repeated;
  /// Compile products of the repeated requests, as the daemon caches them.
  std::vector<std::shared_ptr<service::CompileProduct>> Products;
  std::vector<service::ExecOutcome> Expected;

  uint64_t draw(uint64_t Salt) const {
    std::mt19937_64 Rng(Seed * 0x9E3779B97F4A7C15ull ^ Salt);
    return Rng();
  }
  /// Exactly one request per block of four is novel, at a seeded slot.
  bool novel(uint64_t I) const { return I % 4 == draw(2 * (I / 4)) % 4; }
  size_t repeated(uint64_t I) const {
    return draw(2 * I + 1) % Repeated.size();
  }
  /// A uniquely named user function with seeded constants, in one of two
  /// program shapes.
  service::ExecRequest novelRequest(uint64_t I) const {
    const uint64_t R = draw(~I);
    const std::string Fn = "u" + std::to_string(Seed) + "_" + std::to_string(I);
    const std::string A = std::to_string(1 + R % 9) + ".0f";
    const std::string B = "0." + std::to_string(R / 9 % 1000) + "f";
    if (I % 2 == 0)
      return runRequest("def " + Fn + "(x: float): float = \"return " + A +
                            " * x + " + B + ";\"\n\nfun(x: [float]N) =>\n"
                            "  mapGlb0(" + Fn + ")(x)\n",
                        256, 64, 16);
    return runRequest("def " + Fn + "(t: (float, float)): float = \"return " +
                          A + " * t._0 - " + B + " * t._1;\"\n\n"
                          "fun(x: [float]N, y: [float]N) =>\n"
                          "  mapGlb0(" + Fn + ")(zip(x, y))\n",
                      512, 128, 32);
  }
  service::ExecRequest at(uint64_t I) const {
    return novel(I) ? novelRequest(I) : Repeated[repeated(I)];
  }
};

bool sameOutcome(const service::Response &R, const service::ExecOutcome &X) {
  return R.St == service::Status::Ok && R.Exit == X.Exit &&
         R.Stdout == X.Stdout && R.Diagnostics == X.Diags;
}

/// A liftd child process. The child gets SIGTERM if this process dies, so
/// no daemon outlives a crashed run.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { stop(); }

  service::ClientOptions Client;

  bool start(const Options &O, const std::string &Dir, std::string &Err) {
    Client.SocketPath = Dir + "/liftd.sock";
    Client.TimeoutMs = 30000;
    const std::vector<std::string> Args = {
        O.Liftd,
        "--socket", Client.SocketPath,
        "--max-inflight", std::to_string(O.Res.DaemonWorkers),
        "--queue-depth", "16",
        "--max-threads", "1",
        "--artifact-dir", Dir + "/artifacts"};
    std::vector<char *> Argv;
    for (const std::string &A : Args)
      Argv.push_back(const_cast<char *>(A.c_str()));
    Argv.push_back(nullptr);
    const std::string Log = Dir + "/liftd.log";
    const int LogFd = ::open(Log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (LogFd < 0) {
      Err = "cannot create " + Log;
      return false;
    }
    Pid = ::fork();
    if (Pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGTERM);
      ::dup2(LogFd, 1);
      ::dup2(LogFd, 2);
      ::execv(Argv[0], Argv.data());
      ::_exit(127);
    }
    ::close(LogFd);
    if (Pid < 0) {
      Err = "fork failed";
      return false;
    }
    // Ready once it answers a ping.
    const Clock::time_point T0 = Clock::now();
    while (msSince(T0) < 10000) {
      try {
        service::Request Ping;
        Ping.Kind = service::Op::Ping;
        service::roundTripOnce(Client, Ping);
        return true;
      } catch (const DiagnosticError &) {
      }
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        Err = "liftd exited during start-up (see " + Log + ")";
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Err = "liftd did not answer within 10 s (see " + Log + ")";
    return false;
  }

  /// SIGTERM (an idle daemon drains at once), then wait for it to exit.
  void stop() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGTERM);
    const Clock::time_point T0 = Clock::now();
    int Status = 0;
    while (::waitpid(Pid, &Status, WNOHANG) == 0) {
      if (msSince(T0) > 5000) {
        ::kill(Pid, SIGKILL);
        ::waitpid(Pid, &Status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    Pid = -1;
  }

  std::map<std::string, int64_t> stats() const {
    service::Request Q;
    Q.Kind = service::Op::Stats;
    std::map<std::string, int64_t> M;
    for (const auto &[K, V] : service::roundTripOnce(Client, Q).Stats)
      M[K] = V;
    return M;
  }

private:
  pid_t Pid = -1;
};

struct Sample {
  uint64_t Index = 0;
  double Ms = 0;
  bool Answered = false;
  std::string Error;
  service::Response Resp;
};

/// Starts a fresh daemon and builds the request mix; the repeated programs
/// are sent once so the measured window finds them in the dedupe cache.
bool setup(const Options &O, Daemon &D, Mix &M, Report &R) {
  const std::string Dir = O.WorkDir + "/daemon";
  fs::create_directories(Dir);
  std::string Err;
  if (!D.start(O, Dir, Err)) {
    R.count(false, "set-up: " + Err);
    return false;
  }

  std::string Square, Dot;
  if (!readFile(O.ExamplesDir + "/il/square.lift", Square) ||
      !readFile(O.ExamplesDir + "/il/dot.lift", Dot)) {
    R.count(false, "set-up: cannot read " + O.ExamplesDir + "/il");
    return false;
  }
  M = Mix();
  M.Seed = O.Seed;
  M.Repeated = {runRequest(Square, 256, 64, 16),
                runRequest(Square, 1024, 256, 64),
                runRequest(Dot, 1024, 512, 64),
                runRequest(ScaleIl, 512, 128, 32),
                runRequest(AxpyIl, 1024, 256, 64)};
  const service::ExecContext Ctx = daemonContext();
  for (const service::ExecRequest &E : M.Repeated) {
    M.Products.push_back(service::compileRequest(E));
    M.Expected.push_back(service::execRequest(E, Ctx, M.Products.back().get()));
    service::Request Q;
    Q.Exec = E;
    bool Same = false;
    try {
      Same = sameOutcome(service::roundTripOnce(D.Client, Q),
                         M.Expected.back());
    } catch (const DiagnosticError &X) {
      Err = X.what();
    }
    if (M.Expected.back().Exit != 0 || !Same) {
      R.count(false, "set-up: warming a repeated program failed " + Err);
      return false;
    }
  }
  return true;
}

/// Sends requests [Begin, Begin + BatchSize) over the connections and
/// returns the batch's wall-clock in ms.
double runBatch(const Options &O, const Daemon &D, const Mix &M, Tracer &T,
                uint64_t Begin, std::vector<Sample> &Out) {
  std::vector<Sample> Batch(BatchSize);
  std::atomic<uint64_t> Next{0};
  const Clock::time_point T0 = Clock::now();
  std::vector<std::thread> Conns;
  for (int C = 0; C < O.Res.Connections; ++C)
    Conns.emplace_back([&] {
      for (uint64_t K; (K = Next++) < BatchSize;) {
        Sample &S = Batch[K];
        S.Index = Begin + K;
        service::Request Q;
        Q.Exec = M.at(S.Index);
        Scope Sp(T, "service.roundtrip");
        const Clock::time_point R0 = Clock::now();
        try {
          S.Resp = service::roundTripOnce(D.Client, Q);
          S.Answered = true;
        } catch (const DiagnosticError &X) {
          S.Error = X.what();
        }
        S.Ms = msSince(R0);
      }
    });
  for (std::thread &Th : Conns)
    Th.join();
  const double Ms = msSince(T0);
  for (Sample &S : Batch)
    Out.push_back(std::move(S));
  return Ms;
}

} // namespace

bool perfbench::runServiceWorkload(const Options &O, Tracer &T, Report &R) {
  fs::create_directories(O.WorkDir);
  Daemon D;
  Mix M;
  do {
    // Tear the previous set-up down, untimed. Flushing the file system
    // afterwards keeps the deletion's write-back out of what follows: a
    // novel request writes its artifact files, and their latency varied
    // 3x between runs while an earlier run's deletions were in flight.
    D.stop();
    fs::remove_all(O.WorkDir + "/daemon");
    ::sync();
    const Clock::time_point T0 = Clock::now();
    if (!setup(O, D, M, R))
      return false;
    R.SetupMs.push_back(msSince(T0));
  } while (!O.Trace && R.anotherSetup());

  std::map<std::string, int64_t> Before, After;
  try {
    Before = D.stats();
  } catch (const DiagnosticError &X) {
    R.count(false, std::string("stats: ") + X.what());
    return false;
  }

  // The window: whole batches until the time is up. A traced run
  // alternates untraced and traced batches.
  std::vector<Sample> Samples;
  std::vector<double> TracedMs, UntracedMs, Busy;
  const Clock::time_point W0 = Clock::now();
  uint64_t Batches = 0;
  for (; Batches < 2 || msSince(W0) < O.Seconds * 1000; ++Batches) {
    const bool Traced = O.Trace && Batches % 2 == 1;
    T.On = Traced;
    const size_t From = T.size(), First = Samples.size();
    const double Ms = runBatch(O, D, M, T, Batches * BatchSize, Samples);
    T.On = false;
    if (Traced) {
      TracedMs.push_back(Ms);
      const std::map<std::string, double> Self = T.selfMs(From, T.size());
      auto It = Self.find("service.roundtrip");
      Busy.push_back((It == Self.end() ? 0 : It->second) /
                     O.Res.Connections);
    } else {
      UntracedMs.push_back(Ms);
      for (size_t I = First; I != Samples.size(); ++I) {
        // Kinds: the repeated programs, then the two novel shapes.
        const uint64_t Idx = Samples[I].Index;
        R.OpMs.push_back(Samples[I].Ms);
        R.OpKind.push_back(unsigned(M.novel(Idx) ? M.Repeated.size() + Idx % 2
                                                 : M.repeated(Idx)));
      }
      R.PassMs.push_back(Ms);
    }
  }

  uint64_t Novel = 0;
  for (const Sample &S : Samples)
    Novel += M.novel(S.Index);
  try {
    After = D.stats();
  } catch (const DiagnosticError &X) {
    R.count(false, std::string("stats: ") + X.what());
    return false;
  }
  D.stop();
  fs::remove_all(O.WorkDir + "/daemon");

  // Check every reply against an in-process run of the same request:
  // repeated programs against the outcome recorded at set-up (traced runs
  // re-execute them to time the executor), novel ones compile afresh.
  const service::ExecContext Ctx = daemonContext();
  std::vector<double> ExecMs, RoundTripMs;
  const size_t TraceFrom = T.size();
  T.On = O.Trace;
  for (const Sample &S : Samples) {
    RoundTripMs.push_back(S.Ms);
    if (!S.Answered) {
      R.count(false, "request " + std::to_string(S.Index) + ": " + S.Error);
      continue;
    }
    const bool IsNovel = M.novel(S.Index);
    service::ExecOutcome X;
    if (IsNovel || O.Trace) {
      const service::ExecRequest E = M.at(S.Index);
      if (O.Trace && IsNovel) {
        // The daemon's compile stage, layer by layer (traced runs only).
        DiagnosticEngine Eng;
        Expected<frontend::ParsedProgram> PP;
        {
          Scope Sp(T, "frontend.parse");
          PP = frontend::parseILChecked(E.Source, Eng);
        }
        if (PP) {
          {
            Scope Sp(T, "ir.typeinfer");
            ir::inferProgramTypes(PP->Program);
          }
          Scope Sp(T, "codegen.compile");
          (void)codegen::compileChecked(PP->Program, E.Opts, Eng);
        }
      }
      const Clock::time_point E0 = Clock::now();
      {
        Scope Sp(T, "service.exec");
        X = IsNovel ? service::execRequest(E, Ctx)
                    : service::execRequest(
                          E, Ctx, M.Products[M.repeated(S.Index)].get());
      }
      ExecMs.push_back(msSince(E0));
    } else {
      X = M.Expected[M.repeated(S.Index)];
    }
    R.count(sameOutcome(S.Resp, X),
            "request " + std::to_string(S.Index) +
                ": the daemon's reply differs from an in-process run");
  }
  T.On = false;

  auto Delta = [&](const char *K) { return double(After[K] - Before[K]); };
  R.count(Delta("compiles") == double(Novel),
          "the daemon compiled " + std::to_string(int64_t(Delta("compiles"))) +
              " programs for " + std::to_string(Novel) +
              " novel requests; every other request must hit the dedupe "
              "cache");
  R.Notes.push_back("service: " + std::to_string(Samples.size()) +
                    " requests in " + std::to_string(Batches) +
                    " batches of " + std::to_string(BatchSize) + " (" +
                    std::to_string(Novel) + " novel)");
  if (!O.Trace)
    return true;

  const std::map<std::string, double> Verify = T.selfMs(TraceFrom, T.size());
  auto PerBatch = [&](const char *Span) {
    auto It = Verify.find(Span);
    return It == Verify.end() ? 0 : It->second / double(Batches);
  };
  std::map<std::string, double> &L = R.Layer;
  L["frontend.parse_ms"] = PerBatch("frontend.parse");
  L["ir.typeinfer_ms"] = PerBatch("ir.typeinfer");
  L["codegen.compile_ms"] = PerBatch("codegen.compile");
  L["service.roundtrip_ms"] = median(RoundTripMs);
  L["service.exec_ms"] = median(ExecMs);
  L["service.overhead_ms"] = median(RoundTripMs) - median(ExecMs);
  L["service.compiles"] = Delta("compiles") / double(Batches);
  const double Execs =
      Delta("exec_ok") + Delta("exec_diag") + Delta("exec_internal");
  L["service.dedupe_hit_ratio"] = Execs > 0 ? Delta("dedupe_hits") / Execs : 0;
  L["service.shed"] = Delta("shed");
  L["service.samples"] = double(Samples.size());
  L["trace.pass_ms"] = median(TracedMs);
  L["trace.overhead_ms"] = median(TracedMs) - median(UntracedMs);
  L["trace.unexplained_ms"] = median(TracedMs) - median(Busy);
  R.Notes.push_back(
      "accounting: traced batch " + std::to_string(L["trace.pass_ms"]) +
      " ms = round-trip time per connection " + std::to_string(median(Busy)) +
      " ms + unexplained " + std::to_string(L["trace.unexplained_ms"]) +
      " ms; tracing overhead " + std::to_string(L["trace.overhead_ms"]) +
      " ms per batch");
  R.Notes.push_back(
      "service: frontend/ir/codegen times are in-process runs of the novel "
      "requests' compile stage, per batch; the daemon does that work inside "
      "service.roundtrip");
  return true;
}
