//===- ServiceTest.cpp - liftd daemon end-to-end tests -------------------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// End-to-end coverage of the liftd compile-and-run service
// (docs/SERVICE.md): admission control and deterministic E0701 shedding,
// request isolation (responses bit-identical to solo liftc runs at any
// worker count, failing neighbors contained), cancellation when a client
// disconnects mid-request, content-addressed dedupe with single-flight
// collapsing, kill -9 crash recovery through hash-verified artifacts,
// graceful SIGTERM drain, and the four service fault-injection sites
// (accept / request read / request write / queue admit) swept one-shot
// (the client's retry makes them invisible) and always-on (bounded clean
// failure, never a hang or abort).
//
// Most tests run the Server in-process so counters can be asserted
// directly; the crash-recovery test fork/execs the real liftd binary so
// kill -9 kills a real process.
//
//===----------------------------------------------------------------------===//

#include "service/Client.h"
#include "service/Server.h"
#include "support/FaultInject.h"
#include "support/FileLock.h"
#include "support/Retry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace lift;
using namespace lift::service;

namespace {

//===----------------------------------------------------------------------===//
// Test scaffolding
//===----------------------------------------------------------------------===//

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << Path;
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::string exampleSource(const char *Name) {
  return readFile(std::string(LIFT_EXAMPLES_DIR) + "/" + Name);
}

/// Unique scratch directory, removed on destruction.
struct TempDir {
  std::string Path;
  TempDir() {
    char Buf[] = "/tmp/lift-service-test-XXXXXX";
    Path = ::mkdtemp(Buf);
  }
  ~TempDir() {
    std::string Cmd = "rm -rf '" + Path + "'";
    if (std::system(Cmd.c_str()) != 0) {
    }
  }
  std::string file(const std::string &Name) const { return Path + "/" + Name; }
};

/// In-process daemon with the test-friendly defaults.
struct TestServer {
  TempDir Dir;
  ServerOptions Opts;
  std::unique_ptr<Server> S;

  explicit TestServer(int Workers = 2, int QueueDepth = 16) {
    Opts.SocketPath = Dir.file("liftd.sock");
    Opts.Workers = Workers;
    Opts.QueueDepth = QueueDepth;
    Opts.RetryAfterMs = 1;
  }

  bool start() {
    S = std::make_unique<Server>(Opts);
    std::string Err;
    bool Ok = S->start(Err);
    EXPECT_TRUE(Ok) << Err;
    return Ok;
  }

  ClientOptions client() const {
    ClientOptions C;
    C.SocketPath = Opts.SocketPath;
    C.TimeoutMs = 120000; // tests under sanitizers can be slow
    return C;
  }

  ~TestServer() {
    if (S) {
      S->requestShutdown();
      S->wait();
    }
  }
};

Request execRequestFor(const std::string &Source, int64_t N,
                       bool Run = true) {
  Request R;
  R.Kind = Op::Exec;
  R.Exec.Source = Source;
  R.Exec.Run = Run;
  R.Exec.Opts.GlobalSize = {512, 1, 1};
  R.Exec.Opts.LocalSize = {64, 1, 1};
  R.Exec.Sizes["N"] = N;
  return R;
}

/// Tight retry policy so always-on faults fail fast instead of sleeping
/// through the default backoff.
struct RetryEnv {
  RetryEnv(const char *Attempts, const char *BaseUs) {
    ::setenv("LIFT_RETRY_ATTEMPTS", Attempts, 1);
    ::setenv("LIFT_RETRY_BASE_US", BaseUs, 1);
  }
  ~RetryEnv() {
    ::unsetenv("LIFT_RETRY_ATTEMPTS");
    ::unsetenv("LIFT_RETRY_BASE_US");
  }
};

/// Polls \p Pred every millisecond until it holds or \p DeadlineMs passes.
bool waitFor(const std::function<bool()> &Pred, int64_t DeadlineMs = 20000) {
  auto End =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(DeadlineMs);
  while (std::chrono::steady_clock::now() < End) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Pred();
}

/// Raw client socket for the tests that need to misbehave (disconnect
/// mid-request, send garbage frames).
int rawConnect(const std::string &SocketPath) {
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool rawSendLine(int Fd, std::string Line) {
  Line += '\n';
  size_t Sent = 0;
  while (Sent < Line.size()) {
    ssize_t N = ::send(Fd, Line.data() + Sent, Line.size() - Sent,
                       MSG_NOSIGNAL);
    if (N <= 0)
      return false;
    Sent += static_cast<size_t>(N);
  }
  return true;
}

std::string rawRecvLine(int Fd) {
  std::string Reply;
  char Buf[65536];
  for (;;) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N <= 0)
      return Reply;
    Reply.append(Buf, static_cast<size_t>(N));
    size_t Nl = Reply.find('\n');
    if (Nl != std::string::npos) {
      Reply.resize(Nl);
      return Reply;
    }
  }
}

int64_t statValue(const Response &R, const std::string &Key) {
  for (const auto &KV : R.Stats)
    if (KV.first == Key)
      return KV.second;
  return -1;
}

//===----------------------------------------------------------------------===//
// Protocol basics
//===----------------------------------------------------------------------===//

TEST(ServiceTest, PingStatsAndShutdown) {
  TestServer T;
  ASSERT_TRUE(T.start());

  Request Ping;
  Ping.Kind = Op::Ping;
  Response R = roundTripOnce(T.client(), Ping);
  EXPECT_EQ(R.St, Status::Ok);
  EXPECT_EQ(R.Message, "pong");

  Request Stats;
  Stats.Kind = Op::Stats;
  R = roundTripOnce(T.client(), Stats);
  EXPECT_EQ(R.St, Status::Ok);
  EXPECT_EQ(statValue(R, "workers"), 2);
  EXPECT_EQ(statValue(R, "requests"), 2);
  EXPECT_EQ(statValue(R, "shed"), 0);

  Request Down;
  Down.Kind = Op::Shutdown;
  R = roundTripOnce(T.client(), Down);
  EXPECT_EQ(R.St, Status::Ok);
  T.S->wait();

  // Once drained the socket is gone: connecting is a clean E0706.
  EXPECT_THROW(roundTripOnce(T.client(), Ping), DiagnosticError);
  T.S.reset(); // already drained; skip the destructor's second shutdown
}

TEST(ServiceTest, MalformedAndOversizedFramesAnswerE0702) {
  TestServer T;
  T.Opts.MaxRequestBytes = 2048;
  ASSERT_TRUE(T.start());

  int Fd = rawConnect(T.Opts.SocketPath);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(rawSendLine(Fd, "this is not json"));
  std::string Reply = rawRecvLine(Fd);
  ::close(Fd);
  Response R;
  std::string Err;
  ASSERT_TRUE(parseResponse(Reply, R, Err)) << Err;
  EXPECT_EQ(R.St, Status::BadRequest);
  EXPECT_EQ(R.Code, "E0702");
  EXPECT_EQ(R.Exit, 1);

  // A frame past --max-request-bytes is rejected without buffering it.
  Fd = rawConnect(T.Opts.SocketPath);
  ASSERT_GE(Fd, 0);
  std::string Big(4096, 'x');
  ASSERT_TRUE(rawSendLine(Fd, Big));
  Reply = rawRecvLine(Fd);
  ::close(Fd);
  ASSERT_TRUE(parseResponse(Reply, R, Err)) << Err;
  EXPECT_EQ(R.St, Status::BadRequest);
  EXPECT_EQ(R.Code, "E0702");

  ServerStats St = T.S->stats();
  EXPECT_EQ(St.BadRequest, 2);
}

//===----------------------------------------------------------------------===//
// Request isolation: bit-identical to solo runs, at any worker count
//===----------------------------------------------------------------------===//

TEST(ServiceTest, ResponsesBitIdenticalToSoloAcrossWorkerCounts) {
  // A mixed workload: two healthy programs at different sizes and flag
  // sets, one program that fails to parse, and one that trips a runtime
  // limit. Every response must match the solo pipeline byte for byte --
  // stdout, rendered diagnostics and exit code -- no matter how many
  // worker threads the daemon multiplexes them onto.
  std::string Square = exampleSource("square.lift");
  std::string Dot = exampleSource("dot.lift");

  std::vector<Request> Work;
  Work.push_back(execRequestFor(Square, 64));
  Work.back().Exec.PrintIl = true;
  Work.push_back(execRequestFor(Square, 4096));
  Work.back().Exec.Opts.CheckRaces = true;
  Work.push_back(execRequestFor(Dot, 1024));
  Work.push_back(execRequestFor(Dot, 1 << 15));
  Work.back().Exec.Opts.CheckMemory = true;
  Work.push_back(execRequestFor("fun(x: [float]N) => nonsense(x)", 64));
  Work.push_back(execRequestFor(Dot, 1024));
  Work.back().Exec.Opts.MaxSteps = 100; // trips E0510 at run time
  Work.push_back(execRequestFor(Square, 64, /*Run=*/false));

  // Solo baselines through the very same pipeline entry point liftc uses.
  std::vector<ExecOutcome> Solo;
  for (const Request &R : Work)
    Solo.push_back(execRequest(R.Exec));
  ASSERT_EQ(Solo[0].Exit, 0);
  ASSERT_EQ(Solo[4].Exit, 1) << "parse failure baseline";
  ASSERT_EQ(Solo[5].Exit, 1) << "step-limit baseline";

  for (int Workers : {1, 2, 8}) {
    TestServer T(Workers);
    ASSERT_TRUE(T.start());
    std::vector<Response> Got(Work.size());
    std::vector<std::thread> Threads;
    for (size_t I = 0; I < Work.size(); ++I)
      Threads.emplace_back([&, I] {
        Got[I] = roundTripOnce(T.client(), Work[I]);
      });
    for (std::thread &Th : Threads)
      Th.join();

    for (size_t I = 0; I < Work.size(); ++I) {
      std::string What =
          "request " + std::to_string(I) + " at " + std::to_string(Workers) +
          " workers";
      EXPECT_EQ(Got[I].St, Status::Ok) << What;
      EXPECT_EQ(Got[I].Exit, Solo[I].Exit) << What;
      EXPECT_EQ(Got[I].Stdout, Solo[I].Stdout) << What;
      EXPECT_EQ(Got[I].Diagnostics, Solo[I].Diags) << What;
    }
    ServerStats St = T.S->stats();
    EXPECT_EQ(St.Shed, 0);
    EXPECT_EQ(St.ExecInternal, 0);
  }
}

//===----------------------------------------------------------------------===//
// Admission control
//===----------------------------------------------------------------------===//

TEST(ServiceTest, OverloadShedsDeterministicallyWithRetryHint) {
  // One worker, zero queue: once a request occupies the worker, the very
  // next exec is shed with E0701 -- deterministically, not probabilistically.
  TestServer T(/*Workers=*/1, /*QueueDepth=*/0);
  T.Opts.RetryAfterMs = 7;
  ASSERT_TRUE(T.start());

  // Occupy the worker from a raw socket with a deliberately huge run;
  // closing the socket later cancels it, so the test never waits for it.
  std::string Dot = exampleSource("dot.lift");
  Request Long = execRequestFor(Dot, 1 << 23);
  int LongFd = rawConnect(T.Opts.SocketPath);
  ASSERT_GE(LongFd, 0);
  ASSERT_TRUE(rawSendLine(LongFd, encodeRequest(Long)));
  ASSERT_TRUE(waitFor([&] { return T.S->stats().Active == 1; }));

  // Deterministic shed, carrying the daemon's backoff hint.
  Request Small = execRequestFor(exampleSource("square.lift"), 64);
  try {
    roundTripOnce(T.client(), Small);
    FAIL() << "expected E0701";
  } catch (DiagnosticError &E) {
    EXPECT_EQ(E.Diag.Code, DiagCode::ServiceOverloaded);
    EXPECT_EQ(E.Diag.Notes.size(), 1u);
    EXPECT_NE(E.Diag.Notes[0].find("7 ms"), std::string::npos)
        << E.Diag.Notes[0];
  }
  EXPECT_GE(T.S->stats().Shed, 1);

  // Ping and stats are control-plane: never shed.
  Request Ping;
  Ping.Kind = Op::Ping;
  EXPECT_EQ(roundTripOnce(T.client(), Ping).St, Status::Ok);

  // Free the worker by abandoning the long request; the daemon cancels
  // it cooperatively (E0516) and the retry loop then gets through.
  ::close(LongFd);
  ASSERT_TRUE(waitFor([&] { return T.S->stats().Active == 0; }));
  RetryEnv Env("10", "2000");
  DiagnosticEngine Engine(20);
  Response Resp;
  ASSERT_TRUE(roundTrip(T.client(), Small, Resp, Engine));
  EXPECT_EQ(Resp.Exit, 0);
  EXPECT_EQ(T.S->stats().Cancelled, 1);
}

TEST(ServiceTest, ServerCeilingsClampRequestLimits) {
  // The daemon's --max-steps ceiling applies even when the request asks
  // for more (or for no limit at all).
  TestServer T(1, 4);
  T.Opts.MaxSteps = 1000;
  ASSERT_TRUE(T.start());

  Request R = execRequestFor(exampleSource("dot.lift"), 1 << 15);
  R.Exec.Opts.MaxSteps = 0; // "unlimited", says the client
  Response Resp = roundTripOnce(T.client(), R);
  EXPECT_EQ(Resp.St, Status::Ok);
  EXPECT_EQ(Resp.Exit, 1);
  ASSERT_FALSE(Resp.Diagnostics.empty());
  EXPECT_NE(Resp.Diagnostics[0].find("E0510"), std::string::npos)
      << Resp.Diagnostics[0];
}

//===----------------------------------------------------------------------===//
// Cancellation
//===----------------------------------------------------------------------===//

TEST(ServiceTest, DisconnectedClientCancelsItsRequest) {
  TestServer T(1, 4);
  ASSERT_TRUE(T.start());

  Request Long = execRequestFor(exampleSource("dot.lift"), 1 << 23);
  int Fd = rawConnect(T.Opts.SocketPath);
  ASSERT_GE(Fd, 0);
  ASSERT_TRUE(rawSendLine(Fd, encodeRequest(Long)));
  ASSERT_TRUE(waitFor([&] { return T.S->stats().Active == 1; }));
  ::close(Fd);

  // The interpreter honors the cancellation token within one tick
  // interval; the worker frees up long before the run would finish.
  ASSERT_TRUE(waitFor([&] {
    ServerStats St = T.S->stats();
    return St.Active == 0 && St.Cancelled == 1;
  }));

  // The daemon is healthy afterwards: a normal request sails through.
  Response Resp =
      roundTripOnce(T.client(), execRequestFor(exampleSource("square.lift"),
                                               64));
  EXPECT_EQ(Resp.St, Status::Ok);
  EXPECT_EQ(Resp.Exit, 0);
}

//===----------------------------------------------------------------------===//
// Dedupe and single-flight
//===----------------------------------------------------------------------===//

TEST(ServiceTest, IdenticalMissesCollapseToOneCompile) {
  TestServer T(8, 16);
  ASSERT_TRUE(T.start());

  Request R = execRequestFor(exampleSource("square.lift"), 256,
                             /*Run=*/false);
  std::vector<Response> Got(8);
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < Got.size(); ++I)
    Threads.emplace_back([&, I] { Got[I] = roundTripOnce(T.client(), R); });
  for (std::thread &Th : Threads)
    Th.join();

  for (const Response &Resp : Got) {
    EXPECT_EQ(Resp.St, Status::Ok);
    EXPECT_EQ(Resp.Exit, 0);
    EXPECT_EQ(Resp.Stdout, Got[0].Stdout);
  }
  ServerStats St = T.S->stats();
  EXPECT_EQ(St.Compiles, 1) << "single-flight must collapse identical misses";
  EXPECT_EQ(St.DedupeHits, 7);
  int Cached = 0;
  for (const Response &Resp : Got)
    Cached += Resp.Cached ? 1 : 0;
  EXPECT_EQ(Cached, 7);

  // Run requests and run-only knob changes share the compile key, so the
  // cached product keeps serving without a single recompile.
  Request Run = execRequestFor(exampleSource("square.lift"), 256);
  Response RunResp = roundTripOnce(T.client(), Run);
  EXPECT_EQ(RunResp.Exit, 0);
  Run.Exec.Opts.CheckRaces = true;
  RunResp = roundTripOnce(T.client(), Run);
  EXPECT_EQ(RunResp.Exit, 0);
  St = T.S->stats();
  EXPECT_EQ(St.Compiles, 1) << "run-only knobs must not force a recompile";
  EXPECT_EQ(St.DedupeHits, 9);
}

//===----------------------------------------------------------------------===//
// Drain
//===----------------------------------------------------------------------===//

TEST(ServiceTest, DrainFinishesInflightWorkThenExits) {
  TestServer T(1, 4);
  T.Opts.DrainMs = 60000;
  ASSERT_TRUE(T.start());

  Request Mid = execRequestFor(exampleSource("dot.lift"), 1 << 17);
  Response MidResp;
  std::thread Client([&] { MidResp = roundTripOnce(T.client(), Mid); });
  ASSERT_TRUE(waitFor([&] { return T.S->stats().Active == 1; }));

  T.S->requestShutdown();
  // New connections are refused the moment the drain starts.
  EXPECT_TRUE(waitFor([&] { return rawConnect(T.Opts.SocketPath) < 0; }));

  Client.join();
  EXPECT_EQ(MidResp.St, Status::Ok);
  EXPECT_EQ(MidResp.Exit, 0) << "in-flight work must complete during drain";
  T.S->wait();
  T.S.reset();
}

TEST(ServiceTest, DrainDeadlineCancelsStragglers) {
  TestServer T(1, 4);
  T.Opts.DrainMs = 100;
  ASSERT_TRUE(T.start());

  Request Long = execRequestFor(exampleSource("dot.lift"), 1 << 23);
  Response LongResp;
  std::thread Client([&] { LongResp = roundTripOnce(T.client(), Long); });
  ASSERT_TRUE(waitFor([&] { return T.S->stats().Active == 1; }));

  auto Start = std::chrono::steady_clock::now();
  T.S->requestShutdown();
  Client.join();
  T.S->wait();
  auto ElapsedMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_LT(ElapsedMs, 30000) << "drain must be bounded by --drain-ms";
  EXPECT_EQ(LongResp.St, Status::Ok);
  EXPECT_EQ(LongResp.Exit, 1);
  bool SawCancel = false;
  for (const std::string &D : LongResp.Diagnostics)
    SawCancel = SawCancel || D.find("E0516") != std::string::npos;
  EXPECT_TRUE(SawCancel) << "straggler must answer E0516, got "
                         << (LongResp.Diagnostics.empty()
                                 ? std::string("<none>")
                                 : LongResp.Diagnostics[0]);
  T.S.reset();
}

//===----------------------------------------------------------------------===//
// Fault injection on the service paths
//===----------------------------------------------------------------------===//

class ServiceFaultTest
    : public ::testing::TestWithParam<fault::Site> {};

TEST_P(ServiceFaultTest, OneShotFaultIsInvisibleBehindRetry) {
  fault::disarm();
  TestServer T(2, 8);
  ASSERT_TRUE(T.start());
  Request R = execRequestFor(exampleSource("square.lift"), 64);

  RetryEnv Env("8", "2000");
  fault::arm(GetParam(), 1);
  DiagnosticEngine Engine(20);
  Response Resp;
  bool Ok = roundTrip(T.client(), R, Resp, Engine);
  uint64_t Fired = fault::occurrences(GetParam());
  fault::disarm();
  ASSERT_TRUE(Ok) << (Engine.diagnostics().empty()
                          ? std::string("<no diagnostic>")
                          : Engine.diagnostics()[0].render());
  EXPECT_EQ(Resp.St, Status::Ok);
  EXPECT_EQ(Resp.Exit, 0);
  EXPECT_GE(Fired, 1u) << "the fault site must actually have fired";
}

TEST_P(ServiceFaultTest, PersistentFaultFailsCleanlyAndBounded) {
  fault::disarm();
  TestServer T(2, 8);
  ASSERT_TRUE(T.start());
  Request R = execRequestFor(exampleSource("square.lift"), 64);

  RetryEnv Env("3", "500");
  fault::armAlways(GetParam());
  DiagnosticEngine Engine(20);
  Response Resp;
  bool Ok = roundTrip(T.client(), R, Resp, Engine);
  fault::disarm();
  EXPECT_FALSE(Ok) << "a persistent outage must surface, not hang";
  ASSERT_EQ(Engine.diagnostics().size(), 1u);
  const Diagnostic &D = Engine.diagnostics()[0];
  EXPECT_TRUE(D.Code == DiagCode::ServiceOverloaded ||
              D.Code == DiagCode::ServiceIoError ||
              D.Code == DiagCode::ServiceConnectFailed)
      << D.render();
  // The retry policy's exhaustion note names the attempt count.
  ASSERT_FALSE(D.Notes.empty());
  EXPECT_NE(D.Notes.back().find("3 attempts"), std::string::npos)
      << D.Notes.back();

  // The daemon survives the sweep: disarmed, it answers normally.
  Response After = roundTripOnce(T.client(), R);
  EXPECT_EQ(After.St, Status::Ok);
  EXPECT_EQ(After.Exit, 0);
}

INSTANTIATE_TEST_SUITE_P(
    ServiceSites, ServiceFaultTest,
    ::testing::Values(fault::Site::Accept,
                      fault::Site::RequestRead,
                      fault::Site::RequestWrite,
                      fault::Site::QueueAdmit),
    [](const ::testing::TestParamInfo<fault::Site> &I) {
      switch (I.param) {
      case fault::Site::Accept:
        return "Accept";
      case fault::Site::RequestRead:
        return "RequestRead";
      case fault::Site::RequestWrite:
        return "RequestWrite";
      default:
        return "QueueAdmit";
      }
    });

//===----------------------------------------------------------------------===//
// Crash-only lifecycle: kill -9, restart, hash-verified artifact reuse
//===----------------------------------------------------------------------===//

pid_t spawnDaemon(const std::string &Socket, const std::string &ArtifactDir) {
  pid_t Pid = ::fork();
  if (Pid == 0) {
    // Quiet the child; the test asserts through the protocol.
    if (!std::freopen("/dev/null", "w", stdout) ||
        !std::freopen("/dev/null", "w", stderr))
      _exit(127);
    ::execl(LIFTD_BIN, LIFTD_BIN, "--socket", Socket.c_str(),
            "--artifact-dir", ArtifactDir.c_str(), "--drain-ms", "2000",
            static_cast<char *>(nullptr));
    _exit(127);
  }
  return Pid;
}

bool waitSocketUp(const std::string &Socket) {
  return waitFor([&] {
    int Fd = rawConnect(Socket);
    if (Fd < 0)
      return false;
    ::close(Fd);
    return true;
  });
}

int64_t daemonStat(const ClientOptions &C, const std::string &Key) {
  Request R;
  R.Kind = Op::Stats;
  return statValue(roundTripOnce(C, R), Key);
}

TEST(ServiceTest, KillNineRecoveryReusesOnlyVerifiedArtifacts) {
  TempDir Dir;
  std::string Socket = Dir.file("liftd.sock");
  std::string Art = Dir.file("artifacts");
  ClientOptions C;
  C.SocketPath = Socket;
  C.TimeoutMs = 60000;
  Request R = execRequestFor(exampleSource("square.lift"), 128,
                             /*Run=*/false);

  // Generation 1: compile once, artifact lands on disk.
  pid_t Pid = spawnDaemon(Socket, Art);
  ASSERT_GT(Pid, 0);
  ASSERT_TRUE(waitSocketUp(Socket));
  Response Resp = roundTripOnce(C, R);
  EXPECT_EQ(Resp.Exit, 0);
  EXPECT_FALSE(Resp.Cached);
  EXPECT_EQ(daemonStat(C, "compiles"), 1);
  ::kill(Pid, SIGKILL);
  ASSERT_EQ(::waitpid(Pid, nullptr, 0), Pid);

  // The murdered daemon left its socket file behind; the restart must
  // reclaim it, verify the artifact's hash sidecar, and answer the same
  // request from disk without recompiling.
  struct stat Sb;
  ASSERT_EQ(::stat(Socket.c_str(), &Sb), 0) << "stale socket expected";
  Pid = spawnDaemon(Socket, Art);
  ASSERT_GT(Pid, 0);
  ASSERT_TRUE(waitSocketUp(Socket));
  Resp = roundTripOnce(C, R);
  EXPECT_EQ(Resp.Exit, 0);
  EXPECT_TRUE(Resp.Cached) << "verified artifact must be reused";
  EXPECT_EQ(daemonStat(C, "disk_hits"), 1);
  EXPECT_EQ(daemonStat(C, "compiles"), 0);
  ::kill(Pid, SIGKILL);
  ASSERT_EQ(::waitpid(Pid, nullptr, 0), Pid);

  // Corrupt the artifact body (sidecar untouched, as a torn write would
  // leave it): the next generation must quarantine it and recompile.
  std::string ArtifactPath;
  if (DIR *D = ::opendir(Art.c_str())) {
    while (dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name.size() > 5 && Name.rfind(".json") == Name.size() - 5)
        ArtifactPath = Art + "/" + Name;
    }
    ::closedir(D);
  }
  ASSERT_FALSE(ArtifactPath.empty());
  {
    std::ofstream Out(ArtifactPath, std::ios::trunc);
    Out << "{\"schema\":\"liftd-v1\",\"torn\":true}";
  }

  Pid = spawnDaemon(Socket, Art);
  ASSERT_GT(Pid, 0);
  ASSERT_TRUE(waitSocketUp(Socket));
  Resp = roundTripOnce(C, R);
  EXPECT_EQ(Resp.Exit, 0);
  EXPECT_FALSE(Resp.Cached) << "corrupt artifact must not be served";
  EXPECT_EQ(daemonStat(C, "compiles"), 1);
  EXPECT_EQ(daemonStat(C, "disk_hits"), 0);

  // The corrupt file was quarantined, not deleted (post-mortem evidence).
  bool SawQuarantine = false;
  if (DIR *D = ::opendir(Art.c_str())) {
    while (dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name.find(".corrupt") != std::string::npos)
        SawQuarantine = true;
    }
    ::closedir(D);
  }
  EXPECT_TRUE(SawQuarantine);

  // And SIGTERM drains gracefully: exit code 0.
  ::kill(Pid, SIGTERM);
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);
}

//===----------------------------------------------------------------------===//
// Cross-process single-flight (satellite: flock on the persistent caches)
//===----------------------------------------------------------------------===//

TEST(ServiceTest, FileLockSerializesForkedWriters) {
  // Two forked children do read-modify-write cycles on a shared counter
  // file under support::FileLock. Without the lock the lost-update race
  // makes the final count fall short; with it the count is exact.
  TempDir Dir;
  std::string Counter = Dir.file("counter");
  std::string Lock = Counter + ".lock";
  {
    std::ofstream Out(Counter);
    Out << "0\n";
  }

  constexpr int Cycles = 200;
  auto Child = [&]() {
    for (int I = 0; I < Cycles; ++I) {
      support::FileLock L = support::FileLock::acquire(Lock);
      if (!L.locked())
        _exit(3);
      long long V = 0;
      {
        std::ifstream In(Counter);
        In >> V;
      }
      std::ofstream Out(Counter, std::ios::trunc);
      Out << (V + 1) << "\n";
      Out.flush();
    }
    _exit(0);
  };

  pid_t A = ::fork();
  if (A == 0)
    Child();
  pid_t B = ::fork();
  if (B == 0)
    Child();
  ASSERT_GT(A, 0);
  ASSERT_GT(B, 0);
  int StA = 0, StB = 0;
  ASSERT_EQ(::waitpid(A, &StA, 0), A);
  ASSERT_EQ(::waitpid(B, &StB, 0), B);
  EXPECT_TRUE(WIFEXITED(StA) && WEXITSTATUS(StA) == 0);
  EXPECT_TRUE(WIFEXITED(StB) && WEXITSTATUS(StB) == 0);

  long long Final = 0;
  std::ifstream In(Counter);
  In >> Final;
  EXPECT_EQ(Final, 2 * Cycles)
      << "flock single-flight lost updates across processes";
}

//===----------------------------------------------------------------------===//
// Retry-flag validation on the drivers (satellite)
//===----------------------------------------------------------------------===//

int runTool(const std::string &Cmd) {
  int St = std::system((Cmd + " >/dev/null 2>&1").c_str());
  return WIFEXITED(St) ? WEXITSTATUS(St) : -1;
}

TEST(ServiceTest, DriverRetryFlagsRejectNonsense) {
  std::string Square = std::string(LIFT_EXAMPLES_DIR) + "/square.lift";
  std::string Liftc = LIFTC_BIN;
  std::string Tune = LIFT_TUNE_BIN;

  // liftc: usage errors exit 1 (diagnostics), never 2 (internal).
  EXPECT_EQ(runTool(Liftc + " " + Square + " --retry-attempts 0"), 1);
  EXPECT_EQ(runTool(Liftc + " " + Square + " --retry-attempts abc"), 1);
  EXPECT_EQ(runTool(Liftc + " " + Square + " --retry-attempts -3"), 1);
  EXPECT_EQ(runTool(Liftc + " " + Square + " --retry-base-us junk"), 1);
  EXPECT_EQ(runTool(Liftc + " " + Square + " --retry-base-us 99999999999"),
            1);
  // Valid values are accepted and the compile still succeeds.
  EXPECT_EQ(runTool(Liftc + " " + Square +
                    " --retry-attempts 3 --retry-base-us 100"),
            0);

  // lift-tune follows its own usage-error convention (exit 2).
  EXPECT_EQ(runTool(Tune + " --retry-attempts 0"), 2);
  EXPECT_EQ(runTool(Tune + " --retry-attempts=abc"), 2);
  EXPECT_EQ(runTool(Tune + " --retry-base-us=-1"), 2);

  // liftc --remote refuses process-local fault flags.
  EXPECT_EQ(runTool(Liftc + " " + Square +
                    " --remote=/nonexistent.sock --count-faults"),
            1);
}

} // namespace
