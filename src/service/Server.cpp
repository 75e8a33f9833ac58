//===- Server.cpp - liftd daemon core -------------------------------------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Threading model: the event loop owns every fd and all Conn state;
// workers never touch a socket. The only shared state is the work queue,
// the completion queue, the compile cache and the stats cells, each
// behind its own lock (or atomic). Cancellation flows one way: the event
// loop sets a request's token, the simulator polls it at step-chunk
// checkpoints.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "support/ContentStore.h"
#include "support/FaultInject.h"
#include "support/Json.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace lift;
using namespace lift::service;

namespace {

using Clock = std::chrono::steady_clock;

void setNonBlockingCloexec(int Fd) {
  int Fl = ::fcntl(Fd, F_GETFL, 0);
  if (Fl >= 0)
    ::fcntl(Fd, F_SETFL, Fl | O_NONBLOCK);
  int Fd2 = ::fcntl(Fd, F_GETFD, 0);
  if (Fd2 >= 0)
    ::fcntl(Fd, F_SETFD, Fd2 | FD_CLOEXEC);
}

} // namespace

struct Server::Conn {
  uint64_t Id = 0;
  int Fd = -1;
  enum class State { Reading, InFlight, Writing } St = State::Reading;
  std::string In;
  std::string Out;
  size_t OutPos = 0;
  Clock::time_point ReadDeadline;
  bool HasDeadline = false;
  /// Shared with the request's WorkItem; survives the fd so a vanished
  /// client still cancels its in-flight work.
  std::shared_ptr<std::atomic<bool>> Cancel;
};

struct Server::WorkItem {
  uint64_t ConnId = 0;
  Request Req;
  std::shared_ptr<std::atomic<bool>> Cancel;
};

struct Server::Completion {
  uint64_t ConnId = 0;
  Response Resp;
};

/// One compile-cache slot: single-flight per key. \c Prod may be a
/// text-only product (disk-loaded, no kernel object); a run request on
/// such a slot claims Busy and upgrades it with a real compile.
struct Server::CacheEntry {
  std::mutex M;
  std::condition_variable Cv;
  bool Busy = false;
  std::shared_ptr<CompileProduct> Prod;
};

Server::Server(ServerOptions O) : Opts(std::move(O)) {
  if (Opts.Workers < 1)
    Opts.Workers = 1;
  if (Opts.QueueDepth < 0)
    Opts.QueueDepth = 0;
}

Server::~Server() {
  if (Started) {
    requestShutdown();
    wait();
  }
  if (WakeR >= 0)
    ::close(WakeR);
  if (WakeW >= 0)
    ::close(WakeW);
  if (ListenFd >= 0)
    ::close(ListenFd);
}

bool Server::start(std::string &Err) {
  if (Started) {
    Err = "server already started";
    return false;
  }
  if (!Opts.ArtifactDir.empty() &&
      !support::ContentStore(Opts.ArtifactDir).create(Err))
    return false;

  int Pipe[2];
  if (::pipe(Pipe) != 0) {
    Err = std::string("pipe: ") + std::strerror(errno);
    return false;
  }
  WakeR = Pipe[0];
  WakeW = Pipe[1];
  setNonBlockingCloexec(WakeR);
  setNonBlockingCloexec(WakeW);

  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Opts.SocketPath.empty() ||
      Opts.SocketPath.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path must be 1.." +
          std::to_string(sizeof(Addr.sun_path) - 1) + " bytes";
    return false;
  }
  std::memcpy(Addr.sun_path, Opts.SocketPath.c_str(),
              Opts.SocketPath.size() + 1);

  ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (ListenFd < 0) {
    Err = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  setNonBlockingCloexec(ListenFd);

  if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
             sizeof(Addr)) != 0) {
    if (errno != EADDRINUSE) {
      Err = "bind " + Opts.SocketPath + ": " + std::strerror(errno);
      return false;
    }
    // A socket file exists. A kill -9'd daemon leaves its path behind;
    // probe it — only steal the path when nothing answers (crash-only
    // restart), never from a live daemon.
    int Probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Probe < 0) {
      Err = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    int C = ::connect(Probe, reinterpret_cast<sockaddr *>(&Addr),
                      sizeof(Addr));
    ::close(Probe);
    if (C == 0) {
      Err = "another daemon is already listening on " + Opts.SocketPath;
      return false;
    }
    ::unlink(Opts.SocketPath.c_str());
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr),
               sizeof(Addr)) != 0) {
      Err = "bind " + Opts.SocketPath + ": " + std::strerror(errno);
      return false;
    }
  }
  if (::listen(ListenFd, 128) != 0) {
    Err = "listen " + Opts.SocketPath + ": " + std::strerror(errno);
    return false;
  }

  EventThread = std::thread([this] { eventLoop(); });
  for (int I = 0; I != Opts.Workers; ++I)
    WorkerThreads.emplace_back([this] { workerLoop(); });
  Started = true;
  return true;
}

void Server::requestShutdown() { signalShutdown(); }

void Server::signalShutdown() {
  // Async-signal-safe: one store, one write. Nothing else.
  ShutdownFlag.store(true, std::memory_order_relaxed);
  if (WakeW >= 0) {
    char B = 'q';
    ssize_t Ignored = ::write(WakeW, &B, 1);
    (void)Ignored;
  }
}

void Server::wait() {
  if (EventThread.joinable())
    EventThread.join();
}

ServerStats Server::stats() const {
  ServerStats R;
  R.Accepted = S.Accepted.load();
  R.Requests = S.Requests.load();
  R.ExecOk = S.ExecOk.load();
  R.ExecDiag = S.ExecDiag.load();
  R.ExecInternal = S.ExecInternal.load();
  R.Shed = S.Shed.load();
  R.BadRequest = S.BadRequest.load();
  R.Cancelled = S.Cancelled.load();
  R.IoErrors = S.IoErrors.load();
  R.Compiles = S.Compiles.load();
  R.DedupeHits = S.DedupeHits.load();
  R.DiskHits = S.DiskHits.load();
  R.Active = S.Active.load();
  R.Queued = S.Queued.load();
  return R;
}

void Server::fillStats(Response &R) const {
  ServerStats St = stats();
  R.Stats.emplace_back("accepted", St.Accepted);
  R.Stats.emplace_back("requests", St.Requests);
  R.Stats.emplace_back("exec_ok", St.ExecOk);
  R.Stats.emplace_back("exec_diag", St.ExecDiag);
  R.Stats.emplace_back("exec_internal", St.ExecInternal);
  R.Stats.emplace_back("shed", St.Shed);
  R.Stats.emplace_back("bad_request", St.BadRequest);
  R.Stats.emplace_back("cancelled", St.Cancelled);
  R.Stats.emplace_back("io_errors", St.IoErrors);
  R.Stats.emplace_back("compiles", St.Compiles);
  R.Stats.emplace_back("dedupe_hits", St.DedupeHits);
  R.Stats.emplace_back("disk_hits", St.DiskHits);
  R.Stats.emplace_back("active", St.Active);
  R.Stats.emplace_back("queued", St.Queued);
  R.Stats.emplace_back("workers", Opts.Workers);
  R.Stats.emplace_back("queue_depth", Opts.QueueDepth);
}

//===----------------------------------------------------------------------===//
// Event loop
//===----------------------------------------------------------------------===//

void Server::eventLoop() {
  std::vector<pollfd> Pfds;
  std::vector<uint64_t> PfdConn;
  Clock::time_point DrainDeadline{};
  bool DrainCancelIssued = false;

  for (;;) {
    if (Draining) {
      bool QueueEmpty;
      {
        std::lock_guard<std::mutex> L(QueueM);
        QueueEmpty = WorkQ.empty();
      }
      if (QueueEmpty && S.Active.load() == 0 && Conns.empty())
        break;
    }

    Pfds.clear();
    PfdConn.clear();
    Pfds.push_back({WakeR, POLLIN, 0});
    PfdConn.push_back(0);
    if (ListenFd >= 0 && !Draining) {
      Pfds.push_back({ListenFd, POLLIN, 0});
      PfdConn.push_back(0);
    }
    for (const auto &[Id, C] : Conns) {
      if (C->Fd < 0)
        continue;
      short Ev =
          C->St == Conn::State::Writing ? POLLOUT : POLLIN;
      Pfds.push_back({C->Fd, Ev, 0});
      PfdConn.push_back(Id);
    }

    Clock::time_point Now = Clock::now();
    int Timeout = -1;
    auto Consider = [&](Clock::time_point T) {
      int64_t Ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(T - Now)
              .count();
      if (Ms < 0)
        Ms = 0;
      if (Ms > 60000)
        Ms = 60000;
      if (Timeout < 0 || Ms < Timeout)
        Timeout = static_cast<int>(Ms);
    };
    for (const auto &[Id, C] : Conns)
      if (C->Fd >= 0 && C->St == Conn::State::Reading && C->HasDeadline)
        Consider(C->ReadDeadline);
    if (Draining && !DrainCancelIssued)
      Consider(DrainDeadline);

    ::poll(Pfds.data(), static_cast<nfds_t>(Pfds.size()), Timeout);

    if (Pfds[0].revents & POLLIN) {
      char Buf[256];
      while (::read(WakeR, Buf, sizeof(Buf)) > 0) {
      }
    }
    if (ShutdownFlag.load(std::memory_order_relaxed) && !Draining) {
      startDrain();
      DrainDeadline =
          Clock::now() + std::chrono::milliseconds(Opts.DrainMs);
      DrainCancelIssued = false;
    }

    // Deliver completed responses before reading new bytes: a pipelining
    // client never observes responses out of order because each
    // connection carries exactly one request.
    std::vector<Completion> Done;
    {
      std::lock_guard<std::mutex> L(DoneM);
      Done.swap(DoneQ);
    }
    for (Completion &D : Done) {
      auto It = Conns.find(D.ConnId);
      if (It == Conns.end())
        continue;
      Conn &C = *It->second;
      if (C.Fd < 0) {
        // Client vanished mid-flight; the work still warmed the cache.
        Conns.erase(It);
        continue;
      }
      respond(C, D.Resp);
    }

    for (size_t I = 1; I < Pfds.size(); ++I) {
      if (Pfds[I].revents == 0)
        continue;
      if (PfdConn[I] == 0) {
        if (ListenFd >= 0 && Pfds[I].fd == ListenFd)
          acceptReady();
        continue;
      }
      auto It = Conns.find(PfdConn[I]);
      if (It == Conns.end() || It->second->Fd != Pfds[I].fd)
        continue;
      Conn &C = *It->second;
      if (C.St == Conn::State::Reading &&
          (Pfds[I].revents & (POLLIN | POLLHUP | POLLERR))) {
        connReadable(C);
      } else if (C.St == Conn::State::InFlight &&
                 (Pfds[I].revents & (POLLIN | POLLHUP | POLLERR))) {
        // The only thing a client can tell us mid-flight is that it
        // stopped caring: EOF or error cancels the request
        // cooperatively. Stray extra bytes are ignored.
        char Buf[4096];
        for (;;) {
          ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), 0);
          if (N > 0)
            continue;
          if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
          if (N < 0 && errno == EINTR)
            continue;
          clientGone(C);
          break;
        }
      } else if (C.St == Conn::State::Writing &&
                 (Pfds[I].revents & (POLLOUT | POLLHUP | POLLERR))) {
        connWritable(C);
      }
    }

    // Read-deadline enforcement (collect first: closeConn mutates Conns).
    Now = Clock::now();
    std::vector<uint64_t> Expired;
    for (const auto &[Id, C] : Conns)
      if (C->Fd >= 0 && C->St == Conn::State::Reading && C->HasDeadline &&
          Now >= C->ReadDeadline)
        Expired.push_back(Id);
    for (uint64_t Id : Expired) {
      auto It = Conns.find(Id);
      if (It != Conns.end()) {
        S.IoErrors.fetch_add(1);
        closeConn(*It->second);
      }
    }

    if (Draining && !DrainCancelIssued && Clock::now() >= DrainDeadline) {
      // Drain budget exhausted: cancel everything still running or
      // queued. Requests answer E0516 promptly instead of holding the
      // daemon open.
      for (const auto &[Id, C] : Conns)
        if (C->Cancel)
          C->Cancel->store(true);
      DrainCancelIssued = true;
    }
  }

  // Idle and draining: release the workers and fold the pool.
  {
    std::lock_guard<std::mutex> L(QueueM);
    WorkersStop = true;
  }
  QueueCv.notify_all();
  for (std::thread &T : WorkerThreads)
    T.join();
  WorkerThreads.clear();
}

void Server::startDrain() {
  Draining = true;
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
    // Unlink immediately so new clients get a crisp connect failure
    // (E0706) instead of a connection that would only be answered 705.
    ::unlink(Opts.SocketPath.c_str());
  }
}

void Server::acceptReady() {
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      return; // EAGAIN or transient accept failure: next poll retries
    }
    if (fault::shouldFail(fault::Site::Accept)) {
      // Injected accept outage: the connection is dropped before any
      // byte is exchanged; the client sees EOF (E0703) and retries.
      ::close(Fd);
      S.IoErrors.fetch_add(1);
      continue;
    }
    S.Accepted.fetch_add(1);
    setNonBlockingCloexec(Fd);
    auto C = std::make_unique<Conn>();
    C->Id = NextConnId++;
    C->Fd = Fd;
    if (Opts.IoTimeoutMs > 0) {
      C->ReadDeadline =
          Clock::now() + std::chrono::milliseconds(Opts.IoTimeoutMs);
      C->HasDeadline = true;
    }
    Conns.emplace(C->Id, std::move(C));
  }
}

void Server::connReadable(Conn &C) {
  if (fault::shouldFail(fault::Site::RequestRead)) {
    S.IoErrors.fetch_add(1);
    closeConn(C);
    return;
  }
  char Buf[65536];
  for (;;) {
    ssize_t N = ::recv(C.Fd, Buf, sizeof(Buf), 0);
    if (N > 0) {
      C.In.append(Buf, static_cast<size_t>(N));
      if (C.In.size() > Opts.MaxRequestBytes) {
        S.Requests.fetch_add(1);
        S.BadRequest.fetch_add(1);
        Response R;
        R.St = Status::BadRequest;
        R.Code = "E0702";
        R.Message = "request exceeds " +
                    std::to_string(Opts.MaxRequestBytes) + " bytes";
        R.Exit = 1;
        respond(C, R);
        return;
      }
      size_t Nl = C.In.find('\n');
      if (Nl != std::string::npos) {
        handleLine(C, C.In.substr(0, Nl));
        return;
      }
      continue;
    }
    if (N == 0) {
      // EOF before a complete request line.
      S.IoErrors.fetch_add(1);
      closeConn(C);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return;
    if (errno == EINTR)
      continue;
    S.IoErrors.fetch_add(1);
    closeConn(C);
    return;
  }
}

void Server::handleLine(Conn &C, const std::string &Line) {
  S.Requests.fetch_add(1);
  Request Req;
  std::string Err;
  if (!parseRequest(Line, Req, Err)) {
    S.BadRequest.fetch_add(1);
    Response R;
    R.Id = Req.Id;
    R.St = Status::BadRequest;
    R.Code = "E0702";
    R.Message = Err;
    R.Exit = 1;
    respond(C, R);
    return;
  }

  switch (Req.Kind) {
  case Op::Ping: {
    Response R;
    R.Id = Req.Id;
    R.Message = "pong";
    respond(C, R);
    return;
  }
  case Op::Stats: {
    Response R;
    R.Id = Req.Id;
    fillStats(R);
    respond(C, R);
    return;
  }
  case Op::Shutdown: {
    Response R;
    R.Id = Req.Id;
    R.Message = "draining";
    respond(C, R);
    if (!Draining) {
      ShutdownFlag.store(true, std::memory_order_relaxed);
      // startDrain runs on the next loop pass via the shutdown check;
      // poke the pipe so that pass happens immediately.
      signalShutdown();
    }
    return;
  }
  case Op::Exec:
    break;
  }

  if (Draining) {
    Response R;
    R.Id = Req.Id;
    R.St = Status::ShuttingDown;
    R.Code = "E0705";
    R.Message = "daemon is draining; no new work accepted";
    R.Exit = 1;
    respond(C, R);
    return;
  }
  // Admission control. Queued is only incremented here (event thread)
  // and workers increment Active before decrementing Queued, so reading
  // Queued first can overcount but never undercount the outstanding
  // work: the daemon may shed one request early, it never over-admits.
  bool Admit = true;
  if (fault::shouldFail(fault::Site::QueueAdmit))
    Admit = false;
  else if (S.Queued.load() + S.Active.load() >=
           static_cast<int64_t>(Opts.Workers) + Opts.QueueDepth)
    Admit = false;
  if (!Admit) {
    S.Shed.fetch_add(1);
    Response R;
    R.Id = Req.Id;
    R.St = Status::Shed;
    R.Code = "E0701";
    R.Message = "admission queue full; retry later";
    R.Exit = 1;
    R.RetryAfterMs = Opts.RetryAfterMs;
    respond(C, R);
    return;
  }

  C.St = Conn::State::InFlight;
  C.HasDeadline = false;
  C.Cancel = std::make_shared<std::atomic<bool>>(false);
  auto W = std::make_unique<WorkItem>();
  W->ConnId = C.Id;
  W->Req = std::move(Req);
  W->Cancel = C.Cancel;
  S.Queued.fetch_add(1);
  {
    std::lock_guard<std::mutex> L(QueueM);
    WorkQ.push_back(std::move(W));
  }
  QueueCv.notify_one();
}

void Server::respond(Conn &C, const Response &R) {
  if (fault::shouldFail(fault::Site::RequestWrite)) {
    // Injected write outage: the response is lost and the connection
    // dropped; the client sees EOF (E0703) and retries.
    S.IoErrors.fetch_add(1);
    closeConn(C);
    return;
  }
  C.Out = encodeResponse(R);
  C.Out += '\n';
  C.OutPos = 0;
  C.St = Conn::State::Writing;
  connWritable(C);
}

void Server::connWritable(Conn &C) {
  while (C.OutPos < C.Out.size()) {
    ssize_t N = ::send(C.Fd, C.Out.data() + C.OutPos,
                       C.Out.size() - C.OutPos, MSG_NOSIGNAL);
    if (N > 0) {
      C.OutPos += static_cast<size_t>(N);
      continue;
    }
    if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      return; // POLLOUT resumes
    if (N < 0 && errno == EINTR)
      continue;
    S.IoErrors.fetch_add(1);
    closeConn(C);
    return;
  }
  closeConn(C); // response fully written; one request per connection
}

void Server::closeConn(Conn &C) {
  if (C.Fd >= 0)
    ::close(C.Fd);
  Conns.erase(C.Id); // invalidates C
}

void Server::clientGone(Conn &C) {
  // Keep the Conn entry (the completion still needs a discard target)
  // but close the fd and cancel the work cooperatively.
  S.Cancelled.fetch_add(1);
  if (C.Cancel)
    C.Cancel->store(true);
  ::close(C.Fd);
  C.Fd = -1;
}

//===----------------------------------------------------------------------===//
// Workers
//===----------------------------------------------------------------------===//

void Server::workerLoop() {
  for (;;) {
    std::unique_ptr<WorkItem> W;
    {
      std::unique_lock<std::mutex> L(QueueM);
      QueueCv.wait(L, [&] { return WorkersStop || !WorkQ.empty(); });
      if (WorkQ.empty())
        return; // WorkersStop and nothing left
      W = std::move(WorkQ.front());
      WorkQ.pop_front();
    }
    // Active rises before Queued falls: admission reads Queued then
    // Active and must never see the item missing from both.
    S.Active.fetch_add(1);
    S.Queued.fetch_sub(1);
    Completion D;
    D.ConnId = W->ConnId;
    try {
      D.Resp = handleExec(*W);
    } catch (const std::exception &E) {
      D.Resp.Id = W->Req.Id;
      D.Resp.Exit = 2;
      D.Resp.Diagnostics.push_back(std::string("internal error: ") +
                                   E.what());
      S.ExecInternal.fetch_add(1);
    }
    S.Active.fetch_sub(1);
    {
      std::lock_guard<std::mutex> L(DoneM);
      DoneQ.push_back(std::move(D));
    }
    // Wake the event loop to deliver the response.
    char B = 'c';
    ssize_t Ignored = ::write(WakeW, &B, 1);
    (void)Ignored;
  }
}

Response Server::handleExec(WorkItem &W) {
  ExecRequest &E = W.Req.Exec;
  Response R;
  R.Id = W.Req.Id;

  bool NeedKernel = E.Run || E.DumpNative;
  bool Cached = false;
  std::shared_ptr<CompileProduct> Prod =
      obtainProduct(E, NeedKernel, Cached);

  ExecContext Ctx;
  Ctx.Cancel = W.Cancel.get();
  Ctx.MaxSteps = Opts.MaxSteps;
  Ctx.TimeoutMs = Opts.TimeoutMs;
  Ctx.MaxMemoryBytes = Opts.MaxMemoryBytes;
  Ctx.MaxThreads = Opts.MaxThreads;
  Ctx.MaxHostBufferBytes = Opts.MaxHostBufferBytes;

  ExecOutcome Out;
  if (NeedKernel && Prod->Kernel) {
    // CompiledKernel carries mutable per-launch scratch (value slots,
    // resolved cost tables); concurrent launches of one shared kernel
    // must serialize. Distinct kernels run fully in parallel.
    std::lock_guard<std::mutex> L(Prod->RunM);
    Out = execRequest(E, Ctx, Prod.get());
  } else {
    Out = execRequest(E, Ctx, Prod.get());
  }

  R.Exit = Out.Exit;
  R.Cached = Cached;
  R.Stdout = std::move(Out.Stdout);
  R.Diagnostics = std::move(Out.Diags);
  if (Out.Exit == 0)
    S.ExecOk.fetch_add(1);
  else if (Out.Exit == 1)
    S.ExecDiag.fetch_add(1);
  else
    S.ExecInternal.fetch_add(1);
  return R;
}

//===----------------------------------------------------------------------===//
// Compile cache: in-memory single-flight + hash-verified disk artifacts
//===----------------------------------------------------------------------===//

std::shared_ptr<CompileProduct>
Server::obtainProduct(const ExecRequest &E, bool NeedKernel, bool &Cached) {
  std::string Key = compileKey(E);
  std::shared_ptr<CacheEntry> Ent;
  {
    std::lock_guard<std::mutex> L(CacheM);
    std::shared_ptr<CacheEntry> &Slot = Cache[Key];
    if (!Slot)
      Slot = std::make_shared<CacheEntry>();
    Ent = Slot;
  }

  std::unique_lock<std::mutex> L(Ent->M);
  for (;;) {
    // A cached product serves the request when the request needs no
    // kernel object (text-only), when it carries one, or when the
    // compile failed (the run stages exit on the replayed diagnostics
    // long before any kernel use) — so repeated broken requests are
    // answered from cache instead of recompiling every time.
    if (Ent->Prod &&
        (!NeedKernel || Ent->Prod->Kernel || !Ent->Prod->Ok ||
         !Ent->Prod->Parsed)) {
      Cached = true;
      S.DedupeHits.fetch_add(1);
      return Ent->Prod;
    }
    if (!Ent->Busy)
      break;
    // Single-flight: somebody is already compiling this key; every
    // concurrent identical miss collapses onto that one compile.
    Ent->Cv.wait(L);
  }
  Ent->Busy = true;
  L.unlock();

  std::shared_ptr<CompileProduct> Prod;
  bool FromDisk = false;
  try {
    if (!NeedKernel && !Opts.ArtifactDir.empty()) {
      Prod = loadArtifact(Key);
      FromDisk = Prod != nullptr;
    }
    if (!Prod) {
      Prod = compileRequest(E);
      S.Compiles.fetch_add(1);
      if (!Opts.ArtifactDir.empty())
        storeArtifact(Key, *Prod);
    } else {
      S.DiskHits.fetch_add(1);
    }
  } catch (...) {
    L.lock();
    Ent->Busy = false;
    Ent->Cv.notify_all();
    throw;
  }

  L.lock();
  Ent->Prod = Prod;
  Ent->Busy = false;
  Ent->Cv.notify_all();
  Cached = FromDisk;
  return Prod;
}

std::shared_ptr<CompileProduct>
Server::loadArtifact(const std::string &Key) {
  // A crash mid-write (or disk rot) leaves an artifact that fails its
  // sidecar: the store quarantines it, and the request recompiles.
  support::ContentStore::Entry A =
      support::ContentStore(Opts.ArtifactDir).get(Key + ".json");
  if (A.K == support::ContentStore::Entry::Corrupt)
    std::fprintf(stderr,
                 "liftd: warning[E0608]: artifact failed its integrity "
                 "check (%s); quarantined, recompiling\n",
                 A.Why.c_str());
  if (A.K != support::ContentStore::Entry::Hit)
    return nullptr;

  json::Value V;
  if (!json::parse(A.Bytes, V) || V.K != json::Value::Obj)
    return nullptr;
  if (V.strField("schema") != "liftd-v1")
    return nullptr;
  auto P = std::make_shared<CompileProduct>();
  P->Parsed = V.boolField("parsed", false);
  P->Ok = V.boolField("ok", false);
  P->PrintedIl = V.strField("il");
  P->KernelSource = V.strField("kernel");
  if (const json::Value *Ds = V.field("diags"))
    if (Ds->K == json::Value::Arr)
      for (const json::Value &D : Ds->A) {
        if (D.K != json::Value::Obj)
          continue;
        Diagnostic Dg;
        int Sev = static_cast<int>(D.numField("sev", 2));
        Dg.Severity = Sev == 0   ? DiagSeverity::Note
                      : Sev == 1 ? DiagSeverity::Warning
                                 : DiagSeverity::Error;
        Dg.Code = static_cast<DiagCode>(
            static_cast<unsigned>(D.numField("code", 301)));
        Dg.Loc.Line = static_cast<unsigned>(D.numField("line", 0));
        Dg.Loc.Context = D.strField("ctx");
        Dg.Message = D.strField("msg");
        if (const json::Value *Ns = D.field("notes"))
          if (Ns->K == json::Value::Arr)
            for (const json::Value &NV : Ns->A)
              if (NV.K == json::Value::Str)
                Dg.Notes.push_back(NV.S);
        P->Diags.push_back(std::move(Dg));
      }
  // Text-only product: no kernel object. Compile-only requests are
  // served as-is; a run request upgrades the slot with a real compile.
  return P;
}

void Server::storeArtifact(const std::string &Key,
                           const CompileProduct &P) {
  std::string J = "{\"schema\":\"liftd-v1\",\"key\":";
  J += json::quoted(Key);
  J += ",\"parsed\":";
  J += P.Parsed ? "true" : "false";
  J += ",\"ok\":";
  J += P.Ok ? "true" : "false";
  J += ",\"il\":";
  J += json::quoted(P.PrintedIl);
  J += ",\"kernel\":";
  J += json::quoted(P.KernelSource);
  J += ",\"diags\":[";
  for (size_t I = 0; I != P.Diags.size(); ++I) {
    const Diagnostic &D = P.Diags[I];
    if (I)
      J += ',';
    J += "{\"sev\":";
    J += std::to_string(static_cast<int>(D.Severity));
    J += ",\"code\":";
    J += std::to_string(static_cast<unsigned>(D.Code));
    J += ",\"line\":";
    J += std::to_string(D.Loc.Line);
    J += ",\"ctx\":";
    J += json::quoted(D.Loc.Context);
    J += ",\"msg\":";
    J += json::quoted(D.Message);
    J += ",\"notes\":[";
    for (size_t N = 0; N != D.Notes.size(); ++N) {
      if (N)
        J += ',';
      J += json::quoted(D.Notes[N]);
    }
    J += "]}";
  }
  J += "]}";

  // Cross-process single-flight for daemons sharing an artifact dir;
  // best-effort (the store's temp+rename keeps an unguarded race safe).
  const support::ContentStore Store(Opts.ArtifactDir);
  support::FileLock Lock = Store.lock(Key + ".json");
  std::string Err;
  if (!Store.put(Key + ".json", J, Err))
    std::fprintf(stderr,
                 "liftd: warning[E0609]: artifact %s not persisted: %s\n",
                 Store.path(Key + ".json").c_str(), Err.c_str());
}
