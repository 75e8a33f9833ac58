//===- FaultInject.cpp - Deterministic runtime fault injection ------------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInject.h"

#include <atomic>
#include <cstdlib>
#include <mutex>

using namespace lift;

namespace {

enum class Mode { Off, Exact, Count, Seeded, Always };

struct State {
  std::mutex M;
  Mode M_ = Mode::Off;
  fault::Site ArmedSite = fault::Site::Alloc;
  uint64_t ArmedNth = 0;
  uint64_t Counts[fault::NumSites] = {};
  uint64_t Rng = 0;

  void reset(Mode NewMode) {
    M_ = NewMode;
    for (uint64_t &C : Counts)
      C = 0;
  }
};

State &state() {
  static State S;
  return S;
}

/// Disarmed-path gate: shouldFail is called on allocation paths inside the
/// interpreter, so it must not take a lock when nothing is armed.
std::atomic<bool> Enabled{false};

uint64_t xorshift(uint64_t &X) {
  X ^= X << 13;
  X ^= X >> 7;
  X ^= X << 17;
  return X;
}

/// LIFT_FAULT_SEED=s arms probabilistic mode before the first hook fires,
/// so soak runs need no code changes.
void initFromEnv() {
  if (const char *Env = std::getenv("LIFT_FAULT_SEED")) {
    char *End = nullptr;
    unsigned long long Seed = std::strtoull(Env, &End, 10);
    if (End != Env)
      fault::armSeeded(static_cast<uint64_t>(Seed));
  }
}

std::once_flag EnvOnce;

} // namespace

const char *fault::siteName(Site S) {
  switch (S) {
  case Site::Alloc:
    return "allocation";
  case Site::PoolStart:
    return "pool dispatch";
  case Site::BufferMap:
    return "buffer map";
  case Site::NativeCompile:
    return "native compile";
  case Site::NativeLoad:
    return "native dlopen";
  case Site::NativeSym:
    return "native dlsym";
  case Site::Barrier:
    return "barrier";
  case Site::GroupDispatch:
    return "group dispatch";
  case Site::StepChunk:
    return "step chunk";
  case Site::CacheRead:
    return "cache read";
  case Site::CacheWrite:
    return "cache write";
  case Site::Accept:
    return "accept";
  case Site::RequestRead:
    return "request read";
  case Site::RequestWrite:
    return "request write";
  case Site::QueueAdmit:
    return "queue admit";
  case Site::GraphStageDispatch:
    return "graph stage dispatch";
  case Site::GraphBufferReuse:
    return "graph buffer reuse";
  }
  return "unknown";
}

void fault::arm(Site S, uint64_t Nth) {
  State &St = state();
  std::lock_guard<std::mutex> L(St.M);
  St.reset(Mode::Exact);
  St.ArmedSite = S;
  St.ArmedNth = Nth;
  Enabled.store(true, std::memory_order_release);
}

void fault::armAlways(Site S) {
  State &St = state();
  std::lock_guard<std::mutex> L(St.M);
  St.reset(Mode::Always);
  St.ArmedSite = S;
  Enabled.store(true, std::memory_order_release);
}

void fault::countOnly() {
  State &St = state();
  std::lock_guard<std::mutex> L(St.M);
  St.reset(Mode::Count);
  Enabled.store(true, std::memory_order_release);
}

void fault::armSeeded(uint64_t Seed) {
  State &St = state();
  std::lock_guard<std::mutex> L(St.M);
  St.reset(Mode::Seeded);
  St.Rng = Seed ? Seed : 0x9e3779b97f4a7c15ull;
  Enabled.store(true, std::memory_order_release);
}

void fault::disarm() {
  State &St = state();
  std::lock_guard<std::mutex> L(St.M);
  St.reset(Mode::Off);
  Enabled.store(false, std::memory_order_release);
}

uint64_t fault::occurrences(Site S) {
  State &St = state();
  std::lock_guard<std::mutex> L(St.M);
  return St.Counts[static_cast<unsigned>(S)];
}

bool fault::enabled() {
  return Enabled.load(std::memory_order_acquire);
}

bool fault::shouldFail(Site S) {
  std::call_once(EnvOnce, initFromEnv);
  if (!Enabled.load(std::memory_order_acquire))
    return false;
  State &St = state();
  std::lock_guard<std::mutex> L(St.M);
  if (St.M_ == Mode::Off)
    return false;
  uint64_t N = ++St.Counts[static_cast<unsigned>(S)];
  switch (St.M_) {
  case Mode::Exact:
    return S == St.ArmedSite && N == St.ArmedNth;
  case Mode::Always:
    return S == St.ArmedSite;
  case Mode::Seeded:
    return (xorshift(St.Rng) & 63) == 0;
  case Mode::Count:
  case Mode::Off:
    return false;
  }
  return false;
}
