//===- ContentStore.cpp - One verified on-disk artifact store -------------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/ContentStore.h"

#include "support/FaultInject.h"
#include "support/Retry.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include <unistd.h>

using namespace lift;
using namespace lift::support;

namespace {

uint64_t fnv1a64(const std::string &S) {
  uint64_t H = 1469598103934665603ull;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

std::string hex16(uint64_t H) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

/// The whole of \p Path in one read; false when it cannot be opened or
/// read.
bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary | std::ios::ate);
  const std::streamoff Size = In ? std::streamoff(In.tellg()) : -1;
  if (Size < 0)
    return false;
  Out.resize(static_cast<size_t>(Size));
  In.seekg(0);
  return bool(In.read(Out.data(), static_cast<std::streamsize>(Out.size())));
}

/// Writes \p Bytes to \p Path through a same-directory temporary and a
/// rename, so a reader sees the old bytes or the new ones, never a torn
/// file. The temporary's name is unique per process and call, so
/// concurrent writers never share one.
void writeAtomic(const std::string &Path, const std::string &Bytes) {
  static std::atomic<uint64_t> Seq{0};
  const std::string Tmp = Path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(Seq.fetch_add(1));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    Out.close();
    if (Out.fail()) {
      std::remove(Tmp.c_str());
      throwDiag(DiagCode::CacheWriteFailed, DiagLocation(),
                "could not write '" + Tmp + "'");
    }
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    std::remove(Tmp.c_str());
    throwDiag(DiagCode::CacheWriteFailed, DiagLocation(),
              "could not move '" + Tmp + "' into place at '" + Path + "'");
  }
}

} // namespace

std::string support::contentHash(const std::string &Bytes) {
  return hex16(fnv1a64(Bytes));
}

std::string ContentStore::path(const std::string &Name) const {
  return Dir + "/" + Name;
}

std::string ContentStore::sidecarPath(const std::string &Name) const {
  return path(Name.substr(0, Name.rfind('.'))) + ".hash";
}

bool ContentStore::create(std::string &Err) const {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  if (!EC)
    return true;
  Err = "cannot create '" + Dir + "': " + EC.message();
  return false;
}

std::string ContentStore::verify(const std::string &Name,
                                 const std::string &Body) const {
  std::string Stored;
  if (!readFile(sidecarPath(Name), Stored))
    return "no content hash recorded for '" + path(Name) + "'";
  while (!Stored.empty() && (Stored.back() == '\n' || Stored.back() == '\r'))
    Stored.pop_back();
  if (Stored != contentHash(Body))
    return "content hash mismatch for '" + path(Name) +
           "' (torn or swapped bytes)";
  return {};
}

ContentStore::Entry ContentStore::get(const std::string &Name) const {
  Entry E;
  // A read fault says nothing about the entry: a plain miss that moves
  // nothing.
  if (!readFile(path(Name), E.Bytes) ||
      fault::shouldFail(fault::Site::CacheRead))
    return {};
  E.Why = verify(Name, E.Bytes);
  if (!E.Why.empty()) {
    // Writers publish the body before the sidecar, so look again under
    // the lock before condemning the entry. Busy means a writer holds it
    // (possibly this process, around its own put).
    bool Busy = false;
    FileLock Lock = FileLock::tryAcquire(path(Name) + ".lock", Busy);
    if (Busy || !readFile(path(Name), E.Bytes))
      return {};
    E.Why = verify(Name, E.Bytes);
  }
  if (E.Why.empty()) {
    E.K = Entry::Hit;
    return E;
  }
  quarantine(Name);
  return {Entry::Corrupt, {}, std::move(E.Why)};
}

void ContentStore::quarantine(const std::string &Name) const {
  for (const std::string &P : {path(Name), sidecarPath(Name)})
    std::rename(P.c_str(), (P + ".corrupt").c_str());
}

bool ContentStore::put(const std::string &Name, const std::string &Bytes,
                       std::string &Err) const {
  if (!create(Err))
    return false;
  try {
    retry::runWithRetry(retry::Policy::fromEnv(), "cache write", [&] {
      if (fault::shouldFail(fault::Site::CacheWrite))
        throwDiag(DiagCode::CacheWriteFailed, DiagLocation(),
                  "injected fault: writing '" + path(Name) + "' failed");
      writeAtomic(path(Name), Bytes);
      writeAtomic(sidecarPath(Name), contentHash(Bytes) + "\n");
    });
    return true;
  } catch (const DiagnosticError &E) {
    Err = E.Diag.Message;
    for (const std::string &Note : E.Diag.Notes)
      Err += "; " + Note;
    return false;
  }
}

FileLock ContentStore::lock(const std::string &Name) const {
  std::string Ignored; // an uncreatable directory leaves the lock untaken
  create(Ignored);
  return FileLock::acquire(path(Name) + ".lock");
}
