//===- ContentStore.h - One verified on-disk artifact store -----*- C++ -*-===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The store behind every persistent cache: tune entries, native shared
/// objects and liftd compile artifacts. It maps a name in a directory to
/// verified bytes: the body `<dir>/<name>`, its sidecar `<dir>/<stem>.hash`
/// (the body's contentHash and a newline), the lock `<name>.lock`,
/// quarantined `*.corrupt` files and `.tmp.` temporaries. One policy
/// (docs/RELIABILITY.md): a CacheRead fault is a plain miss; a missing or
/// mismatched sidecar, re-checked under the lock, quarantines both files;
/// put writes body then sidecar by temp+rename, retried with the
/// CacheWrite site inside the retry, and creates missing directories.
/// Keys, entry formats and diagnostics stay with the callers.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_SUPPORT_CONTENTSTORE_H
#define LIFT_SUPPORT_CONTENTSTORE_H

#include "support/FileLock.h"

#include <string>

namespace lift {
namespace support {

/// 64-bit FNV-1a of \p Bytes as 16 hex digits: the cache keys of every
/// store and the contents of every sidecar.
std::string contentHash(const std::string &Bytes);

class ContentStore {
public:
  explicit ContentStore(std::string Dir) : Dir(std::move(Dir)) {}

  /// What get() found.
  struct Entry {
    enum Kind { Miss, Hit, Corrupt } K = Miss;
    std::string Bytes; ///< the verified body (Hit)
    std::string Why;   ///< why verification failed (Corrupt)
  };

  /// `<dir>/<name>`.
  std::string path(const std::string &Name) const;

  /// Creates the directory and its parents; false with \p Err if not.
  bool create(std::string &Err) const;

  /// Reads \p Name and checks it against its sidecar. A corrupt entry
  /// has been quarantined by the time this returns. An entry whose lock
  /// is held elsewhere, possibly by a writer between body and sidecar,
  /// is never quarantined: it reads as a miss.
  Entry get(const std::string &Name) const;

  /// Renames \p Name and its sidecar aside to `*.corrupt`, for callers
  /// whose format check rejects bytes that passed the hash check.
  void quarantine(const std::string &Name) const;

  /// Publishes \p Bytes as \p Name; false with the reason in \p Err once
  /// the retry policy is exhausted, leaving no temporary behind.
  bool put(const std::string &Name, const std::string &Bytes,
           std::string &Err) const;

  /// The cross-process lock of \p Name, best-effort like FileLock. A
  /// producer holds it around produce-and-put for single-flight.
  FileLock lock(const std::string &Name) const;

private:
  std::string Dir;

  std::string sidecarPath(const std::string &Name) const;
  /// Empty when \p Body matches the sidecar of \p Name, else the reason.
  std::string verify(const std::string &Name, const std::string &Body) const;
};

} // namespace support
} // namespace lift

#endif // LIFT_SUPPORT_CONTENTSTORE_H
