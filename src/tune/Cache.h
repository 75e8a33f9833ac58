//===- Cache.h - Persistent tuning cache -------------------------*- C++ -*-===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Persistent auto-tuning cache: one JSON entry per (workload, IR hash,
/// search config) in a content store (support/ContentStore.h) under
/// TuneConfig::CacheDir (default `.lift-tune/`). A warm cache makes a
/// repeated invocation return the stored result without executing any
/// candidate. The entry format is documented in docs/TUNING.md; entries
/// whose embedded key no longer matches the program or configuration are
/// treated as misses, so stale entries are harmless.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_TUNE_CACHE_H
#define LIFT_TUNE_CACHE_H

#include "tune/Tuner.h"

#include <cstdint>
#include <optional>
#include <string>

namespace lift {
namespace tune {

/// The cache key of (\p W, \p C): the content hash of the printed IR
/// plus the config serialization.
std::string tuneCacheKey(const Workload &W, const TuneConfig &C);

/// Full path of the cache file for (\p W, \p C).
std::string tuneCachePath(const Workload &W, const TuneConfig &C);

/// Loads a cached result. Returns false (leaving \p R untouched) when the
/// entry is missing, unreadable, corrupt, malformed, or keyed
/// differently. An entry that fails its `.hash` sidecar check or the
/// JSON format check is quarantined — renamed to `<file>.corrupt` with
/// an E0608 warning into \p Engine (stderr when null) — so it cannot
/// shadow future stores; a stale entry (key mismatch) stays in place as
/// a silent miss.
bool loadCachedResult(const Workload &W, const TuneConfig &C, TuneResult &R,
                      DiagnosticEngine *Engine = nullptr);

/// Stores \p R with its sidecar, creating the cache directory and its
/// parents if needed, under the content store's write policy (atomic
/// temp+rename, transient failures retried under support/Retry.h).
/// Best-effort: returns false (after an E0609 warning) on I/O failure.
bool storeCachedResult(const Workload &W, const TuneConfig &C,
                       const TuneResult &R,
                       DiagnosticEngine *Engine = nullptr);

/// Consults the cache for the cheapest successfully-evaluated
/// mapWrg(mapLcl) candidate of (\p W, \p C) and returns its chunk size.
/// Empty when there is no cache entry or no such candidate — callers fall
/// back to their historical constant (bench/lowering_compare.cpp).
std::optional<int64_t> cachedBestWrgChunk(const Workload &W,
                                          const TuneConfig &C);

} // namespace tune
} // namespace lift

#endif // LIFT_TUNE_CACHE_H
