//===- Cache.cpp - Persistent tuning cache --------------------------------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "tune/Cache.h"

#include "ir/Printer.h"
#include "support/ContentStore.h"
#include "support/Json.h"

#include <cstdio>

using namespace lift;
using namespace lift::tune;

std::string tune::tuneCacheKey(const Workload &W, const TuneConfig &C) {
  return support::contentHash(ir::printProgram(W.Program) + "|" + C.key());
}

/// The entry's name in the tune store.
static std::string entryName(const Workload &W, const TuneConfig &C) {
  return W.Name + "-" + tuneCacheKey(W, C) + ".json";
}

std::string tune::tuneCachePath(const Workload &W, const TuneConfig &C) {
  return support::ContentStore(C.CacheDir).path(entryName(W, C));
}

//===----------------------------------------------------------------------===//
// JSON encoding of tune entries (the reader/writer machinery itself lives
// in support/Json.h, shared with the liftd service protocol)
//===----------------------------------------------------------------------===//

namespace {

using json::numStr;
using JValue = json::Value;

void writeEscaped(std::string &Out, const std::string &S) {
  json::appendQuoted(Out, S);
}

void writeDerivation(std::string &Out, const Derivation &D) {
  Out += "{\"fuse\": ";
  Out += D.Fuse ? "true" : "false";
  Out += ", \"strategy\": ";
  writeEscaped(Out, mapStrategyName(D.Strategy));
  Out += ", \"chunk\": " + std::to_string(D.Chunk);
  Out += ", \"global\": [" + std::to_string(D.Global[0]) + ", " +
         std::to_string(D.Global[1]) + ", " + std::to_string(D.Global[2]) +
         "]";
  Out += ", \"local\": [" + std::to_string(D.Local[0]) + ", " +
         std::to_string(D.Local[1]) + ", " + std::to_string(D.Local[2]) +
         "]}";
}

bool readInt3(const JValue *V, std::array<int64_t, 3> &Out) {
  if (!V || V->K != JValue::Arr || V->A.size() != 3)
    return false;
  for (size_t I = 0; I != 3; ++I) {
    if (V->A[I].K != JValue::Num)
      return false;
    Out[I] = static_cast<int64_t>(V->A[I].N);
  }
  return true;
}

bool readDerivation(const JValue &V, Derivation &D) {
  if (V.K != JValue::Obj)
    return false;
  const JValue *Fuse = V.field("fuse");
  const JValue *Strat = V.field("strategy");
  const JValue *Chunk = V.field("chunk");
  if (!Fuse || Fuse->K != JValue::Bool || !Strat ||
      Strat->K != JValue::Str || !Chunk || Chunk->K != JValue::Num)
    return false;
  D.Fuse = Fuse->B;
  if (Strat->S == "glb")
    D.Strategy = MapStrategy::Glb;
  else if (Strat->S == "wrg-lcl")
    D.Strategy = MapStrategy::WrgLcl;
  else if (Strat->S == "seq")
    D.Strategy = MapStrategy::Seq;
  else
    return false;
  D.Chunk = static_cast<int64_t>(Chunk->N);
  return readInt3(V.field("global"), D.Global) &&
         readInt3(V.field("local"), D.Local);
}

bool statusFromName(const std::string &S, CandidateStatus &Out) {
  for (CandidateStatus St :
       {CandidateStatus::Ok, CandidateStatus::RejectedLowering,
        CandidateStatus::RejectedVerify, CandidateStatus::RejectedCompile,
        CandidateStatus::RejectedExec, CandidateStatus::RejectedMismatch})
    if (S == candidateStatusName(St)) {
      Out = St;
      return true;
    }
  return false;
}

} // namespace

bool tune::loadCachedResult(const Workload &W, const TuneConfig &C,
                            TuneResult &R, DiagnosticEngine *Engine) {
  if (C.CacheDir.empty())
    return false;
  const support::ContentStore Store(C.CacheDir);
  const std::string File = entryName(W, C);
  const std::string Path = Store.path(File);

  // A corrupt entry is set aside so it cannot shadow the fresh store a
  // re-tune will perform; a stale entry (key mismatch below) stays in
  // place as a silent miss.
  auto Quarantined = [&](const std::string &Why) {
    if (Engine)
      Engine->warning(DiagCode::CacheEntryQuarantined,
                      DiagLocation::inContext("tune:" + W.Name),
                      "tune cache entry '" + Path + "' is corrupt (" + Why +
                          "); quarantined to '" + Path +
                          ".corrupt' and treated as a miss");
    else
      std::fprintf(stderr,
                   "lift: warning: tune cache entry '%s' is corrupt (%s); "
                   "quarantined and treated as a miss\n",
                   Path.c_str(), Why.c_str());
    return false;
  };
  support::ContentStore::Entry E = Store.get(File);
  if (E.K == support::ContentStore::Entry::Corrupt)
    return Quarantined(E.Why);
  if (E.K == support::ContentStore::Entry::Miss)
    return false;
  // Bytes that match their sidecar but not the entry format.
  auto Quarantine = [&](const std::string &Why) {
    Store.quarantine(File);
    return Quarantined(Why);
  };

  JValue Root;
  if (!json::parse(E.Bytes, Root) || Root.K != JValue::Obj)
    return Quarantine("malformed or truncated JSON");
  // Schema gate: entries written before the schema field existed are the
  // implicit v1 shape, which v2 reads unchanged (v2 only adds fields); an
  // entry from a *newer* writer is a silent miss, not corruption.
  if (const JValue *Schema = Root.field("schema"))
    if (Schema->K != JValue::Str || Schema->S != "lift-tune-v2")
      return false;
  const JValue *Key = Root.field("key");
  if (!Key || Key->K != JValue::Str)
    return Quarantine("missing entry key");
  if (Key->S != tuneCacheKey(W, C))
    return false;
  const JValue *Name = Root.field("workload");
  const JValue *DefCost = Root.field("default_cost");
  const JValue *Enumerated = Root.field("candidates_enumerated");
  const JValue *Traj = Root.field("trajectory");
  if (!Name || Name->K != JValue::Str || Name->S != W.Name || !DefCost ||
      DefCost->K != JValue::Num || !Enumerated ||
      Enumerated->K != JValue::Num || !Traj || Traj->K != JValue::Arr)
    return Quarantine("unexpected entry shape");

  TuneResult Out;
  Out.Workload = Name->S;
  Out.DefaultCost = DefCost->N;
  Out.CandidatesEnumerated = static_cast<unsigned>(Enumerated->N);
  Out.CandidatesEvaluated = 0; // nothing executed on a hit
  Out.CacheHit = true;

  if (const JValue *Best = Root.field("best")) {
    const JValue *BCost = Best->field("cost");
    Derivation D;
    if (!BCost || BCost->K != JValue::Num || !readDerivation(*Best, D))
      return Quarantine("unexpected best-candidate shape");
    Out.HasBest = true;
    Out.Best = D;
    Out.BestCost = BCost->N;
  }

  for (const JValue &E : Traj->A) {
    if (E.K != JValue::Obj)
      return Quarantine("unexpected trajectory shape");
    CandidateOutcome O;
    const JValue *Status = E.field("status");
    const JValue *Cost = E.field("cost");
    const JValue *Detail = E.field("detail");
    if (!Status || Status->K != JValue::Str ||
        !statusFromName(Status->S, O.Status) || !readDerivation(E, O.D))
      return Quarantine("unexpected trajectory shape");
    if (Cost && Cost->K == JValue::Num)
      O.Cost = Cost->N;
    if (Detail && Detail->K == JValue::Str)
      O.Detail = Detail->S;
    Out.Trajectory.push_back(std::move(O));
  }

  R = std::move(Out);
  return true;
}

bool tune::storeCachedResult(const Workload &W, const TuneConfig &C,
                             const TuneResult &R, DiagnosticEngine *Engine) {
  if (C.CacheDir.empty())
    return false;

  std::string J = "{\n";
  J += "  \"schema\": \"lift-tune-v2\"";
  J += ",\n  \"key\": ";
  writeEscaped(J, tuneCacheKey(W, C));
  J += ",\n  \"workload\": ";
  writeEscaped(J, W.Name);
  J += ",\n  \"objective\": ";
  writeEscaped(J, tuneObjectiveName(C.Objective));
  J += ",\n  \"config\": ";
  writeEscaped(J, C.key());
  J += ",\n  \"default_cost\": " + numStr(R.DefaultCost);
  J += ",\n  \"candidates_enumerated\": " +
       std::to_string(R.CandidatesEnumerated);
  J += ",\n  \"candidates_evaluated\": " +
       std::to_string(R.CandidatesEvaluated);
  if (R.HasBest) {
    J += ",\n  \"best\": ";
    std::string B;
    writeDerivation(B, R.Best);
    // Splice the cost into the derivation object.
    B.back() = ',';
    B += " \"cost\": " + numStr(R.BestCost) + "}";
    J += B;
  }
  J += ",\n  \"trajectory\": [";
  for (size_t I = 0; I != R.Trajectory.size(); ++I) {
    const CandidateOutcome &O = R.Trajectory[I];
    std::string E;
    writeDerivation(E, O.D);
    E.back() = ',';
    E += " \"status\": ";
    writeEscaped(E, candidateStatusName(O.Status));
    E += ", \"cost\": " + numStr(O.Cost);
    E += ", \"detail\": ";
    writeEscaped(E, O.Detail);
    E += ", \"trace\": ";
    writeEscaped(E, O.D.trace());
    E += "}";
    J += (I ? ",\n    " : "\n    ") + E;
  }
  J += "\n  ]\n}\n";

  // The lock single-flights concurrent processes storing the same key;
  // the store's temp+rename keeps even an unguarded race safe.
  const support::ContentStore Store(C.CacheDir);
  const std::string Name = entryName(W, C);
  support::FileLock Lock = Store.lock(Name);
  std::string Err;
  if (Store.put(Name, J, Err))
    return true;
  if (Engine)
    Engine->warning(DiagCode::CacheWriteFailed,
                    DiagLocation::inContext("tune:" + W.Name),
                    "tune cache entry not persisted (" + Err +
                        "); the next invocation will re-tune");
  else
    std::fprintf(stderr,
                 "lift: warning: tune cache entry for '%s' not "
                 "persisted; the next invocation will re-tune\n",
                 W.Name.c_str());
  return false;
}

std::optional<int64_t> tune::cachedBestWrgChunk(const Workload &W,
                                                const TuneConfig &C) {
  TuneResult R;
  if (!loadCachedResult(W, C, R))
    return std::nullopt;
  bool Found = false;
  double BestCost = 0;
  int64_t BestChunk = 0;
  for (const CandidateOutcome &O : R.Trajectory) {
    if (O.Status != CandidateStatus::Ok ||
        O.D.Strategy != MapStrategy::WrgLcl)
      continue;
    if (!Found || O.Cost < BestCost) {
      Found = true;
      BestCost = O.Cost;
      BestChunk = O.D.Chunk;
    }
  }
  if (!Found)
    return std::nullopt;
  return BestChunk;
}
