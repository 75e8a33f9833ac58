//===- Trace.cpp - Spans around the calls into each layer -----------------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <atomic>
#include <cstdio>

using namespace perfbench;

namespace {

/// The calling thread's open spans, innermost last.
thread_local std::vector<long> OpenSpans;

unsigned threadTag() {
  static std::atomic<unsigned> Next{1};
  thread_local const unsigned Tag = Next++;
  return Tag;
}

} // namespace

double perfbench::msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

long Tracer::open(const std::string &Name) {
  Span S;
  S.Name = Name;
  S.StartUs = msSince(T0) * 1000;
  S.Tid = threadTag();
  S.Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  long Id;
  {
    std::lock_guard<std::mutex> L(M);
    Spans.push_back(std::move(S));
    Id = static_cast<long>(Spans.size()) - 1;
  }
  OpenSpans.push_back(Id);
  return Id;
}

void Tracer::close(long Id) {
  const double NowUs = msSince(T0) * 1000;
  {
    std::lock_guard<std::mutex> L(M);
    Spans[static_cast<size_t>(Id)].DurUs =
        NowUs - Spans[static_cast<size_t>(Id)].StartUs;
  }
  if (!OpenSpans.empty() && OpenSpans.back() == Id)
    OpenSpans.pop_back();
}

void Tracer::derived(const std::string &Name, long Parent, double OffsetMs,
                     double DurMs) {
  if (!On || Parent < 0)
    return;
  std::lock_guard<std::mutex> L(M);
  const Span &P = Spans[static_cast<size_t>(Parent)];
  Span S;
  S.Name = Name;
  S.StartUs = P.StartUs + OffsetMs * 1000;
  S.DurUs = DurMs * 1000;
  S.Tid = P.Tid;
  S.Parent = Parent;
  Spans.push_back(std::move(S));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> L(M);
  return Spans.size();
}

std::map<std::string, double> Tracer::selfMs(size_t From, size_t To) const {
  std::lock_guard<std::mutex> L(M);
  std::vector<double> ChildUs(To - From, 0);
  for (size_t I = From; I != To; ++I) {
    long P = Spans[I].Parent;
    if (P >= static_cast<long>(From) && P < static_cast<long>(To))
      ChildUs[static_cast<size_t>(P) - From] += Spans[I].DurUs;
  }
  std::map<std::string, double> Self;
  for (size_t I = From; I != To; ++I)
    Self[Spans[I].Name] += (Spans[I].DurUs - ChildUs[I - From]) / 1000;
  return Self;
}

bool Tracer::writeChromeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::lock_guard<std::mutex> L(M);
  std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t I = 0; I != Spans.size(); ++I)
    std::fprintf(F,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f}%s\n",
                 Spans[I].Name.c_str(), Spans[I].Tid, Spans[I].StartUs,
                 Spans[I].DurUs, I + 1 == Spans.size() ? "" : ",");
  std::fprintf(F, "]}\n");
  return std::fclose(F) == 0;
}
