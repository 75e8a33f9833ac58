//===- NativeBackendTest.cpp - Native backend differential tier -----------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native-vs-simulator differential tier (ctest -L native). The
/// native C++/OpenMP backend (src/native) lowers every float to double —
/// exactly the simulator's value model — so for every program in the
/// supported subset the two backends must agree bit-for-bit:
///
///  - all twelve paper benchmarks, at 1, 2 and 8 OpenMP threads, under
///    the full optimization configuration and with the hand-written
///    reference kernels;
///  - several hundred random well-typed programs from the shared
///    generator (Generator.h), including the local-memory staging case;
///  - float-literal torture kernels (the CPrinter round-trip bugfix):
///    literals that are not exactly representable must survive
///    print -> system compiler -> execute without drifting;
///  - injected toolchain faults (compile / dlopen / dlsym) must fail
///    cleanly into Expected<>, leak no temp files into the cache
///    directory, and leave both backends usable afterwards;
///  - the artifact store: corrupt objects are quarantined and rebuilt,
///    read faults are plain misses, nested cache directories are
///    created, and a build without OpenMP is noted.
///
/// Every test skips cleanly when no system compiler is installed
/// (native::toolchainCompiler() empty).
///
//===----------------------------------------------------------------------===//

#include "Generator.h"
#include "TestHelpers.h"
#include "cast/CPrinter.h"
#include "native/Native.h"
#include "native/NativePrinter.h"
#include "suite/Benchmark.h"
#include "support/Diagnostics.h"
#include "support/FaultInject.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

using namespace lift;
using namespace lift::ir;
using namespace lift::test;

namespace {

bool haveToolchain() { return !native::toolchainCompiler().empty(); }

#define SKIP_WITHOUT_TOOLCHAIN()                                               \
  do {                                                                         \
    if (!haveToolchain())                                                      \
      GTEST_SKIP() << "no system C++ compiler on PATH "                        \
                      "(set LIFT_NATIVE_CXX to override)";                     \
  } while (0)

/// Bit-level comparison: NaNs and signed zeros must agree too.
bool bitIdentical(const std::vector<float> &A, const std::vector<float> &B) {
  return A.size() == B.size() &&
         (A.empty() ||
          std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) == 0);
}

//===----------------------------------------------------------------------===//
// Benchmarks: simulator and native agree bit-for-bit
//===----------------------------------------------------------------------===//

class BenchmarkDifferential
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BenchmarkDifferential, LiftStagesBitIdentical) {
  SKIP_WITHOUT_TOOLCHAIN();
  auto Cases = bench::allBenchmarks(/*Large=*/false);
  int Index = std::get<0>(GetParam());
  int Threads = std::get<1>(GetParam());
  ASSERT_LT(static_cast<size_t>(Index), Cases.size());
  const bench::BenchmarkCase &Case = Cases[static_cast<size_t>(Index)];

  bench::RunOptions Run;
  Run.Threads = 1; // the simulator side: serial, the determinism anchor
  DiagnosticEngine SimEngine;
  Expected<bench::Outcome> Sim =
      bench::runLiftChecked(Case, bench::OptConfig::Full, Run, SimEngine);
  ASSERT_TRUE(bool(Sim)) << Case.Name << ":\n" << SimEngine.render();
  EXPECT_TRUE(Sim->Valid) << Case.Name << " max error " << Sim->MaxError;

  Run.Threads = Threads;
  DiagnosticEngine NatEngine;
  Expected<bench::NativeOutcome> Nat = bench::runLiftNativeChecked(
      Case, bench::OptConfig::Full, Run, NatEngine);
  ASSERT_TRUE(bool(Nat)) << Case.Name << ":\n" << NatEngine.render();
  EXPECT_TRUE(Nat->Valid) << Case.Name << " max error " << Nat->MaxError;

  EXPECT_TRUE(bitIdentical(Sim->Output, Nat->Output))
      << Case.Name << ": native output differs from the simulator at "
      << Threads << " threads";
}

TEST_P(BenchmarkDifferential, ReferenceStagesBitIdentical) {
  SKIP_WITHOUT_TOOLCHAIN();
  auto Cases = bench::allBenchmarks(/*Large=*/false);
  int Index = std::get<0>(GetParam());
  int Threads = std::get<1>(GetParam());
  if (Threads != 1)
    GTEST_SKIP() << "reference kernels are swept once per benchmark";
  const bench::BenchmarkCase &Case = Cases[static_cast<size_t>(Index)];

  bench::RunOptions Run;
  Run.Threads = 1;
  DiagnosticEngine SimEngine;
  Expected<bench::Outcome> Sim =
      bench::runReferenceChecked(Case, Run, SimEngine);
  ASSERT_TRUE(bool(Sim)) << Case.Name << ":\n" << SimEngine.render();

  Run.Threads = 2;
  DiagnosticEngine NatEngine;
  Expected<bench::NativeOutcome> Nat =
      bench::runReferenceNativeChecked(Case, Run, NatEngine);
  ASSERT_TRUE(bool(Nat)) << Case.Name << ":\n" << NatEngine.render();
  EXPECT_TRUE(Nat->Valid) << Case.Name << " max error " << Nat->MaxError;

  EXPECT_TRUE(bitIdentical(Sim->Output, Nat->Output))
      << Case.Name << ": native reference output differs from the simulator";
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkDifferential,
                         ::testing::Combine(::testing::Range(0, 12),
                                            ::testing::Values(1, 2, 8)));

//===----------------------------------------------------------------------===//
// Random well-typed programs
//===----------------------------------------------------------------------===//

class GeneratorDifferential : public ::testing::TestWithParam<int> {};

TEST_P(GeneratorDifferential, BitIdenticalToSimulator) {
  SKIP_WITHOUT_TOOLCHAIN();
  constexpr int ProgramsPerSeed = 4;
  for (int I = 0; I != ProgramsPerSeed; ++I) {
    uint64_t Seed = static_cast<uint64_t>(GetParam()) * 977 + I;
    size_t OutCount = 0;
    bool TwoInputs = false;
    LambdaPtr P = generateWellTyped(Seed, OutCount, TwoInputs);

    DiagnosticEngine Engine;
    codegen::CompilerOptions Opts;
    Opts.GlobalSize = {16, 1, 1};
    Opts.LocalSize = {4, 1, 1};
    Expected<codegen::CompiledKernel> K =
        codegen::compileChecked(P, Opts, Engine);
    ASSERT_TRUE(bool(K)) << "seed " << Seed << ":\n" << Engine.render();

    auto launchOn = [&](bool Native,
                        std::vector<float> &Out) -> ::testing::AssertionResult {
      ocl::Buffer In = ocl::Buffer::ofFloats(randomFloats(48, Seed));
      ocl::Buffer In2 = ocl::Buffer::ofFloats(randomFloats(48, Seed + 7));
      ocl::Buffer OutBuf = ocl::Buffer::zeros(OutCount);
      std::vector<ocl::Buffer *> Bufs;
      Bufs.push_back(&In);
      if (TwoInputs)
        Bufs.push_back(&In2);
      Bufs.push_back(&OutBuf);
      ocl::LaunchConfig Cfg = ocl::LaunchConfig::fromOptions(Opts);
      Cfg.Threads = Native ? static_cast<int>(1 + Seed % 8) : 1;
      DiagnosticEngine E;
      bool Ok;
      if (Native)
        Ok = bool(native::launchNativeChecked(*K, Bufs, {{"N", 48}}, Cfg, E));
      else
        Ok = bool(ocl::launchChecked(*K, Bufs, {{"N", 48}}, Cfg, E));
      if (!Ok)
        return ::testing::AssertionFailure()
               << (Native ? "native" : "sim") << " launch failed (seed "
               << Seed << "):\n"
               << E.render();
      Out = OutBuf.toFlatFloats();
      return ::testing::AssertionSuccess();
    };

    std::vector<float> SimOut, NatOut;
    ASSERT_TRUE(launchOn(false, SimOut));
    ASSERT_TRUE(launchOn(true, NatOut));
    EXPECT_TRUE(bitIdentical(SimOut, NatOut))
        << "seed " << Seed << ": native output differs from the simulator";
  }
}

// 64 seeds x 4 programs = 256 differential programs (>= 200 per the
// acceptance floor), spanning every generator case including the
// local-memory staging programs (mapWrg / toLocal / mapLcl).
INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorDifferential,
                         ::testing::Range(0, 64));

//===----------------------------------------------------------------------===//
// Float-literal round trip (the CPrinter precision bugfix)
//===----------------------------------------------------------------------===//

TEST(NativeFloatLiterals, FormatterRoundTripsExactly) {
  // The regression that motivated max_digits10: literals printed with %g's
  // default 6 digits drift when re-parsed. Every finite double must
  // strtod back to the same bits; floats must strtof back.
  const double Doubles[] = {0.1,       1.0 / 3.0, 3.14159265358979323846,
                            1e-308,    1e308,     -0.0,
                            123456.78, 2.5e-15};
  for (double V : Doubles) {
    std::string S = lift::c::formatFloatLiteral(V, /*IsDouble=*/true);
    EXPECT_EQ(std::strtod(S.c_str(), nullptr), V) << S;
  }
  const float Floats[] = {0.1f, 0.30000001192092896f, 1e-38f, 3.402e38f};
  for (float V : Floats) {
    std::string S = lift::c::formatFloatLiteral(static_cast<double>(V),
                                             /*IsDouble=*/false);
    EXPECT_EQ(std::strtof(S.c_str(), nullptr), V) << S;
  }
  // Non-finite values must print as the OpenCL/C99 macros, not inf/nan
  // text that no C compiler accepts as a literal.
  EXPECT_NE(
      lift::c::formatFloatLiteral(std::numeric_limits<double>::infinity(), true)
          .find("INFINITY"),
      std::string::npos);
  EXPECT_NE(lift::c::formatFloatLiteral(
                std::numeric_limits<double>::quiet_NaN(), true)
                .find("NAN"),
            std::string::npos);
}

TEST(NativeFloatLiterals, TortureKernelBitIdentical) {
  SKIP_WITHOUT_TOOLCHAIN();
  // A reference-source kernel dense with literals that are not exactly
  // representable: if either printer rounds a literal, the differential
  // (and the golden check) catches it.
  bench::BenchmarkCase Case;
  Case.Name = "literal-torture";
  Case.WorkingBuffers.push_back(bench::BufferInit::floats(
      bench::randomFloats(64, 17)));
  Case.WorkingBuffers.push_back(bench::BufferInit::zeros(64));
  Case.OutputBuffer = 1;

  bench::Stage S;
  S.ReferenceSource = R"(
kernel void lit_torture(global float *restrict in,
                        global float *restrict out, int N) {
  int i = get_global_id(0);
  if (i < N) {
    float x = in[i];
    float a = x * 0.1f + 0.30000001192092896f;
    float b = a * 1.0000001f - 2.5e-15f;
    out[i] = b * 3.1415927f + 1e-38f;
  }
}
)";
  S.Global = {64, 1, 1};
  S.Local = {16, 1, 1};
  S.Buffers = {0, 1};
  S.Sizes = {{"N", 64}};
  Case.ReferenceStages.push_back(S);

  // Golden output computed in the simulator's value model (double all
  // the way; literals parsed as double).
  std::vector<float> In = bench::randomFloats(64, 17);
  Case.Expected.resize(64);
  for (size_t I = 0; I != 64; ++I) {
    double X = static_cast<double>(In[I]);
    double A = X * 0.1 + 0.30000001192092896;
    double B = A * 1.0000001 - 2.5e-15;
    Case.Expected[I] = static_cast<float>(B * 3.1415927 + 1e-38);
  }
  Case.Tolerance = 1e-6;

  bench::RunOptions Run;
  Run.Threads = 1;
  DiagnosticEngine SimEngine, NatEngine;
  Expected<bench::Outcome> Sim =
      bench::runReferenceChecked(Case, Run, SimEngine);
  ASSERT_TRUE(bool(Sim)) << SimEngine.render();
  EXPECT_TRUE(Sim->Valid) << "sim max error " << Sim->MaxError;
  Run.Threads = 2;
  Expected<bench::NativeOutcome> Nat =
      bench::runReferenceNativeChecked(Case, Run, NatEngine);
  ASSERT_TRUE(bool(Nat)) << NatEngine.render();
  EXPECT_TRUE(Nat->Valid) << "native max error " << Nat->MaxError;
  EXPECT_TRUE(bitIdentical(Sim->Output, Nat->Output));
}

//===----------------------------------------------------------------------===//
// Injected toolchain faults: clean failure, no leaks, usable afterwards
//===----------------------------------------------------------------------===//

class NativeFaultInjection : public ::testing::Test {
protected:
  std::string CacheDir;

  void SetUp() override {
    if (!haveToolchain())
      GTEST_SKIP() << "no system C++ compiler on PATH";
    // Per-process cache: ctest runs each test in its own process, and
    // concurrent tests sharing a directory would delete it from under
    // each other's compiles.
    CacheDir = ::testing::TempDir() + "lift-native-fault-cache-" +
               std::to_string(::getpid());
    ::setenv("LIFT_NATIVE_CACHE_DIR", CacheDir.c_str(), 1);
  }

  void TearDown() override {
    fault::disarm();
    ::unsetenv("LIFT_NATIVE_CACHE_DIR");
    std::error_code EC;
    std::filesystem::remove_all(CacheDir, EC);
  }

  /// No half-written temp files may survive an injected fault.
  void expectNoTempFiles() {
    std::error_code EC;
    for (const auto &Entry :
         std::filesystem::directory_iterator(CacheDir, EC))
      EXPECT_EQ(Entry.path().filename().string().find(".tmp"),
                std::string::npos)
          << "leaked temp file: " << Entry.path();
  }

  Expected<bench::NativeOutcome> launchNative(DiagnosticEngine &E) {
    bench::RunOptions Run;
    Run.Threads = 1;
    return bench::runLiftNativeChecked(bench::makeNN(false),
                                       bench::OptConfig::Full, Run, E);
  }
};

TEST_F(NativeFaultInjection, ToolchainSitesFailCleanly) {
  using fault::Site;
  for (Site S :
       {Site::NativeCompile, Site::NativeLoad, Site::NativeSym}) {
    // Fresh cache per site so the compile path really runs each time.
    std::error_code EC;
    std::filesystem::remove_all(CacheDir, EC);
    // Persistent outage: the toolchain sites sit under the transient
    // retry policy (support/Retry.h), which recovers a one-shot fault.
    fault::armAlways(S);
    DiagnosticEngine E;
    Expected<bench::NativeOutcome> R = launchNative(E);
    EXPECT_FALSE(bool(R)) << "site " << fault::siteName(S)
                          << " did not fail";
    bool SawInjected = false;
    for (const Diagnostic &D : E.diagnostics())
      SawInjected |= D.Code == DiagCode::RuntimeFaultInjected;
    EXPECT_TRUE(SawInjected)
        << "site " << fault::siteName(S) << " produced:\n"
        << E.render();
    expectNoTempFiles();
    fault::disarm();

    // Both backends recover immediately after the fault clears.
    DiagnosticEngine E2;
    Expected<bench::NativeOutcome> R2 = launchNative(E2);
    EXPECT_TRUE(bool(R2)) << E2.render();
    bench::RunOptions Run;
    Run.Threads = 1;
    DiagnosticEngine E3;
    Expected<bench::Outcome> Sim = bench::runLiftChecked(
        bench::makeNN(false), bench::OptConfig::Full, Run, E3);
    EXPECT_TRUE(bool(Sim)) << E3.render();
  }
}

/// Artifact-cache integrity: a cached .so whose bytes no longer match
/// the recorded content hash (torn write, disk corruption, a different
/// compiler clobbering the file) is evicted and recompiled with an
/// E0611 warning — and the relaunched benchmark still validates.
TEST_F(NativeFaultInjection, CorruptCachedObjectIsEvictedAndRecompiled) {
  namespace fs = std::filesystem;

  // Warm the cache and remember the artifacts.
  DiagnosticEngine E1;
  Expected<bench::NativeOutcome> Warm = launchNative(E1);
  ASSERT_TRUE(bool(Warm)) << E1.render();
  std::vector<fs::path> Objects;
  for (const auto &Entry : fs::directory_iterator(CacheDir)) {
    if (Entry.path().extension() == ".so") {
      Objects.push_back(Entry.path());
      // Every artifact carries its content-hash sidecar.
      fs::path Hash = Entry.path();
      Hash.replace_extension(".hash");
      EXPECT_TRUE(fs::exists(Hash)) << "missing sidecar for " << Entry.path();
    }
  }
  ASSERT_FALSE(Objects.empty()) << "warm launch cached no shared objects";

  // Swap every cached object for garbage. Replace via rename rather than
  // truncating in place: the warm launch still holds these objects mapped,
  // and yanking a mapped inode's pages out from under the process SIGBUSes
  // on the next fault-in (in dlclose's FINI walk, here) — a POSIX hazard no
  // integrity check can defend against. Rename-replace models the real
  // corruption (the path now serves wrong bytes) while the old inode stays
  // alive until the runtime evicts and unmaps it.
  for (const fs::path &So : Objects) {
    fs::path Tmp = So;
    Tmp += ".garbage";
    {
      std::ofstream Out(Tmp, std::ios::trunc | std::ios::binary);
      Out << "not an object file";
    }
    fs::rename(Tmp, So);
  }

  DiagnosticEngine E2;
  Expected<bench::NativeOutcome> Again = launchNative(E2);
  ASSERT_TRUE(bool(Again)) << E2.render();
  EXPECT_TRUE(Again->Valid);
  bool SawEviction = false;
  for (const Diagnostic &D : E2.diagnostics())
    SawEviction |= D.Code == DiagCode::NativeArtifactCorrupt;
  EXPECT_TRUE(SawEviction) << "no E0611 eviction warning:\n" << E2.render();
  EXPECT_FALSE(E2.hasErrors()) << E2.render();
  EXPECT_EQ(Warm->Output, Again->Output)
      << "recompilation after corruption changed the results";

  // A missing sidecar is the same condition (the hash was never
  // persisted): reuse is refused and the artifact recompiled.
  for (const fs::path &So : Objects) {
    fs::path Hash = So;
    Hash.replace_extension(".hash");
    fs::remove(Hash);
  }
  DiagnosticEngine E3;
  Expected<bench::NativeOutcome> Third = launchNative(E3);
  ASSERT_TRUE(bool(Third)) << E3.render();
  bool SawMissing = false;
  for (const Diagnostic &D : E3.diagnostics())
    SawMissing |= D.Code == DiagCode::NativeArtifactCorrupt;
  EXPECT_TRUE(SawMissing) << "missing sidecar went unnoticed:\n"
                          << E3.render();
  EXPECT_EQ(Warm->Output, Third->Output);
}

TEST_F(NativeFaultInjection, SeededSweepNeverLeaks) {
  // The soak-style mode: probabilistic faults across every site while the
  // native path runs repeatedly. Every launch either succeeds or fails
  // with recorded diagnostics; the cache directory stays temp-free.
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    fault::armSeeded(Seed);
    DiagnosticEngine E;
    Expected<bench::NativeOutcome> R = launchNative(E);
    if (!R) {
      EXPECT_TRUE(E.hasErrors()) << "silent failure at seed " << Seed;
    }
    expectNoTempFiles();
  }
  fault::disarm();
  DiagnosticEngine E;
  EXPECT_TRUE(bool(launchNative(E))) << E.render();
}

/// A cache directory whose parents do not exist yet is created whole by
/// the first compile: the launch stays native (no E0610 fallback to the
/// simulator) and the artifact lands in the nested directory.
TEST_F(NativeFaultInjection, NestedCacheDirectoryIsCreated) {
  namespace fs = std::filesystem;
  const std::string Nested = CacheDir + "/a/b";
  std::error_code EC;
  fs::remove_all(CacheDir, EC);
  ::setenv("LIFT_NATIVE_CACHE_DIR", Nested.c_str(), 1);

  bench::RunOptions Run;
  Run.Threads = 1;
  DiagnosticEngine E;
  bool UsedFallback = true;
  Expected<bench::Outcome> R = bench::runLiftNativeOrSimChecked(
      bench::makeNN(false), bench::OptConfig::Full, Run, E, &UsedFallback);
  ASSERT_TRUE(bool(R)) << E.render();
  EXPECT_FALSE(UsedFallback) << E.render();
  for (const Diagnostic &D : E.diagnostics())
    EXPECT_NE(D.Code, DiagCode::NativeFallback) << D.render();

  size_t Objects = 0;
  for (const auto &Entry : fs::directory_iterator(Nested, EC))
    if (Entry.path().extension() == ".so") {
      ++Objects;
      EXPECT_EQ(Entry.path().stem().string().size(), 16u) << Entry.path();
    }
  EXPECT_GT(Objects, 0u) << "no <key>.so in " << Nested;
}

/// A read fault on a warm launch is a spurious I/O error, not corruption:
/// the artifact stays where it is, is reused, and nothing warns E0611.
TEST_F(NativeFaultInjection, ReadFaultOnWarmLaunchKeepsTheArtifact) {
  namespace fs = std::filesystem;
  DiagnosticEngine E1;
  ASSERT_TRUE(bool(launchNative(E1))) << E1.render();
  std::map<std::string, ino_t> Inodes;
  for (const auto &Entry : fs::directory_iterator(CacheDir))
    if (Entry.path().extension() == ".so") {
      struct stat St;
      ASSERT_EQ(::stat(Entry.path().c_str(), &St), 0);
      Inodes[Entry.path().string()] = St.st_ino;
    }
  ASSERT_FALSE(Inodes.empty()) << "warm launch cached no shared objects";

  fault::arm(fault::Site::CacheRead, 1);
  DiagnosticEngine E2;
  Expected<bench::NativeOutcome> R = launchNative(E2);
  const uint64_t Fired = fault::occurrences(fault::Site::CacheRead);
  fault::disarm();
  ASSERT_TRUE(bool(R)) << E2.render();
  EXPECT_GE(Fired, 1u) << "the read fault site never fired";
  for (const Diagnostic &D : E2.diagnostics())
    EXPECT_NE(D.Code, DiagCode::NativeArtifactCorrupt) << D.render();
  for (const auto &[Path, Ino] : Inodes) {
    struct stat St;
    ASSERT_EQ(::stat(Path.c_str(), &St), 0) << Path << " was moved away";
    EXPECT_EQ(St.st_ino, Ino) << Path << " was rebuilt";
  }
}

/// A toolchain without OpenMP still builds the kernel, serially, and says
/// so: the launch records a note carrying the failed -fopenmp build's
/// output. The compiler is a script that rejects -fopenmp; since
/// toolchainCompiler() resolves once per process, the test only runs
/// when nothing resolved it earlier (ctest runs each test on its own).
TEST(NativeOpenMPFallback, SerialRebuildIsNoted) {
  namespace fs = std::filesystem;
  if (std::system("command -v c++ >/dev/null 2>&1") != 0)
    GTEST_SKIP() << "no c++ on PATH";
  const fs::path Dir = fs::path(::testing::TempDir()) /
                       ("lift-native-no-openmp-" + std::to_string(::getpid()));
  struct Cleanup {
    fs::path Dir;
    ~Cleanup() {
      ::unsetenv("LIFT_NATIVE_CXX");
      ::unsetenv("LIFT_NATIVE_CACHE_DIR");
      std::error_code EC;
      fs::remove_all(Dir, EC);
    }
  } Guard{Dir};
  fs::create_directories(Dir);
  const std::string Cxx = (Dir / "cxx-without-openmp").string();
  {
    std::ofstream Out(Cxx);
    Out << "#!/bin/sh\n"
           "for A in \"$@\"; do\n"
           "  if [ \"$A\" = -fopenmp ]; then\n"
           "    echo 'cxx-without-openmp: -fopenmp is not supported' >&2\n"
           "    exit 1\n"
           "  fi\n"
           "done\n"
           "exec c++ \"$@\"\n";
  }
  fs::permissions(Cxx, fs::perms::owner_all);
  ::setenv("LIFT_NATIVE_CXX", Cxx.c_str(), 1);
  ::setenv("LIFT_NATIVE_CACHE_DIR", (Dir / "cache").c_str(), 1);
  if (native::toolchainCompiler() != Cxx)
    GTEST_SKIP() << "the toolchain was resolved earlier in this process";

  bench::RunOptions Run;
  Run.Threads = 1;
  DiagnosticEngine E;
  Expected<bench::NativeOutcome> R = bench::runLiftNativeChecked(
      bench::makeNN(false), bench::OptConfig::Full, Run, E);
  ASSERT_TRUE(bool(R)) << E.render();
  EXPECT_TRUE(R->Valid);
  bool SawNote = false;
  for (const Diagnostic &D : E.diagnostics())
    SawNote |= D.Severity == DiagSeverity::Note &&
               D.Message.find("-fopenmp is not supported") != std::string::npos;
  EXPECT_TRUE(SawNote) << "the serial rebuild was silent:\n" << E.render();
}

//===----------------------------------------------------------------------===//
// Data-dependent Lookup tables (gatherIndices) through lift_lookup
//===----------------------------------------------------------------------===//

// gatherIndices lowers to an arith Lookup (data-dependent index into a
// runtime table); the native backend routes it through the bounds-checked
// lift_lookup helper. Builds idx[16] selecting from x[8].
ir::LambdaPtr gatherProgram() {
  using namespace ir::dsl;
  auto N = arith::sizeVar("N");
  auto M = arith::sizeVar("M");
  ParamPtr Idx = param("idx", arrayOf(int32(), M));
  ParamPtr X = param("x", arrayOf(float32(), N));
  return lambda({Idx, X}, pipe(call(gatherIndices(), {Idx, X}),
                               mapGlb(prelude::idFloatFun())));
}

Expected<codegen::CompiledKernel> compileGather(DiagnosticEngine &Engine) {
  codegen::CompilerOptions Opts;
  Opts.GlobalSize = {8, 1, 1};
  Opts.LocalSize = {4, 1, 1};
  return codegen::compileChecked(gatherProgram(), Opts, Engine);
}

TEST(NativeLookup, GatherIndicesBitIdentical) {
  SKIP_WITHOUT_TOOLCHAIN();
  DiagnosticEngine Engine;
  Expected<codegen::CompiledKernel> K = compileGather(Engine);
  ASSERT_TRUE(bool(K)) << Engine.render();

  const std::vector<int> Indices = {5, 3, 7, 1, 0, 6, 2, 4,
                                    5, 5, 5, 5, 0, 1, 2, 3};
  const std::vector<float> In = randomFloats(8, 18);
  ocl::LaunchConfig Cfg;
  Cfg.Global = {8, 1, 1};
  Cfg.Local = {4, 1, 1};
  const std::map<std::string, int64_t> Sizes = {{"N", 8}, {"M", 16}};

  ocl::Buffer SimIdx = ocl::Buffer::ofInts(Indices);
  ocl::Buffer SimX = ocl::Buffer::ofFloats(In);
  ocl::Buffer SimOut = ocl::Buffer::zeros(Indices.size());
  ASSERT_TRUE(bool(ocl::launchChecked(*K, {&SimIdx, &SimX, &SimOut}, Sizes,
                                      Cfg, Engine)))
      << Engine.render();

  ocl::Buffer NatIdx = ocl::Buffer::ofInts(Indices);
  ocl::Buffer NatX = ocl::Buffer::ofFloats(In);
  ocl::Buffer NatOut = ocl::Buffer::zeros(Indices.size());
  ASSERT_TRUE(bool(native::launchNativeChecked(
      *K, {&NatIdx, &NatX, &NatOut}, Sizes, Cfg, Engine)))
      << Engine.render();

  EXPECT_TRUE(bitIdentical(SimOut.toFlatFloats(), NatOut.toFlatFloats()));
}

TEST(NativeLookup, OutOfBoundsMatchesSimulator) {
  SKIP_WITHOUT_TOOLCHAIN();
  DiagnosticEngine Engine;
  Expected<codegen::CompiledKernel> K = compileGather(Engine);
  ASSERT_TRUE(bool(K)) << Engine.render();

  // idx[3] == 9 reads past x[8): both runtimes must fail with the same
  // E0503 "load out of bounds" diagnostic (the lookup itself is in
  // bounds; the gathered load it feeds is not).
  const std::vector<int> Indices = {5, 3, 7, 9, 0, 6, 2, 4,
                                    5, 5, 5, 5, 0, 1, 2, 3};
  const std::vector<float> In = randomFloats(8, 18);
  ocl::LaunchConfig Cfg;
  Cfg.Global = {8, 1, 1};
  Cfg.Local = {4, 1, 1};
  const std::map<std::string, int64_t> Sizes = {{"N", 8}, {"M", 16}};

  {
    DiagnosticEngine E;
    ocl::Buffer Idx = ocl::Buffer::ofInts(Indices);
    ocl::Buffer X = ocl::Buffer::ofFloats(In);
    ocl::Buffer Out = ocl::Buffer::zeros(Indices.size());
    Expected<ocl::LaunchResult> R =
        ocl::launchChecked(*K, {&Idx, &X, &Out}, Sizes, Cfg, E);
    ASSERT_FALSE(bool(R)) << "simulator accepted an out-of-bounds lookup";
    EXPECT_TRUE(E.render().find("load out of bounds: index 9 of 8") !=
                std::string::npos)
        << E.render();
  }
  {
    DiagnosticEngine E;
    ocl::Buffer Idx = ocl::Buffer::ofInts(Indices);
    ocl::Buffer X = ocl::Buffer::ofFloats(In);
    ocl::Buffer Out = ocl::Buffer::zeros(Indices.size());
    Expected<native::NativeLaunchResult> R =
        native::launchNativeChecked(*K, {&Idx, &X, &Out}, Sizes, Cfg, E);
    ASSERT_FALSE(bool(R)) << "native backend accepted an out-of-bounds lookup";
    EXPECT_TRUE(E.render().find("load out of bounds: index 9 of 8") !=
                std::string::npos)
        << E.render();
    EXPECT_TRUE(Out.Poisoned);
  }
}

//===----------------------------------------------------------------------===//
// Host memory accounting across the marshalling boundary
//===----------------------------------------------------------------------===//

/// The native launch marshals every pointer parameter into flat word
/// arrays (plus a pre-launch copy of caller buffers for readback); that
/// transient footprint must show up in the host high-water mark and be
/// fully released when the launch returns. The gather kernel pins the
/// exact numbers: three caller buffers of 16 + 8 + 16 scalar elements,
/// one 64-bit word each, marshalled and saved.
TEST(NativeHostMemory, MarshallingChargesTheHostHighWater) {
  SKIP_WITHOUT_TOOLCHAIN();
  DiagnosticEngine Engine;
  Expected<codegen::CompiledKernel> K = compileGather(Engine);
  ASSERT_TRUE(bool(K)) << Engine.render();

  // Warm the shared-object cache so the measured launch does not also
  // account a first-time compile.
  const std::vector<int> Indices = {5, 3, 7, 1, 0, 6, 2, 4,
                                    5, 5, 5, 5, 0, 1, 2, 3};
  const std::vector<float> In = randomFloats(8, 18);
  ocl::LaunchConfig Cfg;
  Cfg.Global = {8, 1, 1};
  Cfg.Local = {4, 1, 1};
  const std::map<std::string, int64_t> Sizes = {{"N", 8}, {"M", 16}};
  {
    ocl::Buffer Idx = ocl::Buffer::ofInts(Indices);
    ocl::Buffer X = ocl::Buffer::ofFloats(In);
    ocl::Buffer Out = ocl::Buffer::zeros(Indices.size());
    ASSERT_TRUE(bool(native::launchNativeChecked(*K, {&Idx, &X, &Out}, Sizes,
                                                 Cfg, Engine)))
        << Engine.render();
  }

  ocl::resetHostBytesHighWater();
  const uint64_t Live0 = ocl::hostBytesLive();
  ASSERT_EQ(ocl::hostBytesHighWater(), Live0);

  constexpr uint64_t Elements = 16 + 8 + 16;
  {
    ocl::Buffer Idx = ocl::Buffer::ofInts(Indices);
    ocl::Buffer X = ocl::Buffer::ofFloats(In);
    ocl::Buffer Out = ocl::Buffer::zeros(Indices.size());
    const uint64_t TrackedBuffers = ocl::hostBytesLive() - Live0;
    EXPECT_EQ(TrackedBuffers, Elements * sizeof(ocl::Value));

    ASSERT_TRUE(bool(native::launchNativeChecked(*K, {&Idx, &X, &Out}, Sizes,
                                                 Cfg, Engine)))
        << Engine.render();

    // Arena words for every caller buffer plus a pre-launch copy of the
    // one buffer the kernel writes (out, 16 elements); idx and x are
    // proven read-only by the write-set analysis, so their copy and
    // readback are skipped entirely.
    const uint64_t Marshalled = (Elements + 16) * sizeof(uint64_t);
    EXPECT_EQ(ocl::hostBytesHighWater(), Live0 + TrackedBuffers + Marshalled);
    // The marshalling charge is released the moment the launch returns.
    EXPECT_EQ(ocl::hostBytesLive(), Live0 + TrackedBuffers);
  }
  EXPECT_EQ(ocl::hostBytesLive(), Live0);
}

} // namespace
