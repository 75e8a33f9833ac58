//===- GraphTest.cpp - Pipeline-graph subsystem tests ---------------------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pipeline-graph layer (src/graph, docs/PIPELINES.md): the .liftg
/// parser and validator's E08xx diagnostics table-driven over malformed
/// graphs, the committed example workloads bit-identical across 1/2/8
/// threads and across the simulator and exact-mode native backend,
/// buffer liveness/reuse shrinking the host high-water mark with
/// unchanged outputs, graph-wide budgets and cancellation unwinding
/// mid-graph naming the tripped stage, the GraphStageDispatch /
/// GraphBufferReuse fault sites swept first/middle/last, failed-producer
/// poisoning of dependents, guarded-memory runs across stage boundaries,
/// and iterate-until-convergence nodes (including the E0812 exhaustion
/// warning).
///
//===----------------------------------------------------------------------===//

#include "graph/GraphExec.h"
#include "native/Native.h"
#include "support/FaultInject.h"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <sstream>

using namespace lift;
using namespace lift::graph;

namespace {

std::string readExample(const std::string &Name) {
  std::string Path = std::string(LIFT_GRAPH_EXAMPLES_DIR) + "/" + Name;
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "missing example: " << Path;
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Parses + validates; returns the first error code recorded (0 = none).
unsigned firstErrorCode(const std::string &Text) {
  DiagnosticEngine Engine;
  Expected<Graph> G = parseGraphChecked(Text, Engine);
  if (G)
    validateGraph(*G, Engine);
  for (const Diagnostic &D : Engine.diagnostics())
    if (D.Severity == DiagSeverity::Error)
      return static_cast<unsigned>(D.Code);
  return 0;
}

Expected<ValidatedGraph> validated(const std::string &Text,
                                   DiagnosticEngine &Engine) {
  Expected<Graph> G = parseGraphChecked(Text, Engine);
  if (!G)
    return {};
  return validateGraph(*G, Engine);
}

bool hasCode(const DiagnosticEngine &Engine, DiagCode Code,
             const std::string &Needle = "") {
  for (const Diagnostic &D : Engine.diagnostics())
    if (D.Code == Code &&
        (Needle.empty() || D.Message.find(Needle) != std::string::npos))
      return true;
  return false;
}

std::string renderAll(const DiagnosticEngine &Engine) {
  std::string Out;
  for (const Diagnostic &D : Engine.diagnostics())
    Out += D.render() + "\n";
  return Out;
}

// A minimal two-stage elementwise pipeline used by the budget, fault and
// DSL tests: square then affine, N = 32.
const char *TwoStageText = R"(
graph two_stage
size N 32

kernel sq {{{
def sq(x: float): float = "return x * x;"

fun(x: [float]N) =>
  mapGlb0(sq)(x)
}}}

kernel tri {{{
def tri(x: float): float = "return 3.0f * x + 1.0f;"

fun(x: [float]N) =>
  mapGlb0(tri)(x)
}}}

buffer src[N] input init=random(5)
buffer mid[N] scratch
buffer dst[N] output

stage s1 kernel=sq  in=src out=mid global=8 local=4 N=32
stage s2 kernel=tri in=mid out=dst global=8 local=4 N=32
)";

//===----------------------------------------------------------------------===//
// Parser and validator diagnostics
//===----------------------------------------------------------------------===//

struct BadGraphCase {
  const char *Label;
  const char *Text;
  DiagCode Want;
};

/// Without a printer gtest shows the case as raw bytes, pointers included,
/// and ctest bakes that text into the test's name: the name would change
/// with every load address. The expected code is stable and says more.
void PrintTo(const BadGraphCase &C, std::ostream *OS) {
  *OS << diagCodeId(C.Want);
}

class GraphDiagnostics : public ::testing::TestWithParam<BadGraphCase> {};

const BadGraphCase BadGraphs[] = {
    {"missing_header", "size N 4\n", DiagCode::GraphParse},
    {"unterminated_kernel",
     "graph g\nkernel k {{{\nfun(x: [float]N) => mapGlb0(sq)(x)\n",
     DiagCode::GraphParse},
    {"bad_extent", "graph g\nbuffer a[0] input\n", DiagCode::GraphParse},
    {"unknown_const_in_extent", "graph g\nbuffer a[M] input\n",
     DiagCode::GraphParse},
    {"stage_without_kernel", "graph g\nbuffer a[4] output\nstage s in=a\n",
     DiagCode::GraphParse},
    {"duplicate_size", "graph g\nsize N 4\nsize N 8\n",
     DiagCode::GraphDuplicateName},
    {"duplicate_buffer", "graph g\nbuffer a[4] input\nbuffer a[4] output\n",
     DiagCode::GraphDuplicateName},
    {"duplicate_stage",
     "graph g\n"
     "kernel k {{{\ndef f(x: float): float = \"return x;\"\n"
     "fun(x: [float]N) => mapGlb0(f)(x)\n}}}\n"
     "buffer a[4] input\nbuffer b[4] scratch\nbuffer c[4] output\n"
     "stage s kernel=k in=a out=b global=4 local=4 N=4\n"
     "stage s kernel=k in=b out=c global=4 local=4 N=4\n",
     DiagCode::GraphDuplicateName},
    {"unknown_kernel",
     "graph g\nbuffer a[4] input\nbuffer b[4] output\n"
     "stage s kernel=nope in=a out=b global=4 local=4\n",
     DiagCode::GraphUnknownName},
    {"unknown_buffer",
     "graph g\n"
     "kernel k {{{\ndef f(x: float): float = \"return x;\"\n"
     "fun(x: [float]N) => mapGlb0(f)(x)\n}}}\n"
     "buffer b[4] output\n"
     "stage s kernel=k in=nope out=b global=4 local=4 N=4\n",
     DiagCode::GraphUnknownName},
    {"kernel_does_not_compile",
     "graph g\nkernel k {{{\nfun(x: [float]N => broken(\n}}}\n"
     "buffer a[4] input\nbuffer b[4] output\n"
     "stage s kernel=k in=a out=b global=4 local=4 N=4\n",
     DiagCode::GraphKernelInvalid},
    {"bad_ndrange",
     "graph g\n"
     "kernel k {{{\ndef f(x: float): float = \"return x;\"\n"
     "fun(x: [float]N) => mapGlb0(f)(x)\n}}}\n"
     "buffer a[4] input\nbuffer b[4] output\n"
     "stage s kernel=k in=a out=b global=6 local=4 N=4\n",
     DiagCode::GraphShapeMismatch},
    {"unbound_size_var",
     "graph g\n"
     "kernel k {{{\ndef f(x: float): float = \"return x;\"\n"
     "fun(x: [float]N) => mapGlb0(f)(x)\n}}}\n"
     "buffer a[4] input\nbuffer b[4] output\n"
     "stage s kernel=k in=a out=b global=4 local=4\n",
     DiagCode::GraphShapeMismatch},
    {"extent_mismatch",
     "graph g\n"
     "kernel k {{{\ndef f(x: float): float = \"return x;\"\n"
     "fun(x: [float]N) => mapGlb0(f)(x)\n}}}\n"
     "buffer a[8] input\nbuffer b[4] output\n"
     "stage s kernel=k in=a out=b global=4 local=4 N=4\n",
     DiagCode::GraphShapeMismatch},
    {"arity_mismatch",
     "graph g\n"
     "kernel k {{{\ndef f(x: float): float = \"return x;\"\n"
     "fun(x: [float]N) => mapGlb0(f)(x)\n}}}\n"
     "buffer a[4] input\nbuffer b[4] input\nbuffer c[4] output\n"
     "stage s kernel=k in=a,b out=c global=4 local=4 N=4\n",
     DiagCode::GraphShapeMismatch},
    {"consumed_without_producer",
     "graph g\n"
     "kernel k {{{\ndef f(x: float): float = \"return x;\"\n"
     "fun(x: [float]N) => mapGlb0(f)(x)\n}}}\n"
     "buffer a[4] scratch\nbuffer b[4] output\n"
     "stage s kernel=k in=a out=b global=4 local=4 N=4\n",
     DiagCode::GraphUnproducedBuffer},
    {"output_without_producer",
     "graph g\n"
     "kernel k {{{\ndef f(x: float): float = \"return x;\"\n"
     "fun(x: [float]N) => mapGlb0(f)(x)\n}}}\n"
     "buffer a[4] input\nbuffer b[4] scratch\nbuffer c[4] output\n"
     "stage s kernel=k in=a out=b global=4 local=4 N=4\n",
     DiagCode::GraphUnproducedBuffer},
    {"in_place_hazard",
     "graph g\n"
     "kernel k {{{\ndef f(x: float): float = \"return x;\"\n"
     "fun(x: [float]N) => mapGlb0(f)(x)\n}}}\n"
     "buffer a[4] scratch\n"
     "stage s kernel=k in=a out=a global=4 local=4 N=4\n",
     DiagCode::GraphCycle},
    {"two_stage_cycle",
     "graph g\n"
     "kernel k {{{\ndef f(x: float): float = \"return x;\"\n"
     "fun(x: [float]N) => mapGlb0(f)(x)\n}}}\n"
     "buffer a[4] scratch\nbuffer b[4] scratch\n"
     "stage s1 kernel=k in=a out=b global=4 local=4 N=4\n"
     "stage s2 kernel=k in=b out=a global=4 local=4 N=4\n",
     DiagCode::GraphCycle},
    {"two_writers",
     "graph g\n"
     "kernel k {{{\ndef f(x: float): float = \"return x;\"\n"
     "fun(x: [float]N) => mapGlb0(f)(x)\n}}}\n"
     "buffer a[4] input\nbuffer b[4] output\n"
     "stage s1 kernel=k in=a out=b global=4 local=4 N=4\n"
     "stage s2 kernel=k in=a out=b global=4 local=4 N=4\n",
     DiagCode::GraphMultipleWriters},
    {"write_to_input",
     "graph g\n"
     "kernel k {{{\ndef f(x: float): float = \"return x;\"\n"
     "fun(x: [float]N) => mapGlb0(f)(x)\n}}}\n"
     "buffer a[4] input\nbuffer b[4] input\n"
     "stage s kernel=k in=a out=b global=4 local=4 N=4\n",
     DiagCode::GraphMultipleWriters},
    {"iterate_compare_mismatch",
     "graph g\n"
     "kernel k {{{\ndef f(x: float): float = \"return x;\"\n"
     "fun(x: [float]N) => mapGlb0(f)(x)\n}}}\n"
     "buffer a[4] input\nbuffer b[8] output\nbuffer c[4] output\n"
     "iterate it max=2 eps=0.1 compare=a,b swap=a:c {\n"
     "stage s kernel=k in=a out=c global=4 local=4 N=4\n"
     "}\n",
     DiagCode::GraphShapeMismatch},
};

TEST_P(GraphDiagnostics, RejectsWithStableCode) {
  const BadGraphCase &C = GetParam();
  EXPECT_EQ(firstErrorCode(C.Text), static_cast<unsigned>(C.Want))
      << C.Label << ":\n"
      << C.Text;
}

INSTANTIATE_TEST_SUITE_P(Table, GraphDiagnostics,
                         ::testing::ValuesIn(BadGraphs),
                         [](const auto &Info) {
                           return std::string(Info.param.Label);
                         });

TEST(GraphDiagnosticsTable, PrintsCasesByExpectedCode) {
  for (const BadGraphCase &C : BadGraphs)
    EXPECT_EQ(::testing::PrintToString(C), diagCodeId(C.Want)) << C.Label;
}

TEST(GraphValidate, ReportsSeveralErrorsInOnePass) {
  // A graph with two independent mistakes surfaces both, not just the
  // first: validation keeps going.
  DiagnosticEngine Engine;
  std::string Text =
      "graph g\n"
      "kernel k {{{\ndef f(x: float): float = \"return x;\"\n"
      "fun(x: [float]N) => mapGlb0(f)(x)\n}}}\n"
      "buffer a[4] input\nbuffer b[4] output\nbuffer c[4] output\n"
      "stage s1 kernel=nope in=a out=b global=4 local=4 N=4\n"
      "stage s2 kernel=k in=a out=c global=6 local=4 N=4\n";
  EXPECT_FALSE(validated(Text, Engine));
  EXPECT_TRUE(hasCode(Engine, DiagCode::GraphUnknownName))
      << renderAll(Engine);
  EXPECT_TRUE(hasCode(Engine, DiagCode::GraphShapeMismatch))
      << renderAll(Engine);
}

//===----------------------------------------------------------------------===//
// Execution: determinism across threads and backends
//===----------------------------------------------------------------------===//

const char *ExampleFiles[] = {"stencil_chain.liftg", "matmul_bias.liftg",
                              "jacobi.liftg", "kmeans_loop.liftg"};

class GraphExamples : public ::testing::TestWithParam<const char *> {};

TEST_P(GraphExamples, ValidatesCleanly) {
  DiagnosticEngine Engine;
  EXPECT_TRUE(validated(readExample(GetParam()), Engine))
      << renderAll(Engine);
}

TEST_P(GraphExamples, BitIdenticalAcrossThreadCounts) {
  DiagnosticEngine Engine;
  Expected<ValidatedGraph> VG = validated(readExample(GetParam()), Engine);
  ASSERT_TRUE(VG) << renderAll(Engine);

  std::map<std::string, std::vector<float>> Ref;
  for (int Threads : {1, 2, 8}) {
    GraphRunOptions GO;
    GO.Threads = Threads;
    DiagnosticEngine RunEngine;
    Expected<GraphRunResult> R = runGraph(*VG, GO, RunEngine);
    ASSERT_TRUE(R) << "threads=" << Threads << "\n" << renderAll(RunEngine);
    if (Threads == 1)
      Ref = R->Outputs;
    else
      EXPECT_EQ(Ref, R->Outputs) << "threads=" << Threads;
  }
}

TEST_P(GraphExamples, NativeExactMatchesSimulator) {
  if (native::toolchainCompiler().empty())
    GTEST_SKIP() << "no system compiler installed";
  DiagnosticEngine Engine;
  Expected<ValidatedGraph> VG = validated(readExample(GetParam()), Engine);
  ASSERT_TRUE(VG) << renderAll(Engine);

  GraphRunOptions Sim;
  DiagnosticEngine SimEngine;
  Expected<GraphRunResult> SR = runGraph(*VG, Sim, SimEngine);
  ASSERT_TRUE(SR) << renderAll(SimEngine);

  GraphRunOptions Nat;
  Nat.NativeBackend = true;
  DiagnosticEngine NatEngine;
  Expected<GraphRunResult> NR = runGraph(*VG, Nat, NatEngine);
  ASSERT_TRUE(NR) << renderAll(NatEngine);
  EXPECT_EQ(SR->Outputs, NR->Outputs);
}

/// The checkers are simulator-only: a native graph run asked for them
/// says so once instead of dropping them silently.
TEST(GraphNative, SimulatorOnlyChecksAreNoted) {
  if (native::toolchainCompiler().empty())
    GTEST_SKIP() << "no system compiler installed";
  DiagnosticEngine Engine;
  Expected<ValidatedGraph> VG =
      validated(readExample("stencil_chain.liftg"), Engine);
  ASSERT_TRUE(VG) << renderAll(Engine);
  auto Notes = [](const DiagnosticEngine &E) {
    unsigned N = 0;
    for (const Diagnostic &D : E.diagnostics())
      N += D.Severity == DiagSeverity::Note &&
           D.Message == native::SimulatorOnlyChecksNote;
    return N;
  };

  GraphRunOptions GO;
  GO.CheckRaces = GO.CheckMemory = true;
  DiagnosticEngine SimEngine;
  ASSERT_TRUE(runGraph(*VG, GO, SimEngine)) << renderAll(SimEngine);
  EXPECT_EQ(Notes(SimEngine), 0u) << renderAll(SimEngine);

  GO.NativeBackend = true;
  DiagnosticEngine NatEngine;
  ASSERT_TRUE(runGraph(*VG, GO, NatEngine)) << renderAll(NatEngine);
  EXPECT_EQ(Notes(NatEngine), 1u) << renderAll(NatEngine);
}

TEST_P(GraphExamples, MemoryCleanAcrossStageBoundaries) {
  // Init bitmaps persist across launches, so a multi-stage run under the
  // memory checker must be finding-free end to end — including the
  // scratch buffers written by one stage and read by the next, and the
  // recycled allocations (whose bitmaps are reset on reuse).
  DiagnosticEngine Engine;
  Expected<ValidatedGraph> VG = validated(readExample(GetParam()), Engine);
  ASSERT_TRUE(VG) << renderAll(Engine);
  GraphRunOptions GO;
  GO.CheckMemory = true;
  DiagnosticEngine RunEngine;
  Expected<GraphRunResult> R = runGraph(*VG, GO, RunEngine);
  EXPECT_TRUE(R) << renderAll(RunEngine);
}

INSTANTIATE_TEST_SUITE_P(Examples, GraphExamples,
                         ::testing::ValuesIn(ExampleFiles),
                         [](const auto &Info) {
                           std::string S = Info.param;
                           return S.substr(0, S.find('.'));
                         });

//===----------------------------------------------------------------------===//
// Buffer liveness and reuse
//===----------------------------------------------------------------------===//

TEST(GraphReuse, ReuseShrinksPeakWithIdenticalOutputs) {
  DiagnosticEngine Engine;
  Expected<ValidatedGraph> VG =
      validated(readExample("stencil_chain.liftg"), Engine);
  ASSERT_TRUE(VG) << renderAll(Engine);

  GraphRunOptions Naive;
  Naive.ReuseBuffers = false;
  DiagnosticEngine E1;
  Expected<GraphRunResult> RN = runGraph(*VG, Naive, E1);
  ASSERT_TRUE(RN) << renderAll(E1);
  EXPECT_EQ(RN->BuffersRecycled, 0u);
  EXPECT_EQ(RN->BuffersFreed, 0u);

  GraphRunOptions Reuse;
  DiagnosticEngine E2;
  Expected<GraphRunResult> RR = runGraph(*VG, Reuse, E2);
  ASSERT_TRUE(RR) << renderAll(E2);

  EXPECT_EQ(RN->Outputs, RR->Outputs);
  // mid1 dies after s2 and is recycled as s3's output; the peak shrinks.
  EXPECT_GE(RR->BuffersRecycled, 1u);
  EXPECT_LT(RR->PeakHostBytes, RN->PeakHostBytes);
}

TEST(GraphReuse, DslBuilderMatchesTextualGraph) {
  // The same two-stage pipeline built through the C++ DSL and parsed
  // from text must validate identically and produce identical outputs.
  DiagnosticEngine E1;
  Expected<ValidatedGraph> FromText = validated(TwoStageText, E1);
  ASSERT_TRUE(FromText) << renderAll(E1);

  const char *SqIl = "def sq(x: float): float = \"return x * x;\"\n"
                     "fun(x: [float]N) =>\n  mapGlb0(sq)(x)\n";
  const char *TriIl = "def tri(x: float): float = \"return 3.0f * x + 1.0f;\"\n"
                      "fun(x: [float]N) =>\n  mapGlb0(tri)(x)\n";
  InitSpec Rand;
  Rand.K = InitSpec::Kind::Random;
  Rand.Seed = 5;
  StageDecl S1;
  S1.Name = "s1";
  S1.Kernel = "sq";
  S1.Ins = {"src"};
  S1.Outs = {"mid"};
  S1.Global = {8, 1, 1};
  S1.Local = {4, 1, 1};
  S1.Sizes["N"] = 32;
  StageDecl S2 = S1;
  S2.Name = "s2";
  S2.Kernel = "tri";
  S2.Ins = {"mid"};
  S2.Outs = {"dst"};
  Graph G = GraphBuilder("two_stage")
                .constant("N", 32)
                .kernel("sq", SqIl)
                .kernel("tri", TriIl)
                .input("src", 32, Rand)
                .scratch("mid", 32)
                .output("dst", 32)
                .stage(S1)
                .stage(S2)
                .build();
  DiagnosticEngine E2;
  Expected<ValidatedGraph> FromDsl = validateGraph(G, E2);
  ASSERT_TRUE(FromDsl) << renderAll(E2);

  GraphRunOptions GO;
  DiagnosticEngine E3, E4;
  Expected<GraphRunResult> RT = runGraph(*FromText, GO, E3);
  Expected<GraphRunResult> RD = runGraph(*FromDsl, GO, E4);
  ASSERT_TRUE(RT) << renderAll(E3);
  ASSERT_TRUE(RD) << renderAll(E4);
  EXPECT_EQ(RT->Outputs, RD->Outputs);
}

TEST(GraphReuse, HostBindingsOverrideInputs) {
  DiagnosticEngine Engine;
  Expected<ValidatedGraph> VG = validated(TwoStageText, Engine);
  ASSERT_TRUE(VG) << renderAll(Engine);

  GraphRunOptions GO;
  GO.Bindings["src"] = std::vector<float>(32, 2.0f);
  DiagnosticEngine E1;
  Expected<GraphRunResult> R = runGraph(*VG, GO, E1);
  ASSERT_TRUE(R) << renderAll(E1);
  // (2^2) * 3 + 1 = 13 everywhere.
  for (float V : R->Outputs.at("dst"))
    EXPECT_FLOAT_EQ(V, 13.0f);

  GraphRunOptions Bad;
  Bad.Bindings["src"] = std::vector<float>(31, 2.0f);
  DiagnosticEngine E2;
  EXPECT_FALSE(runGraph(*VG, Bad, E2));
  EXPECT_TRUE(hasCode(E2, DiagCode::GraphShapeMismatch)) << renderAll(E2);
}

TEST(GraphReuse, ConcurrentWavesMatchSerial) {
  // Two independent stages consuming the same input may dispatch in one
  // wave; the outputs must not change.
  const char *Text = R"(
graph fanout
size N 32

kernel sq {{{
def sq(x: float): float = "return x * x;"

fun(x: [float]N) =>
  mapGlb0(sq)(x)
}}}

kernel tri {{{
def tri(x: float): float = "return 3.0f * x + 1.0f;"

fun(x: [float]N) =>
  mapGlb0(tri)(x)
}}}

buffer src[N] input init=random(5)
buffer a[N] output
buffer b[N] output

stage s1 kernel=sq  in=src out=a global=8 local=4 N=32
stage s2 kernel=tri in=src out=b global=8 local=4 N=32
)";
  DiagnosticEngine Engine;
  Expected<ValidatedGraph> VG = validated(Text, Engine);
  ASSERT_TRUE(VG) << renderAll(Engine);

  GraphRunOptions Serial;
  DiagnosticEngine E1;
  Expected<GraphRunResult> RS = runGraph(*VG, Serial, E1);
  ASSERT_TRUE(RS) << renderAll(E1);

  GraphRunOptions Waved;
  Waved.MaxConcurrentStages = 2;
  DiagnosticEngine E2;
  Expected<GraphRunResult> RW = runGraph(*VG, Waved, E2);
  ASSERT_TRUE(RW) << renderAll(E2);
  EXPECT_EQ(RS->Outputs, RW->Outputs);
}

//===----------------------------------------------------------------------===//
// Graph-wide budgets and cancellation
//===----------------------------------------------------------------------===//

TEST(GraphLimits, StepBudgetSharedAcrossStages) {
  DiagnosticEngine Engine;
  Expected<ValidatedGraph> VG = validated(TwoStageText, Engine);
  ASSERT_TRUE(VG) << renderAll(Engine);

  // Measure stage 1's exact step count under a generous budget.
  GraphRunOptions Wide;
  Wide.Limits.MaxSteps = 100000000;
  DiagnosticEngine E1;
  Expected<GraphRunResult> R1 = runGraph(*VG, Wide, E1);
  ASSERT_TRUE(R1) << renderAll(E1);
  ASSERT_EQ(R1->Stages.size(), 2u);
  uint64_t S1 = R1->Stages[0].StepsUsed;
  ASSERT_GT(S1, 0u);

  // A budget that exactly covers stage 1 leaves nothing for stage 2: the
  // graph-wide gate trips *before* the second dispatch, naming it.
  GraphRunOptions Tight;
  Tight.Limits.MaxSteps = S1;
  DiagnosticEngine E2;
  EXPECT_FALSE(runGraph(*VG, Tight, E2));
  EXPECT_TRUE(hasCode(E2, DiagCode::RuntimeStepLimit, "before stage 's2'"))
      << renderAll(E2);

  // A budget one step past stage 1 lets stage 2 start but not finish:
  // the launch itself trips and the failure names the stage.
  GraphRunOptions Barely;
  Barely.Limits.MaxSteps = S1 + 1;
  DiagnosticEngine E3;
  EXPECT_FALSE(runGraph(*VG, Barely, E3));
  EXPECT_TRUE(hasCode(E3, DiagCode::GraphStageFailed, "stage 's2'"))
      << renderAll(E3);
}

TEST(GraphLimits, CancellationUnwindsBeforeFirstStage) {
  DiagnosticEngine Engine;
  Expected<ValidatedGraph> VG = validated(TwoStageText, Engine);
  ASSERT_TRUE(VG) << renderAll(Engine);

  std::atomic<bool> Cancel{true};
  GraphRunOptions GO;
  GO.Limits.Cancel = &Cancel;
  DiagnosticEngine E1;
  EXPECT_FALSE(runGraph(*VG, GO, E1));
  EXPECT_TRUE(hasCode(E1, DiagCode::RuntimeCancelled, "stage 's1'"))
      << renderAll(E1);
}

TEST(GraphLimits, MemoryBudgetCoversBuffers) {
  DiagnosticEngine Engine;
  Expected<ValidatedGraph> VG = validated(TwoStageText, Engine);
  ASSERT_TRUE(VG) << renderAll(Engine);

  GraphRunOptions GO;
  GO.Limits.MaxMemoryBytes = 64; // far below one 32-element buffer
  DiagnosticEngine E1;
  EXPECT_FALSE(runGraph(*VG, GO, E1));
  EXPECT_TRUE(hasCode(E1, DiagCode::RuntimeMemoryLimit)) << renderAll(E1);
}

//===----------------------------------------------------------------------===//
// Fault injection and failure propagation
//===----------------------------------------------------------------------===//

struct FaultGuard {
  ~FaultGuard() { fault::disarm(); }
};

TEST(GraphFaults, StageDispatchSweptFirstMiddleLast) {
  FaultGuard Guard;
  DiagnosticEngine Engine;
  Expected<ValidatedGraph> VG =
      validated(readExample("stencil_chain.liftg"), Engine);
  ASSERT_TRUE(VG) << renderAll(Engine);

  // Counting pass: the stencil chain dispatches four stages.
  fault::countOnly();
  GraphRunOptions GO;
  DiagnosticEngine E0;
  ASSERT_TRUE(runGraph(*VG, GO, E0)) << renderAll(E0);
  uint64_t N =
      fault::occurrences(fault::Site::GraphStageDispatch);
  ASSERT_EQ(N, 4u);

  for (uint64_t Nth : {uint64_t(1), (N + 1) / 2, N}) {
    fault::arm(fault::Site::GraphStageDispatch, Nth);
    DiagnosticEngine E1;
    EXPECT_FALSE(runGraph(*VG, GO, E1)) << "nth=" << Nth;
    EXPECT_TRUE(hasCode(E1, DiagCode::GraphFaultInjected, "stage dispatch"))
        << "nth=" << Nth << "\n"
        << renderAll(E1);
  }
}

TEST(GraphFaults, BufferReuseSweptAndCountable) {
  FaultGuard Guard;
  DiagnosticEngine Engine;
  Expected<ValidatedGraph> VG =
      validated(readExample("stencil_chain.liftg"), Engine);
  ASSERT_TRUE(VG) << renderAll(Engine);

  fault::countOnly();
  GraphRunOptions GO;
  DiagnosticEngine E0;
  ASSERT_TRUE(runGraph(*VG, GO, E0)) << renderAll(E0);
  uint64_t N = fault::occurrences(fault::Site::GraphBufferReuse);
  ASSERT_GE(N, 1u);

  for (uint64_t Nth = 1; Nth <= N; ++Nth) {
    fault::arm(fault::Site::GraphBufferReuse, Nth);
    DiagnosticEngine E1;
    EXPECT_FALSE(runGraph(*VG, GO, E1)) << "nth=" << Nth;
    EXPECT_TRUE(hasCode(E1, DiagCode::GraphFaultInjected, "buffer reuse"))
        << "nth=" << Nth << "\n"
        << renderAll(E1);
  }

  // The naive executor never recycles, so the site never fires there.
  fault::armAlways(fault::Site::GraphBufferReuse);
  GraphRunOptions Naive;
  Naive.ReuseBuffers = false;
  DiagnosticEngine E2;
  EXPECT_TRUE(runGraph(*VG, Naive, E2)) << renderAll(E2);
}

TEST(GraphFaults, FailedProducerPoisonsDependentsDeterministically) {
  FaultGuard Guard;
  DiagnosticEngine Engine;
  Expected<ValidatedGraph> VG =
      validated(readExample("stencil_chain.liftg"), Engine);
  ASSERT_TRUE(VG) << renderAll(Engine);

  // Kill stage s2; with keep-going the run continues, and s3 (which
  // consumes s2's output) must fail deterministically naming s2.
  fault::arm(fault::Site::GraphStageDispatch, 2);
  GraphRunOptions GO;
  GO.KeepGoing = true;
  DiagnosticEngine E1;
  EXPECT_FALSE(runGraph(*VG, GO, E1));
  EXPECT_TRUE(hasCode(E1, DiagCode::GraphFaultInjected)) << renderAll(E1);
  EXPECT_TRUE(hasCode(E1, DiagCode::GraphPoisonedInput, "stage 's2'"))
      << renderAll(E1);
}

TEST(GraphFaults, MidLaunchFaultFailsTheStageByName) {
  FaultGuard Guard;
  DiagnosticEngine Engine;
  Expected<ValidatedGraph> VG = validated(TwoStageText, Engine);
  ASSERT_TRUE(VG) << renderAll(Engine);

  // A mid-execution checkpoint fault inside stage 2's launch: the E0515
  // cancellation surfaces wrapped in E0809 naming the stage.
  fault::arm(fault::Site::GroupDispatch, 3);
  GraphRunOptions GO;
  DiagnosticEngine E1;
  EXPECT_FALSE(runGraph(*VG, GO, E1));
  EXPECT_TRUE(hasCode(E1, DiagCode::GraphStageFailed)) << renderAll(E1);
}

//===----------------------------------------------------------------------===//
// Iterate-until-convergence nodes
//===----------------------------------------------------------------------===//

TEST(GraphIterate, JacobiConvergesWellInsideTripBound) {
  DiagnosticEngine Engine;
  Expected<ValidatedGraph> VG = validated(readExample("jacobi.liftg"), Engine);
  ASSERT_TRUE(VG) << renderAll(Engine);

  GraphRunOptions GO;
  DiagnosticEngine E1;
  Expected<GraphRunResult> R = runGraph(*VG, GO, E1);
  ASSERT_TRUE(R) << renderAll(E1);
  ASSERT_EQ(R->Iterates.size(), 1u);
  EXPECT_TRUE(R->Iterates[0].Converged);
  EXPECT_GT(R->Iterates[0].Trips, 4u);
  EXPECT_LT(R->Iterates[0].Trips, 60u);
  EXPECT_LE(R->Iterates[0].Residual, 1e-5);
}

TEST(GraphIterate, ExhaustedTripsIsAWarningNotAnError) {
  std::string Text = readExample("jacobi.liftg");
  // Anchor on the directive, not the "max=60" mention in the header
  // comment.
  size_t Pos = Text.find("solve max=60");
  ASSERT_NE(Pos, std::string::npos);
  Text.replace(Pos + 6, 6, "max=2 ");

  DiagnosticEngine Engine;
  Expected<ValidatedGraph> VG = validated(Text, Engine);
  ASSERT_TRUE(VG) << renderAll(Engine);

  GraphRunOptions GO;
  DiagnosticEngine E1;
  Expected<GraphRunResult> R = runGraph(*VG, GO, E1);
  ASSERT_TRUE(R) << renderAll(E1); // degraded result, not a failure
  ASSERT_EQ(R->Iterates.size(), 1u);
  EXPECT_FALSE(R->Iterates[0].Converged);
  EXPECT_EQ(R->Iterates[0].Trips, 2u);
  bool Warned = false;
  for (const Diagnostic &D : E1.diagnostics())
    if (D.Code == DiagCode::GraphNotConverged &&
        D.Severity == DiagSeverity::Warning)
      Warned = true;
  EXPECT_TRUE(Warned) << renderAll(E1);
}

TEST(GraphIterate, KMeansCentroidsAreFixedPoint) {
  // After convergence, one more Lloyd step must not move any centroid:
  // the converged output really is a fixed point of the update.
  DiagnosticEngine Engine;
  Expected<ValidatedGraph> VG =
      validated(readExample("kmeans_loop.liftg"), Engine);
  ASSERT_TRUE(VG) << renderAll(Engine);

  GraphRunOptions GO;
  DiagnosticEngine E1;
  Expected<GraphRunResult> R = runGraph(*VG, GO, E1);
  ASSERT_TRUE(R) << renderAll(E1);
  ASSERT_EQ(R->Iterates.size(), 1u);
  EXPECT_TRUE(R->Iterates[0].Converged);
  EXPECT_EQ(R->Iterates[0].Residual, 0.0);
  EXPECT_EQ(R->Outputs.at("cn").size(), 8u);
}

} // namespace
