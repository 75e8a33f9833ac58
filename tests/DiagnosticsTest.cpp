//===- DiagnosticsTest.cpp - Diagnostics engine and error-code tests ------===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Table-driven coverage of the diagnostics pipeline: every class of
/// malformed input runs through the documented safe pipeline (parse,
/// verify, compile) and must produce the expected stable error code at
/// the expected source line — never an abort. Also covers the engine
/// mechanics themselves: multi-error recovery, the --max-errors cap, and
/// the rendered "error[E0102]" format.
///
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "cparse/CParser.h"
#include "frontend/ILParser.h"
#include "ocl/Runtime.h"
#include "passes/Verify.h"
#include "rewrite/Rules.h"
#include "support/Diagnostics.h"

#include <gtest/gtest.h>

#include <array>

using namespace lift;

namespace {

/// Runs the full checked pipeline on one source and collects everything
/// it reports. Verification failures gate compilation, exactly as liftc
/// does under --verify-each.
std::vector<Diagnostic> diagnose(const std::string &Source) {
  DiagnosticEngine Engine(32);
  Expected<frontend::ParsedProgram> P =
      frontend::parseILChecked(Source, Engine);
  if (P && passes::verifyChecked(P->Program, Engine, "after parsing")) {
    codegen::CompilerOptions Opts;
    Opts.GlobalSize = {16, 1, 1};
    Opts.LocalSize = {4, 1, 1};
    Opts.VerifyEach = true;
    codegen::compileChecked(P->Program, Opts, Engine);
  }
  return Engine.diagnostics();
}

struct MalformedCase {
  const char *Name;
  const char *Source;
  DiagCode Code;    ///< A diagnostic with this code must be reported.
  unsigned Line;    ///< Expected 1-based line of that diagnostic; 0 = any.
  const char *Substr; ///< Required substring of its message.
};

/// Without a printer gtest shows the case as raw bytes, pointers included,
/// and ctest bakes that text into the test's name: the name would change
/// with every load address. The expected code is stable and says more.
void PrintTo(const MalformedCase &C, std::ostream *OS) {
  *OS << diagCodeId(C.Code);
}

std::string deepNesting() {
  std::string S = "fun(x: [float]N) => ";
  for (int I = 0; I != 250; ++I)
    S += "mapSeq(";
  S += "id";
  for (int I = 0; I != 250; ++I)
    S += ")";
  S += "(x)";
  return S;
}

const MalformedCase Cases[] = {
    // 1xx — lexing and parsing.
    {"UnterminatedString", "def f(x: float): float = \"return x;",
     DiagCode::ParseUnterminatedString, 1, "unterminated"},
    {"UnexpectedChar", "fun(x: [float]N) => ?x",
     DiagCode::ParseUnexpectedChar, 1, "unexpected character"},
    {"UnknownFunction", "fun(x: [float]N) => bogus(x)",
     DiagCode::ParseUnknownFunction, 1, "unknown function 'bogus'"},
    {"UnknownType", "fun(x: [whatever]N) => x", DiagCode::ParseUnknownType,
     1, "unknown type"},
    {"MissingCBody",
     "def f(x: float): float = 42\nfun(x: [float]N) => mapGlb0(f)(x)",
     DiagCode::ParseExpectedString, 1, "expected the C body"},
    {"MissingProgramHeader", "def f(x: float): float = \"return x;\"",
     DiagCode::ParseExpectedProgramHeader, 0, "program header"},
    {"TrailingInput", "fun(x: [float]N) => mapSeq(id)(x) x",
     DiagCode::ParseTrailingInput, 1, "trailing input"},
    {"ExpectedIdentifier", "def (x: float): float = \"return x;\"",
     DiagCode::ParseExpectedIdentifier, 1, "expected identifier"},
    {"ExpectedExpression", "fun(x: [float]N) =>",
     DiagCode::ParseExpectedExpression, 1, "expected expression"},
    {"MissingArraySize", "fun(x: [float]) => x", DiagCode::ParseExpectedSize,
     1, "size"},
    {"UnknownIndexFunction",
     "fun(x: [float]N) => mapGlb0(id)(gather(nope)(x))",
     DiagCode::ParseUnknownIndexFunction, 1, "unknown index function"},
    {"NestingTooDeep", "", DiagCode::ParseTooDeep, 1, "nesting too deep"},
    {"IterateCountTooBig",
     "fun(x: [float]N) => iterate(9999999, mapSeq(id))(x)",
     DiagCode::ParseBadCount, 1, ""},
    {"AsVectorWidthTooBig",
     "fun(x: [float]N) => asScalar(asVector(64)(x))", DiagCode::ParseBadCount,
     1, "asVector width"},

    // 2xx — type analysis.
    {"MapOfScalar", "fun(x: float) => mapGlb0(id)(x)",
     DiagCode::TypeExpectsArray, 0, "array"},
    {"ZipUnequalLengths",
     "def g(p: (float, float)): float = \"return p._0;\"\n"
     "fun(x: [float]N, y: [float]M) => mapGlb0(g)(zip(x, y))",
     DiagCode::TypeUnequalLengths, 0, "equal array lengths"},
    {"UserFunArity",
     "def g(a: float, b: float): float = \"return a;\"\n"
     "fun(x: [float]N) => mapGlb0(g)(x)", DiagCode::TypeArityMismatch, 0,
     ""},

    // 3xx — verifier findings.
    {"MapLclOutsideWrg", "fun(x: [float]N) => mapLcl0(id)(x)",
     DiagCode::VerifyAddressSpace, 0, "mapLcl requires an enclosing mapWrg"},
    {"ToLocalOutsideWrg", "fun(x: [float]N) => toLocal(mapSeq(id))(x)",
     DiagCode::VerifyAddressSpace, 0, "toLocal requires an enclosing"},
    {"MapGlbUnderWrg",
     "fun(x: [float]N) => join(mapWrg0(mapGlb0(id))(split(4)(x)))",
     DiagCode::VerifyAddressSpace, 0, "mapGlb cannot nest"},
    {"SplitByZero", "fun(x: [float]N) => join(split(0)(x))",
     DiagCode::VerifyBadLength, 0, "split factor"},

    // 4xx — code generation.
    {"UserFunBodySyntax",
     "def f(x: float): float = \"return $;\"\n"
     "fun(x: [float]N) => mapGlb0(f)(x)", DiagCode::CodegenUserFunSyntax, 0,
     "user function parse error"},
};

class MalformedIL : public ::testing::TestWithParam<MalformedCase> {};

TEST_P(MalformedIL, ReportsExpectedCodeAndLocation) {
  const MalformedCase &C = GetParam();
  std::string Source =
      std::string(C.Name) == "NestingTooDeep" ? deepNesting() : C.Source;
  std::vector<Diagnostic> Diags = diagnose(Source);

  ASSERT_FALSE(Diags.empty()) << C.Name << ": no diagnostics for:\n"
                              << Source;
  const Diagnostic *Match = nullptr;
  for (const Diagnostic &D : Diags)
    if (D.Code == C.Code) {
      Match = &D;
      break;
    }
  std::string All;
  for (const Diagnostic &D : Diags)
    All += "  " + D.render() + "\n";
  ASSERT_NE(Match, nullptr) << C.Name << ": expected " << diagCodeId(C.Code)
                            << ", got:\n" << All;
  if (C.Line != 0)
    EXPECT_EQ(Match->Loc.Line, C.Line) << C.Name << ": " << Match->render();
  if (C.Substr[0] != '\0')
    EXPECT_NE(Match->Message.find(C.Substr), std::string::npos)
        << C.Name << ": " << Match->render();
}

INSTANTIATE_TEST_SUITE_P(
    Table, MalformedIL, ::testing::ValuesIn(Cases),
    [](const ::testing::TestParamInfo<MalformedCase> &I) {
      return I.param.Name;
    });

TEST(MalformedILTable, PrintsCasesByExpectedCode) {
  for (const MalformedCase &C : Cases)
    EXPECT_EQ(::testing::PrintToString(C), diagCodeId(C.Code)) << C.Name;
}

//===----------------------------------------------------------------------===//
// Engine mechanics
//===----------------------------------------------------------------------===//

TEST(DiagnosticEngineTest, RecoversAcrossTopLevelDeclarations) {
  // Two independent parse errors in separate defs: the parser resynchronizes
  // and reports both in one run.
  std::vector<Diagnostic> Diags = diagnose(
      "def f(x: float): float = 42\n"
      "def g(x: float): float = 43\n"
      "fun(x: [float]N) => mapGlb0(id)(x)");
  unsigned BodyErrors = 0;
  for (const Diagnostic &D : Diags)
    BodyErrors += D.Code == DiagCode::ParseExpectedString;
  EXPECT_GE(BodyErrors, 2u);
}

TEST(DiagnosticEngineTest, MaxErrorsCapsReporting) {
  DiagnosticEngine Engine(3);
  for (int I = 0; I != 10; ++I)
    Engine.error(DiagCode::ParseUnexpectedToken, DiagLocation::atLine(1),
                 "error " + std::to_string(I));
  EXPECT_TRUE(Engine.errorLimitReached());
  // All errors are counted, but only MaxErrors are kept (plus the
  // suppression note).
  EXPECT_EQ(Engine.errorCount(), 10u);
  unsigned Stored = 0;
  for (const Diagnostic &D : Engine.diagnostics())
    Stored += D.Severity == DiagSeverity::Error;
  EXPECT_EQ(Stored, 3u);
}

TEST(DiagnosticEngineTest, RenderUsesStableCodeIds) {
  DiagnosticEngine Engine;
  Engine.error(DiagCode::ParseUnterminatedString, DiagLocation::atLine(7),
               "unterminated string");
  std::string R = Engine.diagnostics().front().render();
  EXPECT_NE(R.find("error[E0102]"), std::string::npos) << R;
  EXPECT_NE(R.find("line 7"), std::string::npos) << R;
}

TEST(DiagnosticEngineTest, WellFormedProgramIsClean) {
  std::vector<Diagnostic> Diags = diagnose(
      "def sq(x: float): float = \"return x * x;\"\n"
      "fun(x: [float]N) => mapGlb0(sq)(x)");
  std::string All;
  for (const Diagnostic &D : Diags)
    All += D.render() + "\n";
  EXPECT_TRUE(Diags.empty()) << All;
}

//===----------------------------------------------------------------------===//
// Degenerate launch configurations (E0508)
//===----------------------------------------------------------------------===//

/// A trivial copy kernel for exercising launch validation.
codegen::CompiledKernel copyKernel() {
  cparse::ParseContext Ctx;
  return ocl::wrapModule(cparse::parseModule(R"(
kernel void copy(global float *in, global float *out) {
  out[get_global_id(0)] = in[get_global_id(0)];
}
)",
                                             Ctx));
}

/// The launch must fail before the group loop with a single E0508 whose
/// message contains \p Expect; the buffers must be untouched.
void expectBadNDRange(const std::array<int64_t, 3> &Global,
                      const std::array<int64_t, 3> &Local,
                      const std::string &Expect) {
  codegen::CompiledKernel K = copyKernel();
  ocl::Buffer In = ocl::Buffer::ofFloats({1, 2, 3, 4});
  ocl::Buffer Out = ocl::Buffer::zeros(4);
  ocl::LaunchConfig Cfg;
  Cfg.Global = Global;
  Cfg.Local = Local;
  DiagnosticEngine Engine;
  Expected<ocl::LaunchResult> R =
      ocl::launchChecked(K, {&In, &Out}, {}, Cfg, Engine);
  EXPECT_FALSE(bool(R));
  ASSERT_TRUE(Engine.hasErrors());
  const Diagnostic &D = Engine.diagnostics().front();
  EXPECT_EQ(D.Code, DiagCode::RuntimeBadNDRange) << D.render();
  EXPECT_NE(D.render().find("E0508"), std::string::npos) << D.render();
  EXPECT_NE(D.Message.find(Expect), std::string::npos) << D.render();
  for (float F : Out.toFloats())
    EXPECT_EQ(F, 0.0f);
}

TEST(LaunchValidationTest, ZeroLocalSizeIsRejected) {
  expectBadNDRange({4, 1, 1}, {0, 1, 1}, "both must be positive");
}

TEST(LaunchValidationTest, NegativeLocalSizeIsRejected) {
  expectBadNDRange({4, 1, 1}, {-2, 1, 1}, "both must be positive");
}

TEST(LaunchValidationTest, ZeroGlobalSizeIsRejected) {
  expectBadNDRange({0, 1, 1}, {1, 1, 1}, "both must be positive");
}

TEST(LaunchValidationTest, IndivisibleGlobalSizeIsRejected) {
  expectBadNDRange({6, 1, 1}, {4, 1, 1},
                   "global size 6 is not divisible by local size 4");
}

TEST(LaunchValidationTest, HigherDimensionsAreValidatedToo) {
  expectBadNDRange({4, 3, 1}, {2, 2, 1},
                   "not divisible by local size 2 in dimension 1");
}

//===----------------------------------------------------------------------===//
// Checked rewrite entry points (E0405, RewriteNoLowering)
//===----------------------------------------------------------------------===//

/// An already-lowered program: no high-level map anywhere, so the mapping
/// step of the lowering pipeline has nothing to rewrite.
ir::LambdaPtr fullyLoweredProgram() {
  using namespace ir;
  using namespace ir::dsl;
  ir::ParamPtr X = param("x", arrayOf(float32(), arith::cst(16)));
  return lambda({X}, pipe(ir::ExprPtr(X), mapSeq(prelude::squareFun())));
}

TEST(RewriteDiagnosticsTest, LowerProgramCheckedReportsNoApplicableLowering) {
  DiagnosticEngine Engine;
  Expected<ir::LambdaPtr> R = rewrite::lowerProgramChecked(
      fullyLoweredProgram(), /*UseWorkGroups=*/false, nullptr, Engine);
  EXPECT_FALSE(bool(R));
  ASSERT_TRUE(Engine.hasErrors());
  const Diagnostic &D = Engine.diagnostics().front();
  EXPECT_EQ(D.Code, DiagCode::RewriteNoLowering);
  EXPECT_NE(D.Message.find("no applicable lowering"), std::string::npos)
      << D.Message;
  EXPECT_NE(Engine.render().find("E0405"), std::string::npos)
      << Engine.render();
}

TEST(RewriteDiagnosticsTest, LowerProgramCheckedReportsMissingChunkSize) {
  DiagnosticEngine Engine;
  Expected<ir::LambdaPtr> R = rewrite::lowerProgramChecked(
      fullyLoweredProgram(), /*UseWorkGroups=*/true, nullptr, Engine);
  EXPECT_FALSE(bool(R));
  ASSERT_TRUE(Engine.hasErrors());
  EXPECT_EQ(Engine.diagnostics().front().Code, DiagCode::CodegenLowering);
  EXPECT_NE(Engine.diagnostics().front().Message.find("chunk size"),
            std::string::npos);
}

TEST(RewriteDiagnosticsTest, ApplyOnceCheckedReportsWhereNothingMatched) {
  DiagnosticEngine Engine;
  ir::LambdaPtr P = fullyLoweredProgram();
  Expected<ir::ExprPtr> R = rewrite::applyOnceChecked(
      rewrite::mapToMapGlb(0), P->getBody(), Engine);
  EXPECT_FALSE(bool(R));
  ASSERT_TRUE(Engine.hasErrors());
  const Diagnostic &D = Engine.diagnostics().front();
  EXPECT_EQ(D.Code, DiagCode::RewriteNoLowering);
  EXPECT_NE(D.Message.find("matches nowhere"), std::string::npos)
      << D.Message;
}

TEST(RewriteDiagnosticsTest, ApplyOnceCheckedSucceedsSilentlyOnAMatch) {
  using namespace ir;
  using namespace ir::dsl;
  ir::ParamPtr X = param("x", arrayOf(float32(), arith::cst(16)));
  ir::LambdaPtr P =
      lambda({X}, pipe(ir::ExprPtr(X), map(prelude::squareFun())));
  DiagnosticEngine Engine;
  Expected<ir::ExprPtr> R = rewrite::applyOnceChecked(
      rewrite::mapToMapGlb(0), P->getBody(), Engine);
  ASSERT_TRUE(bool(R));
  EXPECT_FALSE(Engine.hasErrors()) << Engine.render();
}

/// The verifier half of the contract: an invalid placement of a parallel
/// mapping rule (same dimension distributed twice) is rejected instead of
/// silently computing garbage.
TEST(RewriteDiagnosticsTest, SameDimensionNestedParallelMapsAreRejected) {
  using namespace ir;
  using namespace ir::dsl;
  ir::ParamPtr X =
      param("x", arrayOf(arrayOf(float32(), arith::cst(4)), arith::cst(4)));
  ir::LambdaPtr P = lambda(
      {X},
      pipe(ir::ExprPtr(X), mapGlb(0, mapGlb(0, prelude::squareFun())),
           join()));
  DiagnosticEngine Engine;
  EXPECT_FALSE(passes::verifyChecked(P, Engine, "nesting"));
  ASSERT_TRUE(Engine.hasErrors());
  EXPECT_NE(Engine.render().find("same dimension"), std::string::npos)
      << Engine.render();
}

TEST(LaunchValidationTest, ValidConfigStillLaunches) {
  codegen::CompiledKernel K = copyKernel();
  ocl::Buffer In = ocl::Buffer::ofFloats({1, 2, 3, 4});
  ocl::Buffer Out = ocl::Buffer::zeros(4);
  ocl::LaunchConfig Cfg;
  Cfg.Global = {4, 1, 1};
  Cfg.Local = {2, 1, 1};
  DiagnosticEngine Engine;
  Expected<ocl::LaunchResult> R =
      ocl::launchChecked(K, {&In, &Out}, {}, Cfg, Engine);
  ASSERT_TRUE(bool(R));
  EXPECT_FALSE(Engine.hasErrors());
  EXPECT_EQ(Out.toFloats(), std::vector<float>({1, 2, 3, 4}));
}

} // namespace
