//===- IlSource.h - Complete IL text for in-memory programs -----*- C++ -*-===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ir::printProgram renders a program body only: it leaves out the `def`
/// lines of the user functions the body calls, and prints gather/scatter
/// index functions without their arguments (`stride` instead of
/// `stride(4)`). Neither form parses back. completeIlSource renders the
/// full text frontend::parseILChecked accepts, so the benchmark feeds the
/// suite programs through the same entry point liftc uses.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ILSOURCE_H
#define PERFBENCH_ILSOURCE_H

#include "ir/IR.h"

#include <string>

namespace perfbench {

/// Renders \p Program as parseable IL into \p Out: one `def` per distinct
/// user function (in first-use order), then the body with every index
/// function spelled with its arguments. Returns false with a reason in
/// \p Err when a user function body holds a double quote, two different
/// user functions share a name, or an index function's arguments cannot
/// be recovered as constants.
bool completeIlSource(const lift::ir::LambdaPtr &Program, std::string &Out,
                      std::string &Err);

/// The first literal of \p Program the IL text format cannot spell (a
/// compound value such as `(Tuple3_float_int_int){0, 0, 0}`; the IL
/// grammar has numeric literals only), or "" when every literal is a
/// plain number.
std::string unspellableLiteral(const lift::ir::LambdaPtr &Program);

} // namespace perfbench

#endif // PERFBENCH_ILSOURCE_H
