// Dense two-phase tableau simplex.
//
// This solver is the correctness *oracle* for the production sparse revised
// simplex: it is written for clarity, uses Bland's rule throughout (no
// cycling, ever), and handles general bounds by explicit transformation to
// standard form (shift / flip / split plus upper-bound rows).  It is O(m^2 n)
// per iteration and intended for small instances.  It is built into the
// nwlb_test_support target, not into any shipped library.
#pragma once

#include "lp/model.h"
#include "lp/solution.h"

namespace nwlb::lp {

/// Solves `model` (minimization) with a dense two-phase tableau simplex.
/// The returned Solution carries structural variable values and, when the
/// status is optimal, row duals recovered from the final tableau.
Solution solve_dense(const Model& model, const Options& options = {});

}  // namespace nwlb::lp
