// Production LP solver: bounded-variable revised simplex, primal for cold
// solves and dual for warm starts that are primal infeasible.
//
// The primal runs two phases (composite infeasibility minimization, then
// the true objective) with Devex reference-framework pricing over a
// maintained set of candidate columns and Bland's rule as an anti-cycling
// fallback.  A warm start from a previous Basis — the feature the nwlb
// controller uses when re-optimizing every few minutes on a new traffic
// matrix (§3, §8.2) — keeps that basis's dual feasibility: when the edit
// left it primal infeasible, a dual simplex (dual Devex row choice, Harris
// two-pass ratio test, cost shifting) restores primal feasibility, and
// primal phase 2 certifies the optimum.  Both share the sparse LU basis
// factorization with PFI eta updates (lp/basis.h).
//
// On a model large enough to pay for it, the Devex pivot-row walk and the
// dual refresh run in contiguous column blocks on a thread team that lives
// for one solve (DESIGN.md §14).  The solver picks the block count from the
// model size and the CPUs the process may run on; every block count makes
// the same pivots and returns the same bits.
#pragma once

#include "lp/model.h"
#include "lp/solution.h"

namespace nwlb::lp {

/// Solves `model` (minimization).  When `warm` is non-null and structurally
/// compatible (same variable and row counts) the solve starts from that
/// basis, with the dual simplex when the basis is primal infeasible;
/// otherwise from the all-logical basis (plus the crash, when
/// Options::crash is set).
Solution solve_revised(const Model& model, const Options& options = {},
                       const Basis* warm = nullptr);

namespace detail {

/// solve_revised with the column-block count forced to `blocks` (>= 1)
/// instead of the solver's own choice.  For the tests that prove the block
/// count never changes a solve; nothing else should call it.
Solution solve_revised_in_blocks(const Model& model, const Options& options, const Basis* warm,
                                 int blocks);

}  // namespace detail

}  // namespace nwlb::lp
