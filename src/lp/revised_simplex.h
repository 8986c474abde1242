// Production LP solver: bounded-variable primal revised simplex.
//
// Two phases (composite infeasibility minimization, then the true
// objective), sparse LU basis factorization with PFI eta updates
// (lp/basis.h), Devex reference-framework pricing over a maintained set of
// candidate columns, Bland's rule as an anti-cycling fallback, and warm
// starts from a previous Basis — the feature the nwlb controller uses when
// re-optimizing every few minutes on a new traffic matrix (§3, §8.2).
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
/// basis; otherwise from the all-logical basis (plus the crash, when
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
