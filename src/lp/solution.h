// Solver result types shared by the dense oracle and the revised simplex.
#pragma once

#include <string>
#include <vector>

#include "lp/model.h"

namespace nwlb::lp {

enum class Status {
  kOptimal,
  kGoodEnough,  // Primal feasible, objective certified within
                // Options::objective_tolerance of the optimum.
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kTimeLimit,
  kNumericalFailure,
};

/// Rendering of every Status lives next to the enum so a new enumerator
/// that is not given a label fails to compile (-Wswitch/-Werror); the
/// controller's metrics labels and every bench table route through here.
inline std::string to_string(Status s) {
  switch (s) {
    case Status::kOptimal: return "optimal";
    case Status::kGoodEnough: return "good-enough";
    case Status::kInfeasible: return "infeasible";
    case Status::kUnbounded: return "unbounded";
    case Status::kIterationLimit: return "iteration-limit";
    case Status::kTimeLimit: return "time-limit";
    case Status::kNumericalFailure: return "numerical-failure";
  }
  return "unknown";  // Unreachable: the switch above is exhaustive.
}

/// True for the statuses that carry a usable (primal-feasible, decoded)
/// solution: an exact optimum or a tolerance-certified approximation.
inline bool solved(Status s) {
  return s == Status::kOptimal || s == Status::kGoodEnough;
}

/// Where a nonbasic variable rests; used for warm starts.
enum class NonbasicState : unsigned char { kAtLower, kAtUpper, kFree };

/// A simplex basis snapshot: enough to warm-start a structurally identical
/// model (same variable and row counts).  `basic` holds, for each of the m
/// basis slots, the index of the variable occupying it in the *augmented*
/// column space (structural variables first, then one logical per row).
struct Basis {
  std::vector<int> basic;
  std::vector<NonbasicState> nonbasic_state;  // Size = n + m; basics ignored.

  bool empty() const { return basic.empty(); }
};

/// Per-kernel wall time of one revised-simplex solve, in seconds.  The
/// slots do not overlap: each FTRAN and BTRAN is counted once, under its own
/// slot, whichever kernel issued it.  The dense oracle leaves them zero.
struct KernelSeconds {
  double build = 0.0;         // Internal matrix form, bounds, basis install.
  double factorize = 0.0;     // LU factorizations and basic-value rebuilds.
  double ftran = 0.0;         // Every B^-1 a solve.
  double btran = 0.0;         // Every B^-T c solve.
  double pricing = 0.0;       // Entering-column choice (CHUZC) and its gap test.
  double pivot_row = 0.0;     // Pivot-row walk: Devex weights, reduced costs.
  double dual_refresh = 0.0;  // Reduced-cost sweep over every column.
  double ratio_test = 0.0;    // Leaving-row choice (CHUZR).
  double update = 0.0;        // Primal step, eta append, feasibility and
                              // reduced-cost hygiene checks, extraction.

  double total() const {
    return build + factorize + ftran + btran + pricing + pivot_row + dual_refresh +
           ratio_test + update;
  }
};

struct Solution {
  Status status = Status::kNumericalFailure;
  double objective = 0.0;
  /// Certified lower bound on the true optimum (minimization).  Equals
  /// `objective` for kOptimal; for kGoodEnough the gap
  /// `objective - objective_bound` is at most
  /// Options::objective_tolerance * max(1, |objective|).
  double objective_bound = 0.0;
  std::vector<double> x;      // Structural variable values (size n).
  std::vector<double> duals;  // Row duals y (size m); sign: y for a'x<=b is <=0
                              // under our min convention's internal form; see
                              // revised_simplex.cpp for the exact convention.
  int iterations = 0;         // Primal phase-2 and dual pivots.
  int phase1_iterations = 0;
  int refactorizations = 0;
  double solve_seconds = 0.0;
  KernelSeconds kernels;  // Where solve_seconds went (revised simplex only).
  Basis basis;  // Final basis, reusable as a warm start.

  bool optimal() const { return status == Status::kOptimal; }
  /// Exact optimum or tolerance-certified approximation; either way the
  /// primal point is feasible and safe to deploy.
  bool solved() const { return lp::solved(status); }

  double value(VarId v) const { return x.at(static_cast<std::size_t>(v.value)); }
};

/// Tolerances both solvers read: the revised simplex and the dense oracle
/// must agree on what counts as feasible, optimal and pivotable.
inline constexpr double kFeasibilityTol = 1e-7;  // Bound/row violation tolerance.
inline constexpr double kOptimalityTol = 1e-7;   // Reduced-cost tolerance.
inline constexpr double kPivotTol = 1e-9;        // Minimum acceptable pivot magnitude.

/// Solver budgets and the few switches a caller has reason to set.
/// Defaults are sensible for the nwlb formulations.
struct Options {
  int max_iterations = 2'000'000;  // Across both phases.
  double max_seconds = 0.0;        // Wall-clock budget; 0 = unlimited.  The
                                   // controller sets this so one slow epoch
                                   // degrades instead of stalling the loop.
                                   // Honored by both phases of both backends.
  int stall_limit = 2000;          // Degenerate steps before Bland's rule,
                                   // and zero-length dual steps before a
                                   // warm start's dual hands over to
                                   // primal phase 1.

  /// Cold-start crash basis: seat, in each equality row, a structural
  /// column whose only equality-row nonzero is that row (diagonal across
  /// the equality block, hence nonsingular).  Removes the one-infeasibility-
  /// per-traffic-class start that made phase 1 blow up on ISP-scale
  /// instances.  Ignored when a warm basis is supplied.
  bool crash = true;

  /// Bounded-accuracy early termination (revised simplex, phase 2).
  /// When > 0, the solve stops with Status::kGoodEnough as soon as the
  /// remaining dual infeasibilities certify the objective within
  /// `objective_tolerance * max(1, |objective|)` of the optimum
  /// (Solution::objective_bound carries the certified bound).  0 = exact.
  double objective_tolerance = 0.0;
};

}  // namespace nwlb::lp
