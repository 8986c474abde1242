// Solution certification for the simplex solvers: primal and dual
// feasibility residuals, strong duality, and basis snapshot consistency.
//
// The benchmarks (Fig. 10-19) trust the LP layer blindly — an infeasible
// "optimal" basis would skew every downstream number without any test
// failing.  validate_solution() is the machine check: tests call it on
// every solved model, nwlbctl calls it behind --validate, and debug builds
// of the formulations call it on each solve.
#pragma once

#include <string>
#include <vector>

#include "lp/model.h"
#include "lp/solution.h"

namespace nwlb::lp {

struct SolutionValidationOptions {
  bool check_basis = true;  // Verify the warm-start basis snapshot.
};

struct SolutionValidationReport {
  std::vector<std::string> violations;  // Empty means the solution certifies.
  double primal_residual = 0.0;         // max constraint/bound violation.
  double dual_residual = 0.0;           // Worst reduced-cost sign violation.
  double duality_gap = 0.0;             // |c'x - dual objective| (scaled).

  bool ok() const { return violations.empty(); }
  std::string to_string() const;  // One violation per line, for diagnostics.
};

/// Certifies an optimal solution against its model via the KKT conditions:
/// primal feasibility, stored-objective consistency, one dual per row, dual
/// feasibility of reduced costs with complementary slackness, strong
/// duality, and basis column consistency (basic indices in range and
/// distinct, state arrays sized n+m).  Other statuses only get structural
/// checks.  Primal violations up to 1e-6 and reduced-cost sign /
/// duality-gap slack up to 1e-5 are tolerated.
SolutionValidationReport validate_solution(const Model& model, const Solution& solution,
                                           const SolutionValidationOptions& options = {});

}  // namespace nwlb::lp
