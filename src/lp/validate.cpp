#include "lp/validate.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <sstream>
#include <utility>

namespace nwlb::lp {
namespace {

std::size_t to_index(int i) { return static_cast<std::size_t>(i); }

constexpr double kPrimalTolerance = 1e-6;  // Max constraint/bound violation.
constexpr double kDualTolerance = 1e-5;    // Reduced-cost sign / duality-gap slack.

}  // namespace

std::string SolutionValidationReport::to_string() const {
  std::ostringstream os;
  for (const std::string& v : violations) os << v << "\n";
  return os.str();
}

SolutionValidationReport validate_solution(const Model& model, const Solution& solution,
                                           const SolutionValidationOptions& options) {
  SolutionValidationReport report;
  auto fail = [&](const std::string& message) { report.violations.push_back(message); };

  const int n = model.num_variables();
  const int m = model.num_rows();

  // Basis snapshot consistency holds for every status that produced one.
  if (options.check_basis && !solution.basis.empty()) {
    const Basis& basis = solution.basis;
    if (static_cast<int>(basis.basic.size()) != m) {
      fail("basis has " + std::to_string(basis.basic.size()) + " slots, expected " +
           std::to_string(m));
    } else {
      std::vector<int> sorted = basis.basic;
      std::sort(sorted.begin(), sorted.end());
      if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
        fail("basis contains a duplicate column");
      if (!sorted.empty() && (sorted.front() < 0 || sorted.back() >= n + m))
        fail("basis column index outside the augmented column space [0, n+m)");
    }
    if (static_cast<int>(basis.nonbasic_state.size()) != n + m)
      fail("basis nonbasic_state has size " + std::to_string(basis.nonbasic_state.size()) +
           ", expected n+m = " + std::to_string(n + m));
  }

  // kGoodEnough carries a primal-feasible point plus a gap certificate; it
  // gets the full primal checks, relaxed dual checks, and a certificate
  // audit instead of strong duality.  Other non-optimal statuses only get
  // the structural checks above.
  const bool approximate = solution.status == Status::kGoodEnough;
  if (!solved(solution.status)) return report;

  if (static_cast<int>(solution.x.size()) != n) {
    fail("solution has " + std::to_string(solution.x.size()) + " variables, expected " +
         std::to_string(n));
    return report;
  }

  for (const double v : solution.x)
    if (!std::isfinite(v)) {
      fail("solution contains a non-finite variable value");
      return report;
    }

  Model normalized = model;
  normalized.normalize();

  // Primal feasibility and stored-objective consistency.
  report.primal_residual = normalized.max_violation(solution.x);
  if (report.primal_residual > kPrimalTolerance) {
    std::ostringstream os;
    os << "primal residual " << report.primal_residual << " exceeds tolerance "
       << kPrimalTolerance;
    fail(os.str());
  }
  const double objective = normalized.objective_value(solution.x);
  const double objective_scale = std::max(1.0, std::abs(objective));
  if (std::abs(objective - solution.objective) > kDualTolerance * objective_scale) {
    std::ostringstream os;
    os << "stored objective " << solution.objective << " disagrees with c'x = " << objective;
    fail(os.str());
  }

  // Both solvers fill the duals of every solved status.
  if (static_cast<int>(solution.duals.size()) != m) {
    fail("dual vector has size " + std::to_string(solution.duals.size()) + ", expected " +
         std::to_string(m));
    return report;
  }

  // Dual feasibility of the row multipliers (convention: y <= 0 is *not*
  // used — a <= row demands y_i <= tol, a >= row y_i >= -tol; equality rows
  // are free; see tests/lp_kkt_test.cpp) plus complementary slackness.
  const double dtol = kDualTolerance;
  for (int r = 0; r < m; ++r) {
    const double y = solution.duals[to_index(r)];
    if (!std::isfinite(y)) {
      fail("dual for row " + std::to_string(r) + " is non-finite");
      return report;
    }
    double sign_violation = 0.0;
    switch (normalized.sense(RowId{r})) {
      case Sense::kLessEqual:
        sign_violation = std::max(0.0, y);
        break;
      case Sense::kGreaterEqual:
        sign_violation = std::max(0.0, -y);
        break;
      case Sense::kEqual:
        break;
    }
    report.dual_residual = std::max(report.dual_residual, sign_violation);
    if (sign_violation > dtol)
      fail("row " + std::to_string(r) + " dual has the wrong sign for its sense");

    // A tolerance-certified stop leaves residual dual infeasibility by
    // design; complementary slackness only binds at a true optimum.
    if (approximate) continue;
    double activity = 0.0;
    for (const Entry& e : normalized.row_entries(RowId{r}))
      activity += e.coef * solution.x[to_index(e.var)];
    const double slack = normalized.rhs(RowId{r}) - activity;
    if (std::abs(slack * y) > 10.0 * dtol * (1.0 + std::abs(y)))
      fail("row " + std::to_string(r) + " violates complementary slackness");
  }

  // Reduced costs d_j = c_j - y'A_j must match each variable's resting
  // bound, and strong duality must close the gap.
  std::vector<double> reduced(to_index(n));
  for (int j = 0; j < n; ++j) reduced[to_index(j)] = normalized.cost(VarId{j});
  for (int r = 0; r < m; ++r) {
    const double y = solution.duals[to_index(r)];
    if (y == 0.0) continue;
    for (const Entry& e : normalized.row_entries(RowId{r}))
      reduced[to_index(e.var)] -= y * e.coef;
  }
  double dual_objective = 0.0;
  for (int r = 0; r < m; ++r)
    dual_objective += solution.duals[to_index(r)] * normalized.rhs(RowId{r});

  if (approximate) {
    // Audit the gap certificate: objective_bound must be a genuine lower
    // bound on the optimum.  For sign-feasible duals y, the Lagrangian
    // bound L(y) = y'b + sum_j min_{lo<=x<=hi} d_j x is always valid, and
    // for the solver's own duals it equals objective - gap, so the stored
    // bound may not exceed the recomputed L(y) (beyond roundoff).
    long double lagrangian = dual_objective;
    bool certifiable = true;
    for (int j = 0; j < n; ++j) {
      const double d = reduced[to_index(j)];
      if (std::abs(d) <= dtol) continue;  // Same tolerance blindspot as the
                                          // exact dual checks above.
      const double edge = d > 0.0 ? normalized.lower(VarId{j}) : normalized.upper(VarId{j});
      if (!std::isfinite(edge)) {
        certifiable = false;
        break;
      }
      lagrangian += static_cast<long double>(d) * edge;
    }
    const double slack = 10.0 * dtol * objective_scale;
    if (!certifiable) {
      fail("good-enough certificate requires finite bounds on every dual-infeasible column");
    } else if (solution.objective_bound >
               static_cast<double>(lagrangian) + slack) {
      std::ostringstream os;
      os << "stored objective bound " << solution.objective_bound
         << " exceeds the recomputed Lagrangian bound " << static_cast<double>(lagrangian);
      fail(os.str());
    }
    if (solution.objective_bound > solution.objective + slack)
      fail("objective bound lies above the achieved objective");
    report.duality_gap =
        std::max(0.0, solution.objective - solution.objective_bound) / objective_scale;
    return report;
  }

  for (int j = 0; j < n; ++j) {
    const double x = solution.x[to_index(j)];
    const double lo = normalized.lower(VarId{j});
    const double hi = normalized.upper(VarId{j});
    const double d = reduced[to_index(j)];
    const bool at_lower = std::isfinite(lo) && std::abs(x - lo) < kPrimalTolerance * 10;
    const bool at_upper = std::isfinite(hi) && std::abs(x - hi) < kPrimalTolerance * 10;
    double sign_violation = 0.0;
    if (at_lower && at_upper) {
      // Fixed variable: any reduced cost is dual feasible.
    } else if (at_lower) {
      sign_violation = std::max(0.0, -d);
    } else if (at_upper) {
      sign_violation = std::max(0.0, d);
    } else {
      sign_violation = std::abs(d);
    }
    report.dual_residual = std::max(report.dual_residual, sign_violation);
    if (sign_violation > dtol)
      fail("variable " + std::to_string(j) +
           " reduced cost inconsistent with its resting bound");
    if (at_lower || at_upper) dual_objective += d * x;
  }
  report.duality_gap = std::abs(dual_objective - solution.objective) / objective_scale;
  if (report.duality_gap > 10.0 * dtol) {
    std::ostringstream os;
    os << "duality gap " << report.duality_gap << " (dual objective " << dual_objective
       << " vs primal " << solution.objective << ")";
    fail(os.str());
  }
  return report;
}

}  // namespace nwlb::lp
