// Solution certification (lp/validate.h): a genuinely solved model must
// certify, and corrupted copies of the same solution must be rejected with
// a violation naming the broken condition.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lp/revised_simplex.h"
#include "lp/validate.h"
#include "util/rng.h"

namespace nwlb::lp {
namespace {

using nwlb::util::Rng;

// A small production-shaped LP: a transportation problem with both row
// senses, bounded variables, and a non-degenerate optimum.
Model make_model() {
  Model m;
  std::vector<VarId> x;
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 3; ++j)
      x.push_back(m.add_variable(0.0, 4.0, 1.0 + 0.7 * i + 0.3 * j));
  const double supply[3] = {3.0, 4.0, 2.0};
  const double demand[3] = {2.0, 3.0, 4.0};
  for (int i = 0; i < 3; ++i) {
    const RowId r = m.add_row(Sense::kLessEqual, supply[i]);
    for (int j = 0; j < 3; ++j) m.add_coefficient(r, x[3 * i + j], 1.0);
  }
  for (int j = 0; j < 3; ++j) {
    const RowId r = m.add_row(Sense::kGreaterEqual, demand[j]);
    for (int i = 0; i < 3; ++i) m.add_coefficient(r, x[3 * i + j], 1.0);
  }
  return m;
}

bool mentions(const SolutionValidationReport& report, const std::string& needle) {
  for (const std::string& v : report.violations)
    if (v.find(needle) != std::string::npos) return true;
  return false;
}

TEST(LpValidate, CertifiesSolvedModel) {
  const Model m = make_model();
  const Solution sol = solve_revised(m);
  ASSERT_EQ(sol.status, Status::kOptimal);
  const SolutionValidationReport report = validate_solution(m, sol);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_LE(report.primal_residual, 1e-6);
  EXPECT_LE(report.dual_residual, 1e-5);
  EXPECT_LE(report.duality_gap, 1e-4);
}

TEST(LpValidate, CertifiesRandomModels) {
  Rng rng(20260805);
  for (int trial = 0; trial < 20; ++trial) {
    Model m;
    std::vector<VarId> vars;
    const int n = 4 + static_cast<int>(rng.below(5));
    for (int j = 0; j < n; ++j)
      vars.push_back(m.add_variable(0.0, 1.0 + rng.uniform(), rng.uniform(-1.0, 1.0)));
    const int rows = 3 + static_cast<int>(rng.below(4));
    for (int r = 0; r < rows; ++r) {
      const RowId row = m.add_row(Sense::kLessEqual, 1.0 + 2.0 * rng.uniform());
      for (const VarId v : vars)
        if (rng.bernoulli(0.6)) m.add_coefficient(row, v, rng.uniform(0.1, 1.0));
    }
    const Solution sol = solve_revised(m);
    ASSERT_EQ(sol.status, Status::kOptimal) << "trial " << trial;
    const SolutionValidationReport report = validate_solution(m, sol);
    EXPECT_TRUE(report.ok()) << "trial " << trial << "\n" << report.to_string();
  }
}

TEST(LpValidate, RejectsPerturbedPrimal) {
  const Model m = make_model();
  Solution sol = solve_revised(m);
  ASSERT_EQ(sol.status, Status::kOptimal);
  sol.x[0] += 10.0;  // Blows through its upper bound and the supply row.
  const SolutionValidationReport report = validate_solution(m, sol);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(mentions(report, "primal residual")) << report.to_string();
  EXPECT_GT(report.primal_residual, 1.0);
}

TEST(LpValidate, RejectsStaleObjective) {
  const Model m = make_model();
  Solution sol = solve_revised(m);
  ASSERT_EQ(sol.status, Status::kOptimal);
  sol.objective += 5.0;
  const SolutionValidationReport report = validate_solution(m, sol);
  EXPECT_TRUE(mentions(report, "stored objective")) << report.to_string();
}

TEST(LpValidate, RejectsCorruptedDuals) {
  const Model m = make_model();
  Solution sol = solve_revised(m);
  ASSERT_EQ(sol.status, Status::kOptimal);
  ASSERT_FALSE(sol.duals.empty());
  // A <= row demands y <= tol under the repo's sign convention.
  sol.duals[0] = 3.0;
  const SolutionValidationReport report = validate_solution(m, sol);
  EXPECT_FALSE(report.ok()) << report.to_string();
  EXPECT_GT(report.dual_residual, 1e-3);
}

TEST(LpValidate, RejectsWrongSizedDuals) {
  const Model m = make_model();
  Solution sol = solve_revised(m);
  sol.duals.pop_back();
  const SolutionValidationReport report = validate_solution(m, sol);
  EXPECT_TRUE(mentions(report, "dual vector has size")) << report.to_string();
}

TEST(LpValidate, RejectsCorruptedBasis) {
  const Model m = make_model();
  Solution sol = solve_revised(m);
  ASSERT_GE(sol.basis.basic.size(), 2u);
  sol.basis.basic[1] = sol.basis.basic[0];  // Duplicate column.
  SolutionValidationReport report = validate_solution(m, sol);
  EXPECT_TRUE(mentions(report, "duplicate column")) << report.to_string();

  Solution sol2 = solve_revised(m);
  sol2.basis.basic[0] = -7;  // Outside the augmented column space.
  report = validate_solution(m, sol2);
  EXPECT_TRUE(mentions(report, "augmented column space")) << report.to_string();

  // check_basis = false must ignore the same corruption.
  SolutionValidationOptions lax;
  lax.check_basis = false;
  EXPECT_TRUE(validate_solution(m, sol2, lax).ok());
}

// A solved status must carry one dual per row; missing duals are a
// violation, not a reason to skip the dual checks.
TEST(LpValidate, RequireDualsFlagsTheirAbsence) {
  const Model m = make_model();
  Solution sol = solve_revised(m);
  ASSERT_TRUE(validate_solution(m, sol).ok());
  sol.duals.clear();
  const SolutionValidationReport report = validate_solution(m, sol);
  EXPECT_TRUE(mentions(report, "dual vector has size 0")) << report.to_string();
}

TEST(LpValidate, NonOptimalStatusesOnlyGetStructuralChecks) {
  const Model m = make_model();
  Solution sol;
  sol.status = Status::kIterationLimit;
  EXPECT_TRUE(validate_solution(m, sol).ok());
  sol.basis.basic = {0, 0, 0, 0, 0, 0};  // Structurally broken snapshot.
  sol.basis.nonbasic_state.resize(15);
  EXPECT_FALSE(validate_solution(m, sol).ok());
}

}  // namespace
}  // namespace nwlb::lp
