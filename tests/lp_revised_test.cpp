// Direct tests of the revised simplex on hand-checked LPs, plus warm-start
// behaviour.  Scale cross-validation lives in lp_property_test.cpp.
#include "lp/revised_simplex.h"

#include <limits>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace nwlb::lp {
namespace {

TEST(RevisedSimplex, TwoVariableClassic) {
  Model m;
  const VarId x = m.add_variable(0, 2, -1);
  const VarId y = m.add_variable(0, 3, -2);
  const RowId r = m.add_row(Sense::kLessEqual, 4);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 1);
  const Solution s = solve_revised(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -7.0, 1e-7);
  EXPECT_NEAR(s.value(x), 1.0, 1e-7);
  EXPECT_NEAR(s.value(y), 3.0, 1e-7);
}

TEST(RevisedSimplex, EqualityNeedsPhase1) {
  Model m;
  const VarId x = m.add_variable(0, kInf, 1);
  const VarId y = m.add_variable(0, kInf, 1);
  const RowId r = m.add_row(Sense::kEqual, 3);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 2);
  // With the crash disabled the equality row's fixed logical starts basic
  // and infeasible, so phase 1 must run.
  Options opt;
  opt.crash = false;
  const Solution s = solve_revised(m, opt);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 1.5, 1e-7);
  EXPECT_GT(s.phase1_iterations, 0);
}

TEST(RevisedSimplex, CrashBasisSkipsPhase1OnEqualityRows) {
  Model m;
  const VarId x = m.add_variable(0, kInf, 1);
  const VarId y = m.add_variable(0, kInf, 1);
  const RowId r = m.add_row(Sense::kEqual, 3);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 2);
  const Solution s = solve_revised(m);  // Crash on by default.
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 1.5, 1e-7);
  // The crash seats y (largest |coef| in the equality row) basic at 1.5,
  // which is already feasible: no phase-1 pivots at all.
  EXPECT_EQ(s.phase1_iterations, 0);
}

TEST(RevisedSimplex, GreaterEqualNeedsPhase1) {
  Model m;
  const VarId x = m.add_variable(0, kInf, 3);
  const VarId y = m.add_variable(0, kInf, 1);
  const RowId r = m.add_row(Sense::kGreaterEqual, 2);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 1);
  const Solution s = solve_revised(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-7);
}

TEST(RevisedSimplex, DetectsInfeasible) {
  Model m;
  const VarId x = m.add_variable(0, 1, 0);
  const RowId r = m.add_row(Sense::kGreaterEqual, 5);
  m.add_coefficient(r, x, 1);
  EXPECT_EQ(solve_revised(m).status, Status::kInfeasible);
}

TEST(RevisedSimplex, DetectsInfeasibleContradiction) {
  Model m;
  const VarId x = m.add_variable(-kInf, kInf, 0);
  const RowId a = m.add_row(Sense::kLessEqual, 1);
  m.add_coefficient(a, x, 1);
  const RowId b = m.add_row(Sense::kGreaterEqual, 2);
  m.add_coefficient(b, x, 1);
  EXPECT_EQ(solve_revised(m).status, Status::kInfeasible);
}

TEST(RevisedSimplex, DetectsUnbounded) {
  Model m;
  const VarId x = m.add_variable(0, kInf, -1);
  const VarId y = m.add_variable(0, kInf, 0);
  const RowId r = m.add_row(Sense::kLessEqual, 10);
  m.add_coefficient(r, y, 1);  // x does not appear in any row.
  (void)x;
  EXPECT_EQ(solve_revised(m).status, Status::kUnbounded);
}

TEST(RevisedSimplex, FreeVariableOptimum) {
  Model m;
  const VarId x = m.add_variable(-kInf, kInf, 1);
  const RowId r = m.add_row(Sense::kGreaterEqual, -5);
  m.add_coefficient(r, x, 1);
  const Solution s = solve_revised(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -5.0, 1e-7);
}

TEST(RevisedSimplex, BoundFlipPath) {
  // Optimal solution sits at upper bounds; reachable purely by bound flips.
  Model m;
  const VarId x = m.add_variable(0, 2, -1);
  const VarId y = m.add_variable(0, 3, -1);
  const Solution s = solve_revised(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -5.0, 1e-7);
  EXPECT_NEAR(s.value(x), 2.0, 1e-9);
  EXPECT_NEAR(s.value(y), 3.0, 1e-9);
}

TEST(RevisedSimplex, MinMaxLoadShape) {
  // Same coverage-style LP as the dense test; exercises equality + linked
  // inequality rows, the exact shape of the replication formulation.
  Model m;
  const VarId z = m.add_variable(0, kInf, 1);
  const VarId p11 = m.add_variable(0, 1, 0);
  const VarId p12 = m.add_variable(0, 1, 0);
  const VarId p21 = m.add_variable(0, 1, 0);
  const VarId p22 = m.add_variable(0, 1, 0);
  const RowId c1 = m.add_row(Sense::kEqual, 1);
  m.add_coefficient(c1, p11, 1);
  m.add_coefficient(c1, p12, 1);
  const RowId c2 = m.add_row(Sense::kEqual, 1);
  m.add_coefficient(c2, p21, 1);
  m.add_coefficient(c2, p22, 1);
  const RowId l1 = m.add_row(Sense::kLessEqual, 0);
  m.add_coefficient(l1, p11, 2);
  m.add_coefficient(l1, p21, 1);
  m.add_coefficient(l1, z, -1);
  const RowId l2 = m.add_row(Sense::kLessEqual, 0);
  m.add_coefficient(l2, p12, 2);
  m.add_coefficient(l2, p22, 1);
  m.add_coefficient(l2, z, -1);
  const Solution s = solve_revised(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, 1.5, 1e-7);
}

TEST(RevisedSimplex, WarmStartReducesIterations) {
  // Build a moderately sized random-ish LP, solve cold, then re-solve a
  // slightly perturbed copy warm: must reach the same optimum, cheaper.
  nwlb::util::Rng rng(77);
  const int n = 60, k = 25;
  auto build = [&](double jitter) {
    Model m;
    nwlb::util::Rng local(7);
    std::vector<VarId> xs;
    for (int j = 0; j < n; ++j)
      xs.push_back(m.add_variable(0, 1, local.uniform(-1, 1) + jitter * 0.01));
    for (int i = 0; i < k; ++i) {
      const RowId r = m.add_row(Sense::kLessEqual, 3.0);
      for (int j = 0; j < n; ++j)
        if (local.bernoulli(0.2)) m.add_coefficient(r, xs[static_cast<std::size_t>(j)], local.uniform(0.1, 2.0));
    }
    return m;
  };
  const Model cold_model = build(0.0);
  const Solution cold = solve_revised(cold_model);
  ASSERT_EQ(cold.status, Status::kOptimal);

  const Model warm_model = build(1.0);
  const Solution warm = solve_revised(warm_model, {}, &cold.basis);
  ASSERT_EQ(warm.status, Status::kOptimal);
  const Solution rewarmed_cold = solve_revised(warm_model);
  EXPECT_NEAR(warm.objective, rewarmed_cold.objective, 1e-6);
  EXPECT_LE(warm.iterations + warm.phase1_iterations,
            rewarmed_cold.iterations + rewarmed_cold.phase1_iterations);
}

TEST(RevisedSimplex, WarmStartWithWrongShapeFallsBack) {
  Model m;
  const VarId x = m.add_variable(0, 1, -1);
  (void)x;
  Basis bogus;
  bogus.basic = {0, 1, 2};  // Wrong row count.
  bogus.nonbasic_state = {NonbasicState::kAtLower};
  const Solution s = solve_revised(m, {}, &bogus);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.objective, -1.0, 1e-9);
}

TEST(RevisedSimplex, TimeLimitReported) {
  // A sub-nanosecond wall-clock budget expires before the first iteration
  // completes; the solver must report kTimeLimit, not spin or throw.
  Model m;
  const VarId x = m.add_variable(0, kInf, 1);
  const VarId y = m.add_variable(0, kInf, 1);
  const RowId r = m.add_row(Sense::kEqual, 3);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 2);
  Options opt;
  opt.max_seconds = 1e-12;
  EXPECT_EQ(solve_revised(m, opt).status, Status::kTimeLimit);
  EXPECT_THROW(solve_revised(m, Options{.max_seconds = -1.0}), std::exception);
}

TEST(RevisedSimplex, BudgetPastTheClockRangeSetsNoDeadline) {
  // steady_clock counts int64 nanoseconds: a budget past ~292 years (or
  // +inf) cannot be a deadline, so it must mean "no deadline", not one
  // that wraps into the past and stops the solve at once.
  Model m;
  const VarId x = m.add_variable(0, 2, -1);
  const VarId y = m.add_variable(0, 3, -2);
  const RowId r = m.add_row(Sense::kLessEqual, 4);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 1);
  for (const double budget : {1e9, 1e12, std::numeric_limits<double>::infinity()}) {
    const Solution s = solve_revised(m, Options{.max_seconds = budget});
    ASSERT_EQ(s.status, Status::kOptimal) << "budget " << budget;
    EXPECT_NEAR(s.objective, -7.0, 1e-7) << "budget " << budget;
  }
}

TEST(RevisedSimplex, IterationLimitReported) {
  Model m;
  const VarId x = m.add_variable(0, kInf, 1);
  const VarId y = m.add_variable(0, kInf, 1);
  const RowId r = m.add_row(Sense::kEqual, 3);
  m.add_coefficient(r, x, 1);
  m.add_coefficient(r, y, 2);
  Options opt;
  opt.max_iterations = 0;
  EXPECT_EQ(solve_revised(m, opt).status, Status::kIterationLimit);
}

TEST(RevisedSimplex, DualsReturnedForOptimal) {
  Model m;
  const VarId x = m.add_variable(0, kInf, 2);
  const RowId r = m.add_row(Sense::kGreaterEqual, 4);
  m.add_coefficient(r, x, 1);
  const Solution s = solve_revised(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  ASSERT_EQ(s.duals.size(), 1u);
  // Dual of the binding >= row under min 2x, x >= 4 is 2.
  EXPECT_NEAR(s.duals[0], 2.0, 1e-6);
}

TEST(RevisedSimplex, EmptyObjectiveFeasibilityProblem) {
  Model m;
  const VarId x = m.add_variable(0, 10, 0);
  const RowId r = m.add_row(Sense::kEqual, 7);
  m.add_coefficient(r, x, 1);
  const Solution s = solve_revised(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_NEAR(s.value(x), 7.0, 1e-7);
}

}  // namespace
}  // namespace nwlb::lp
