// Steepest-edge pricing, bounded-accuracy termination, and warm
// re-solves — the machinery that makes ISP-scale replication LPs solve
// instead of timing out (the "TiNet blowup" fix).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lp/dense_simplex.h"
#include "lp/revised_simplex.h"
#include "lp/validate.h"
#include "lp_shaped.h"

namespace nwlb::lp {
namespace {

int total_iterations(const Solution& s) { return s.iterations + s.phase1_iterations; }

TEST(SteepestEdge, ObjectiveBoundEqualsObjectiveAtOptimum) {
  const ShapedLp shaped = make_shaped(10, 4, 0x0b1a5);
  const Solution s = solve_revised(shaped.model);
  ASSERT_EQ(s.status, Status::kOptimal);
  EXPECT_DOUBLE_EQ(s.objective_bound, s.objective);
}

// Bounded-accuracy early termination: with a tolerance the solve may stop
// at kGoodEnough, and whatever it returns must be primal feasible with an
// objective provably within the tolerance of the exact optimum.
TEST(GoodEnough, CertifiedWithinToleranceOfExactOptimum) {
  const ShapedLp shaped = make_shaped(40, 6, 0x600d);
  const Solution exact = solve_revised(shaped.model);
  ASSERT_EQ(exact.status, Status::kOptimal);

  for (const double tolerance : {0.01, 0.1, 0.5}) {
    Options opt;
    opt.objective_tolerance = tolerance;
    const Solution approx = solve_revised(shaped.model, opt);
    ASSERT_TRUE(approx.solved()) << to_string(approx.status);
    const double scale = std::max(1.0, std::abs(exact.objective));
    // Achieved objective within tolerance of the optimum...
    EXPECT_LE(approx.objective, exact.objective + tolerance * scale + 1e-6);
    // ...and the certificate brackets the optimum from below.
    EXPECT_LE(approx.objective_bound, exact.objective + 1e-6 * scale);
    EXPECT_GE(approx.objective, approx.objective_bound - 1e-9);
    EXPECT_LE(shaped.model.max_violation(approx.x), 1e-6);
    // The validator must accept the tolerance-certified solution.
    const auto report = validate_solution(shaped.model, approx);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

// A coarse tolerance on a large shaped instance must actually exercise the
// early exit (not just fall through to optimality) and save iterations.
TEST(GoodEnough, CoarseToleranceStopsEarly) {
  const ShapedLp shaped = make_shaped(120, 10, 0xeaa17);
  const Solution exact = solve_revised(shaped.model);
  ASSERT_EQ(exact.status, Status::kOptimal);
  Options opt;
  opt.objective_tolerance = 0.25;
  const Solution approx = solve_revised(shaped.model, opt);
  ASSERT_TRUE(approx.solved()) << to_string(approx.status);
  EXPECT_LE(total_iterations(approx), total_iterations(exact));
  if (approx.status == Status::kGoodEnough) {
    EXPECT_LT(total_iterations(approx), total_iterations(exact));
    const auto report = validate_solution(shaped.model, approx);
    EXPECT_TRUE(report.ok()) << report.to_string();
  }
}

// Pivot identity: the entering-column rule may get faster, but it must not
// change a single choice.  These counts were recorded before the pricing
// pass moved from a full column scan to a candidate set, and are pinned
// exactly; any drift means a different pivot sequence.
struct PivotCounts {
  int iterations;
  int phase1_iterations;
  int refactorizations;
};

void expect_pivots(const Solution& s, PivotCounts want) {
  EXPECT_EQ(s.iterations, want.iterations);
  EXPECT_EQ(s.phase1_iterations, want.phase1_iterations);
  EXPECT_EQ(s.refactorizations, want.refactorizations);
}

TEST(PivotIdentity, ColdShapedSolve) {
  const ShapedLp shaped = make_shaped(150, 12, 0x90d1);
  const Solution s = solve_revised(shaped.model);
  ASSERT_EQ(s.status, Status::kOptimal);
  expect_pivots(s, {1228, 158, 14});
}

TEST(PivotIdentity, WarmResolveAfterLoadRowDrift) {
  const ShapedLp base = make_shaped(150, 12, 0x90d1);
  const Solution base_solution = solve_revised(base.model);
  ASSERT_EQ(base_solution.status, Status::kOptimal);
  const ShapedLp epoch = make_shaped(150, 12, 0x90d1, 0.1);
  const Solution warm = solve_revised(epoch.model, {}, &base_solution.basis);
  ASSERT_EQ(warm.status, Status::kOptimal);
  expect_pivots(warm, {46, 0, 1});
}

// A low stall limit hands the degenerate coverage block to Bland's rule
// within a few pivots; the different pivot count proves it took over.
TEST(PivotIdentity, DegenerateBlandSolve) {
  const ShapedLp shaped = make_shaped(80, 8, 0xb1a4d);
  Options bland_opt;
  bland_opt.stall_limit = 2;
  const Solution bland = solve_revised(shaped.model, bland_opt);
  const Solution plain = solve_revised(shaped.model);
  ASSERT_EQ(bland.status, Status::kOptimal);
  ASSERT_EQ(plain.status, Status::kOptimal);
  EXPECT_NEAR(bland.objective, plain.objective,
              1e-6 * std::max(1.0, std::abs(plain.objective)));
  EXPECT_NE(total_iterations(bland), total_iterations(plain));
  expect_pivots(bland, {2011, 94, 22});
}

// Bounded-accuracy termination reads the pricing pass's gap certificate
// every phase-2 iteration, so its stopping point is pinned too.
TEST(PivotIdentity, GoodEnoughStopsAtTheSamePivot) {
  const ShapedLp shaped = make_shaped(150, 12, 0x90d1);
  Options opt;
  opt.objective_tolerance = 0.05;
  const Solution s = solve_revised(shaped.model, opt);
  ASSERT_EQ(s.status, Status::kGoodEnough);
  expect_pivots(s, {1174, 158, 14});
}

// Warm re-solves through at-upper nonbasics and a node-down (0,0) bound
// edit: the warm basis seats columns at bounds that no longer exist, the
// bound flips walk columns across their whole range, and the answer must
// still be the dense oracle's optimum.
TEST(WarmResolve, BoundFlipsAndNodeDownReachDenseOptimum) {
  ShapedLp shaped = make_shaped(16, 5, 0xf11b);
  // Per-node caps of 0.4 force every class onto at least three nodes, so
  // columns rest at their upper bound and bound flips are cheap moves.
  for (const auto& row : shaped.p)
    for (const VarId v : row) shaped.model.set_bounds(v, 0.0, 0.4);
  const Solution healthy = solve_revised(shaped.model);
  ASSERT_EQ(healthy.status, Status::kOptimal);
  const Solution healthy_oracle = solve_dense(shaped.model);
  ASSERT_EQ(healthy_oracle.status, Status::kOptimal);
  EXPECT_NEAR(healthy.objective, healthy_oracle.objective, 1e-6);
  int at_upper = 0;
  for (const NonbasicState s : healthy.basis.nonbasic_state)
    at_upper += s == NonbasicState::kAtUpper ? 1 : 0;
  EXPECT_GT(at_upper, 0) << "no column rests at its upper bound";

  // Node 2 goes down: every class loses that column.
  for (const auto& row : shaped.p) shaped.model.set_bounds(row[2], 0.0, 0.0);
  const Solution warm = solve_revised(shaped.model, {}, &healthy.basis);
  const Solution oracle = solve_dense(shaped.model);
  ASSERT_EQ(warm.status, Status::kOptimal);
  ASSERT_EQ(oracle.status, Status::kOptimal);
  EXPECT_NEAR(warm.objective, oracle.objective, 1e-6);
  EXPECT_LE(shaped.model.max_violation(warm.x), 1e-6);
  for (const auto& row : shaped.p) EXPECT_NEAR(warm.value(row[2]), 0.0, 1e-9);

  // The node comes back with a tighter cap: another warm hop.
  for (const auto& row : shaped.p) shaped.model.set_bounds(row[2], 0.0, 0.25);
  const Solution back = solve_revised(shaped.model, {}, &warm.basis);
  const Solution back_oracle = solve_dense(shaped.model);
  ASSERT_EQ(back.status, Status::kOptimal);
  ASSERT_EQ(back_oracle.status, Status::kOptimal);
  EXPECT_NEAR(back.objective, back_oracle.objective, 1e-6);
}

// A column pinned to (0,0) while its node is down is recorded at lower in
// the returned basis, whichever side it priced on.  Releasing the pin then
// keeps the old point primal feasible: the warm re-solve needs no phase 1
// and fewer pivots than a cold solve.
TEST(WarmResolve, ReleasedPinKeepsItsValue) {
  ShapedLp shaped = make_shaped(16, 5, 0xf11b);
  for (const auto& row : shaped.p)
    for (const VarId v : row) shaped.model.set_bounds(v, 0.0, 0.4);
  const Solution healthy = solve_revised(shaped.model);
  ASSERT_EQ(healthy.status, Status::kOptimal);

  for (const auto& row : shaped.p) shaped.model.set_bounds(row[2], 0.0, 0.0);
  const Solution down = solve_revised(shaped.model, {}, &healthy.basis);
  ASSERT_EQ(down.status, Status::kOptimal);
  std::vector<bool> basic(down.basis.nonbasic_state.size(), false);
  for (const int col : down.basis.basic) basic[static_cast<std::size_t>(col)] = true;
  for (const auto& row : shaped.p) {
    const auto j = static_cast<std::size_t>(row[2].value);
    if (!basic[j]) {
      EXPECT_EQ(down.basis.nonbasic_state[j], NonbasicState::kAtLower) << "column " << j;
    }
  }

  for (const auto& row : shaped.p) shaped.model.set_bounds(row[2], 0.0, 0.4);
  const Solution back = solve_revised(shaped.model, {}, &down.basis);
  const Solution cold = solve_revised(shaped.model);
  const Solution oracle = solve_dense(shaped.model);
  ASSERT_EQ(back.status, Status::kOptimal);
  ASSERT_EQ(cold.status, Status::kOptimal);
  ASSERT_EQ(oracle.status, Status::kOptimal);
  EXPECT_EQ(back.phase1_iterations, 0);
  EXPECT_LT(total_iterations(back), total_iterations(cold));
  EXPECT_NEAR(back.objective, oracle.objective, 1e-6);
}

// Both backends must report the same status for the same exhausted
// wall-clock budget (the dense oracle used to check only max_iterations).
TEST(TimeBudget, DenseAndRevisedAgreeOnExhaustion) {
  const ShapedLp shaped = make_shaped(40, 6, 0x71e3);
  Options opt;
  opt.max_seconds = 1e-9;  // Expires before the first pivot.
  const Solution revised = solve_revised(shaped.model, opt);
  const Solution dense = solve_dense(shaped.model, opt);
  EXPECT_EQ(revised.status, Status::kTimeLimit);
  EXPECT_EQ(dense.status, Status::kTimeLimit);
}

}  // namespace
}  // namespace nwlb::lp
