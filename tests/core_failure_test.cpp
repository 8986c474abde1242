// Degraded reconfiguration: apply_failures, the LP-free patch, and the
// controller's two-tier failure response with solver budgets.
#include <algorithm>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/controller.h"
#include "core/patch.h"
#include "core/replication_lp.h"
#include "core/scenario.h"
#include "topo/topology.h"
#include "traffic/matrix.h"
#include "traffic/variability.h"

namespace nwlb::core {
namespace {

struct FailureFixture {
  topo::Topology topology = topo::make_internet2();
  traffic::TrafficMatrix tm;
  Scenario scenario;
  ProblemInput input;

  FailureFixture()
      : tm(traffic::gravity_matrix(topology.graph, traffic::paper_total_sessions(11))),
        scenario(topology, tm),
        input(scenario.problem(Architecture::kPathReplicate)) {}
};

/// True when any process share or offload endpoint of `a` puts work on `node`.
bool touches_node(const Assignment& a, int node) {
  for (const auto& shares : a.process)
    for (const ProcessShare& s : shares)
      if (s.node == node && s.fraction > 1e-12) return true;
  for (const auto& offloads : a.offloads)
    for (const Offload& o : offloads)
      if ((o.from == node || o.to == node) && o.fraction > 1e-12) return true;
  return false;
}

TEST(ApplyFailures, MarksNodesAndSaturatesLinks) {
  FailureFixture f;
  EXPECT_FALSE(f.input.any_down());
  FailureSet failures;
  failures.down_nodes = {2, f.input.datacenter_id()};
  failures.failed_links = {0};
  apply_failures(f.input, failures);
  EXPECT_TRUE(f.input.any_down());
  EXPECT_TRUE(f.input.is_down(2));
  EXPECT_TRUE(f.input.is_down(f.input.datacenter_id()));
  EXPECT_FALSE(f.input.is_down(1));
  // A failed link carries no replication budget: background load saturates
  // its capacity.
  EXPECT_DOUBLE_EQ(f.input.background_bytes[0], f.input.link_capacity[0]);
}

TEST(ApplyFailures, FailureSetQueries) {
  FailureSet failures;
  EXPECT_TRUE(failures.empty());
  failures.down_nodes = {3};
  failures.failed_links = {7};
  EXPECT_FALSE(failures.empty());
  EXPECT_TRUE(failures.node_down(3));
  EXPECT_FALSE(failures.node_down(4));
  EXPECT_TRUE(failures.link_failed(7));
  EXPECT_FALSE(failures.link_failed(8));
}

TEST(PatchAssignment, EmptyFailureSetIsIdentity) {
  FailureFixture f;
  const Assignment last = ReplicationLp(f.input).solve();
  const Assignment patched = patch_assignment(f.input, last, FailureSet{});
  ASSERT_EQ(patched.coverage.size(), last.coverage.size());
  for (std::size_t c = 0; c < last.coverage.size(); ++c)
    EXPECT_NEAR(patched.coverage[c], last.coverage[c], 1e-9);
  EXPECT_NEAR(patched.miss_rate, last.miss_rate, 1e-9);
}

TEST(PatchAssignment, RescalesOntoSurvivingSuppliers) {
  FailureFixture f;
  const Assignment last = ReplicationLp(f.input).solve();
  ASSERT_NEAR(last.miss_rate, 0.0, 1e-6);
  const int dc = f.input.datacenter_id();
  ASSERT_TRUE(touches_node(last, dc)) << "fixture must actually use the DC";

  FailureSet failures;
  failures.down_nodes = {dc};
  ProblemInput degraded = f.input;
  apply_failures(degraded, failures);
  const Assignment patched = patch_assignment(degraded, last, failures);

  // Nothing may land on the failed node.
  EXPECT_FALSE(touches_node(patched, dc));
  // Per class: survivors absorb the failed share proportionally, so any
  // class that still has a supplier keeps full coverage; a class whose
  // only supplier died is honestly reported dark.
  ASSERT_EQ(patched.coverage.size(), last.coverage.size());
  for (std::size_t c = 0; c < patched.coverage.size(); ++c) {
    double surviving = 0.0;
    for (const ProcessShare& s : patched.process[c]) surviving += s.fraction;
    for (const Offload& o : patched.offloads[c])
      if (o.direction == nids::Direction::kForward) surviving += o.fraction;
    if (surviving > 1e-9) {
      EXPECT_NEAR(patched.coverage[c], 1.0, 1e-6) << "class " << c;
    }
    EXPECT_LE(patched.coverage[c], 1.0 + 1e-9);
  }
  // Metrics are refreshed against the degraded input.
  EXPECT_GE(patched.miss_rate, 0.0);
  EXPECT_LE(patched.miss_rate, 1.0);
}

TEST(Controller, PatchBeforeAnyEpochThrows) {
  FailureFixture f;
  Controller controller(f.topology, f.tm, Architecture::kPathReplicate);
  FailureSet failures;
  failures.down_nodes = {0};
  EXPECT_THROW(controller.run({.failures = failures, .force_patch = true}),
               std::logic_error);
}

TEST(Controller, RunWithoutTrafficThrows) {
  FailureFixture f;
  Controller controller(f.topology, f.tm, Architecture::kPathReplicate);
  EXPECT_THROW(controller.run(EpochRequest{}), std::invalid_argument);
}

TEST(Controller, PatchIsInstantAndMarkedDegraded) {
  FailureFixture f;
  Controller controller(f.topology, f.tm, Architecture::kPathReplicate);
  const EpochResult healthy = controller.run({.tm = &f.tm});
  EXPECT_FALSE(healthy.degraded);
  EXPECT_TRUE(healthy.degraded_reasons.empty());
  ASSERT_TRUE(controller.last_known_good().has_value());

  FailureSet failures;
  failures.down_nodes = {f.input.datacenter_id()};
  const EpochResult patched =
      controller.run({.failures = failures, .force_patch = true});
  EXPECT_TRUE(patched.patched);
  EXPECT_TRUE(patched.degraded);
  EXPECT_TRUE(patched.has_reason(DegradedReason::kPatch));
  EXPECT_EQ(to_string(patched.degraded_reasons), "patch");
  EXPECT_EQ(patched.bundle.configs.size(),
            static_cast<std::size_t>(f.input.num_pops()));
  // Every emitted bundle advances the generation counter.
  EXPECT_GT(patched.bundle.generation, healthy.bundle.generation);
  EXPECT_FALSE(touches_node(patched.assignment, f.input.datacenter_id()));

  // An empty failure set reinstates the last known-good plan unchanged.
  const EpochResult reinstated = controller.run({.force_patch = true});
  EXPECT_TRUE(reinstated.patched);
  EXPECT_FALSE(reinstated.degraded);
  EXPECT_NEAR(reinstated.assignment.miss_rate,
              controller.last_known_good()->miss_rate, 1e-9);
}

TEST(Controller, ResolvesOverSurvivingTopology) {
  FailureFixture f;
  Controller controller(f.topology, f.tm, Architecture::kPathReplicate);
  controller.run({.tm = &f.tm});

  FailureSet failures;
  failures.down_nodes = {f.input.datacenter_id()};
  EpochResult degraded;
  ASSERT_NO_THROW(degraded = controller.run({.tm = &f.tm, .failures = failures}));
  // The solve itself succeeded (no lp-class reason): the plan routes
  // nothing to the failed mirror, and any residual coverage loss is
  // reported as such rather than failing the epoch.
  EXPECT_FALSE(degraded.has_reason(DegradedReason::kLpBudgetExhausted));
  EXPECT_FALSE(degraded.has_reason(DegradedReason::kLpInfeasible));
  EXPECT_FALSE(degraded.has_reason(DegradedReason::kLpFailed));
  EXPECT_FALSE(touches_node(degraded.assignment, f.input.datacenter_id()));
  if (degraded.assignment.miss_rate > 1e-9) {
    EXPECT_TRUE(degraded.degraded);
    EXPECT_TRUE(degraded.has_reason(DegradedReason::kCoverageLoss));
  }

  // Once the node returns, the next healthy epoch restores the optimum.
  const EpochResult recovered = controller.run({.tm = &f.tm});
  EXPECT_FALSE(recovered.degraded);
  EXPECT_NEAR(recovered.assignment.miss_rate, 0.0, 1e-6);
}

TEST(Controller, BudgetExhaustionNeverAbortsAnEpoch) {
  FailureFixture f;
  ControllerOptions copts;
  copts.architecture = Architecture::kPathReplicate;
  copts.lp.max_iterations = 1;  // Guaranteed exhaustion on this model.
  Controller controller(f.topology, f.tm, copts);

  EpochResult result;
  ASSERT_NO_THROW(result = controller.run({.tm = &f.tm}));
  EXPECT_TRUE(result.degraded);
  EXPECT_TRUE(result.has_reason(DegradedReason::kLpBudgetExhausted));
  // No prior epoch ever solved, so the fallback chain bottoms out at the
  // LP-free ingress construction and says so.
  EXPECT_TRUE(result.has_reason(DegradedReason::kNoKnownGood));
  EXPECT_FALSE(controller.last_known_good().has_value());
  // The epoch still ships a complete, installable plan.
  EXPECT_EQ(result.bundle.configs.size(),
            static_cast<std::size_t>(f.input.num_pops()));
  EXPECT_FALSE(result.assignment.process.empty());

  // The next epochs back the solver off instead of re-burning the budget.
  EpochResult backed_off;
  ASSERT_NO_THROW(backed_off = controller.run({.tm = &f.tm}));
  EXPECT_TRUE(backed_off.degraded);
  EXPECT_TRUE(backed_off.has_reason(DegradedReason::kResolveBackoff));
  EXPECT_EQ(backed_off.iterations, 0);
}

// An epoch's time counts every attempt: when the warm re-solve runs out of
// its budget and so does the cold retry, the epoch took both budgets.  The
// budget is half of the fastest of three unbounded warm re-solves of the
// same epoch, so the warm attempt runs out on any host; Geant's re-solve
// takes 57 pivots, enough for the solver's deadline checks to catch it.
TEST(Controller, SolveSecondsCountTheWarmAttemptAndTheColdRetry) {
  const topo::Topology geant = topo::topology_by_name("Geant");
  const traffic::TrafficMatrix tm =
      traffic::gravity_matrix(geant.graph, traffic::paper_total_sessions(22));
  const traffic::VariabilityModel model(traffic::abilene_like_factor_cdf());
  const traffic::TrafficMatrix drifted = model.sample_many(tm, 1, 17).front();
  const auto second_epoch = [&](double budget) {
    Controller controller(geant, tm, Architecture::kPathReplicate);
    controller.run({.tm = &tm});
    return controller.run({.tm = &drifted, .max_solve_seconds = budget});
  };

  // Each starved run's budget is half an unbounded warm re-solve made just
  // before it, so both runs see the same host load.  A run that still lands
  // on a quieter moment than its pair may finish inside the budget; up to
  // three pairs try, and a solver that ignored the budget fails all three.
  double budget = 0.0;
  EpochResult starved;
  for (int pair = 0; pair < 3; ++pair) {
    const EpochResult unbounded = second_epoch(0.0);
    ASSERT_TRUE(unbounded.warm_started);
    ASSERT_FALSE(unbounded.degraded) << to_string(unbounded.degraded_reasons);
    budget = unbounded.solve_seconds / 2.0;
    starved = second_epoch(budget);
    if (starved.has_reason(DegradedReason::kLpBudgetExhausted)) break;
  }
  // Budget exhaustion after a warm start means the cold retry ran out too.
  ASSERT_TRUE(starved.has_reason(DegradedReason::kLpBudgetExhausted))
      << to_string(starved.degraded_reasons);
  EXPECT_FALSE(starved.warm_started);
  EXPECT_GE(starved.solve_seconds, 2.0 * budget);
}

TEST(Controller, BudgetedEpochStillSolvesWhenBudgetSuffices) {
  FailureFixture f;
  ControllerOptions copts;
  copts.architecture = Architecture::kPathReplicate;
  copts.lp.max_seconds = 30.0;  // Generous: a real deployment budget.
  Controller controller(f.topology, f.tm, copts);
  const EpochResult result = controller.run({.tm = &f.tm});
  EXPECT_FALSE(result.degraded);
  EXPECT_TRUE(result.degraded_reasons.empty());
  EXPECT_NEAR(result.assignment.miss_rate, 0.0, 1e-6);
}

}  // namespace
}  // namespace nwlb::core
