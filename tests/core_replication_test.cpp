// Replication-formulation invariants (Fig. 7) on real topologies.
#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "core/replication_lp.h"
#include "core/scenario.h"
#include "core/split_lp.h"
#include "topo/topology.h"
#include "traffic/matrix.h"

namespace nwlb::core {
namespace {

struct Fixture {
  topo::Topology topology;
  traffic::TrafficMatrix tm;
  Scenario scenario;

  explicit Fixture(ScenarioConfig config = {})
      : topology(topo::make_internet2()),
        tm(traffic::gravity_matrix(topology.graph, traffic::paper_total_sessions(11))),
        scenario(topology, tm, config) {}
};

TEST(ReplicationLp, IngressLoadIsOneByConstruction) {
  Fixture f;
  const Assignment a = f.scenario.solve(Architecture::kIngress);
  EXPECT_NEAR(a.load_cost, 1.0, 1e-9);
  EXPECT_NEAR(a.miss_rate, 0.0, 1e-12);
  for (double cov : a.coverage) EXPECT_NEAR(cov, 1.0, 1e-12);
}

TEST(ReplicationLp, CoverageSumsToOne) {
  Fixture f;
  const Assignment a = f.scenario.solve(Architecture::kPathReplicate);
  for (std::size_t c = 0; c < f.scenario.classes().size(); ++c) {
    double total = 0.0;
    for (const auto& share : a.process[c]) total += share.fraction;
    // Offloads appear twice (fwd + rev) at the same fraction.
    double offload = 0.0;
    for (const auto& o : a.offloads[c])
      if (o.direction == nids::Direction::kForward) offload += o.fraction;
    EXPECT_NEAR(total + offload, 1.0, 1e-6);
  }
}

TEST(ReplicationLp, ArchitectureOrdering) {
  // More freedom can only help: Replicate <= NoReplicate <= Ingress = 1.
  Fixture f;
  const double ingress = f.scenario.solve(Architecture::kIngress).load_cost;
  const double path = f.scenario.solve(Architecture::kPathNoReplicate).load_cost;
  const double replicate = f.scenario.solve(Architecture::kPathReplicate).load_cost;
  EXPECT_NEAR(ingress, 1.0, 1e-9);
  EXPECT_LE(path, ingress + 1e-7);
  EXPECT_LE(replicate, path + 1e-7);
  // The paper's headline: replication is a substantial improvement.
  EXPECT_LT(replicate, 0.8 * path);
}

TEST(ReplicationLp, ProcessOnlyOnPath) {
  Fixture f;
  const Assignment a = f.scenario.solve(Architecture::kPathNoReplicate);
  for (std::size_t c = 0; c < f.scenario.classes().size(); ++c) {
    const auto nodes = f.scenario.classes()[c].fwd_nodes();
    for (const auto& share : a.process[c])
      EXPECT_TRUE(std::binary_search(nodes.begin(), nodes.end(), share.node));
    EXPECT_TRUE(a.offloads[c].empty());
  }
}

TEST(ReplicationLp, LinkCapRespected) {
  for (double mll : {0.1, 0.4, 0.8}) {
    ScenarioConfig config;
    config.max_link_load = mll;
    Fixture f(config);
    const Assignment a = f.scenario.solve(Architecture::kPathReplicate);
    for (double util : a.link_utilization)
      EXPECT_LE(util, std::max(mll, 1.0 / 3.0) + 1e-6);
  }
}

TEST(ReplicationLp, MonotoneInMaxLinkLoad) {
  double previous = 2.0;
  for (double mll : {0.05, 0.2, 0.4, 0.8}) {
    ScenarioConfig config;
    config.max_link_load = mll;
    Fixture f(config);
    const double cost = f.scenario.solve(Architecture::kPathReplicate).load_cost;
    EXPECT_LE(cost, previous + 1e-7) << "mll=" << mll;
    previous = cost;
  }
}

TEST(ReplicationLp, MonotoneInDatacenterCapacity) {
  double previous = 2.0;
  for (double factor : {1.0, 2.0, 8.0, 16.0}) {
    ScenarioConfig config;
    config.dc_factor = factor;
    Fixture f(config);
    const double cost = f.scenario.solve(Architecture::kPathReplicate).load_cost;
    EXPECT_LE(cost, previous + 1e-7) << "dc=" << factor;
    previous = cost;
  }
}

TEST(ReplicationLp, LoadCostMatchesRecomputedLoads) {
  Fixture f;
  const Assignment a = f.scenario.solve(Architecture::kPathReplicate);
  // The LP objective equals the recomputed max load.
  EXPECT_NEAR(a.load_cost, a.lp.objective, 1e-5);
}

TEST(ReplicationLp, LocalOffloadHelpsWithoutDc) {
  Fixture f;
  const double path = f.scenario.solve(Architecture::kPathNoReplicate).load_cost;
  const double onehop = f.scenario.solve(Architecture::kLocalOffload1).load_cost;
  const double twohop = f.scenario.solve(Architecture::kLocalOffload2).load_cost;
  EXPECT_LE(onehop, path + 1e-7);
  EXPECT_LE(twohop, onehop + 1e-7);
  // Fig. 14: 1-hop offload strictly improves on pure on-path distribution
  // (the gain is modest on the small Internet2 and grows with topology size).
  EXPECT_LT(onehop, path - 1e-9);
}

TEST(ReplicationLp, AugmentedBeatsPlainPath) {
  Fixture f;
  const double path = f.scenario.solve(Architecture::kPathNoReplicate).load_cost;
  const double augmented = f.scenario.solve(Architecture::kPathAugmented).load_cost;
  EXPECT_LT(augmented, path);
}

TEST(ReplicationLp, DcPlusOneHopAtLeastAsGoodAsDcOnly) {
  Fixture f;
  const double dc = f.scenario.solve(Architecture::kPathReplicate).load_cost;
  const double combo = f.scenario.solve(Architecture::kDcPlusOneHop).load_cost;
  EXPECT_LE(combo, dc + 1e-7);
}

TEST(ReplicationLp, PiecewiseLinkCostFeasibleAndBounded) {
  Fixture f;
  const ProblemInput input = f.scenario.problem(Architecture::kPathReplicate);
  ReplicationOptions opts;
  opts.link_cost = LinkCostModel::kPiecewise;
  const ReplicationLp formulation(input, opts);
  const Assignment a = formulation.solve();
  // Soft caps can only do at least as well on compute load.
  const Assignment hard = ReplicationLp(input).solve();
  EXPECT_LE(a.load_cost, hard.load_cost + 1e-6);
}

TEST(ReplicationLp, RejectsBadPiecewiseOptions) {
  Fixture f;
  const ProblemInput input = f.scenario.problem(Architecture::kPathReplicate);
  const auto piecewise = [](auto edit) {
    ReplicationOptions options;
    options.link_cost = LinkCostModel::kPiecewise;
    edit(options);
    return options;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ReplicationLp(input, piecewise([](auto& o) { o.penalty_high = -1.0; })),
               std::invalid_argument);  // Below penalty_low: the slabs turn non-convex.
  EXPECT_THROW(ReplicationLp(input, piecewise([](auto& o) { o.penalty_low = -0.01; })),
               std::invalid_argument);
  EXPECT_THROW(ReplicationLp(input, piecewise([&](auto& o) { o.penalty_high = inf; })),
               std::invalid_argument);
  EXPECT_THROW(ReplicationLp(input, piecewise([&](auto& o) { o.penalty_low = nan; })),
               std::invalid_argument);
  EXPECT_THROW(ReplicationLp(input, piecewise([&](auto& o) { o.knee = nan; })),
               std::invalid_argument);
  EXPECT_THROW(ReplicationLp(input, piecewise([&](auto& o) { o.knee = inf; })),
               std::invalid_argument);
  EXPECT_NO_THROW(ReplicationLp(input, piecewise([](auto& o) { o.penalty_high = o.penalty_low; })));
}

TEST(ReplicationLp, ZeroMaxLinkLoadAddsNoLinkTraffic) {
  ScenarioConfig config;
  config.max_link_load = 0.0;  // Nothing above background is allowed.
  Fixture f(config);
  const Assignment a = f.scenario.solve(Architecture::kPathReplicate);
  const ProblemInput input = f.scenario.problem(Architecture::kPathReplicate);
  // No WAN link may carry any replication byte; utilization == background.
  for (std::size_t l = 0; l < a.link_utilization.size(); ++l)
    EXPECT_NEAR(a.link_utilization[l],
                input.background_bytes[l] / input.link_capacity[l], 1e-9);
  // The DC can still absorb traffic from classes passing its attachment PoP
  // (a co-located cluster crosses no WAN link), so load can only improve.
  const Assignment path = f.scenario.solve(Architecture::kPathNoReplicate);
  EXPECT_LE(a.load_cost, path.load_cost + 1e-7);
}

TEST(ReplicationLp, DcAccessLinkCapsIntake) {
  // With a finite DC uplink, total replicated bytes into the cluster obey
  // MaxLinkLoad on that uplink; shrinking the uplink raises the load cost.
  Fixture f;
  const ProblemInput base = f.scenario.problem(Architecture::kPathReplicate);
  const Assignment normal = ReplicationLp(base).solve();
  EXPECT_LE(normal.dc_access_utilization, base.max_link_load + 1e-6);

  ProblemInput tight = base;
  tight.dc_access_capacity = base.dc_access_capacity / 10.0;
  const Assignment constrained = ReplicationLp(tight).solve();
  EXPECT_LE(constrained.dc_access_utilization, tight.max_link_load + 1e-6);
  EXPECT_GE(constrained.load_cost, normal.load_cost - 1e-9);

  ProblemInput uncapped = base;
  uncapped.dc_access_capacity = 0.0;  // Disabled.
  const Assignment free = ReplicationLp(uncapped).solve();
  EXPECT_LE(free.load_cost, normal.load_cost + 1e-7);
  EXPECT_DOUBLE_EQ(free.dc_access_utilization, 0.0);
}

TEST(ReplicationLp, AccessUtilizationMonotoneInMll) {
  Fixture f;
  ProblemInput input = f.scenario.problem(Architecture::kPathReplicate);
  double previous_load = 2.0;
  for (double mll : {0.1, 0.4, 0.8}) {
    input.max_link_load = mll;
    const Assignment a = ReplicationLp(input).solve();
    EXPECT_LE(a.dc_access_utilization, mll + 1e-6);
    EXPECT_LE(a.load_cost, previous_load + 1e-7);
    previous_load = a.load_cost;
  }
}

TEST(ReplicationLp, WarmStartAcrossTrafficShift) {
  Fixture f;
  const ProblemInput input = f.scenario.problem(Architecture::kPathReplicate);
  const ReplicationLp formulation(input);
  const Assignment cold = formulation.solve();

  traffic::TrafficMatrix shifted = f.tm;
  shifted.scale(1.2);
  f.scenario.set_traffic(shifted);
  const ProblemInput input2 = f.scenario.problem(Architecture::kPathReplicate);
  const ReplicationLp formulation2(input2);
  const Assignment warm = formulation2.solve({}, &cold.lp.basis);
  const Assignment cold2 = formulation2.solve();
  EXPECT_NEAR(warm.load_cost, cold2.load_cost, 1e-6);
  EXPECT_LE(warm.lp.iterations + warm.lp.phase1_iterations,
            cold2.lp.iterations + cold2.lp.phase1_iterations);
}

TEST(ReplicationLp, ValidationCatchesBadInput) {
  Fixture f;
  ProblemInput input = f.scenario.problem(Architecture::kPathReplicate);
  input.max_link_load = 2.0;
  EXPECT_THROW(ReplicationLp{input}, std::invalid_argument);
  ProblemInput input2 = f.scenario.problem(Architecture::kPathReplicate);
  input2.link_capacity.pop_back();
  EXPECT_THROW(ReplicationLp{input2}, std::invalid_argument);
}

TEST(ReplicationLp, ValidationCatchesReversePathOffTheGraph) {
  // The reverse path is checked as the forward one is: a node outside the
  // graph is a validation error naming the path, not an out_of_range
  // thrown later from a formulation's link walk.
  Fixture f;
  ProblemInput input = f.scenario.problem(Architecture::kPathReplicate);
  traffic::TrafficClass& cls = input.classes[0];
  cls.rev_path = {cls.egress, 99, cls.ingress};
  try {
    input.validate();
    ADD_FAILURE() << "a reverse path leaving the graph was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("class path leaves the graph"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(ReplicationLp{input}, std::invalid_argument);
  EXPECT_THROW(SplitTrafficLp{input}, std::invalid_argument);
}

}  // namespace
}  // namespace nwlb::core
