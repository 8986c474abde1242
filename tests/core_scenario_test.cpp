// Scenario assembly, placement strategies, controller epochs.
#include <gtest/gtest.h>

#include "core/controller.h"
#include "core/scenario.h"
#include "topo/topology.h"
#include "traffic/matrix.h"
#include "traffic/variability.h"

namespace nwlb::core {
namespace {

struct ScenarioFixture {
  topo::Topology topology = topo::make_internet2();
  traffic::TrafficMatrix tm;

  ScenarioFixture()
      : tm(traffic::gravity_matrix(topology.graph, traffic::paper_total_sessions(11))) {}
};

TEST(Scenario, ProvisioningMakesIngressLoadOne) {
  ScenarioFixture f;
  const Scenario scenario(f.topology, f.tm);
  const auto loads = Scenario::ingress_pop_loads(scenario.routing(), scenario.classes(),
                                                 nids::Footprint{});
  EXPECT_NEAR(*std::max_element(loads.begin(), loads.end()), scenario.base_capacity(),
              1e-9);
}

TEST(Scenario, PlacementStrategiesAllValid) {
  ScenarioFixture f;
  const topo::Routing routing(f.topology.graph);
  for (auto placement : {DcPlacement::kMostOriginating, DcPlacement::kMostObserved,
                         DcPlacement::kMostPaths, DcPlacement::kMedoid}) {
    const topo::NodeId pop = Scenario::place_datacenter(routing, f.tm, placement);
    EXPECT_GE(pop, 0);
    EXPECT_LT(pop, f.topology.graph.num_nodes());
  }
}

TEST(Scenario, MostOriginatingIsBiggestGravityNode) {
  ScenarioFixture f;
  const topo::Routing routing(f.topology.graph);
  const topo::NodeId pop =
      Scenario::place_datacenter(routing, f.tm, DcPlacement::kMostOriginating);
  EXPECT_EQ(f.topology.graph.name(pop), "NewYork");
}

TEST(Scenario, ProblemShapesPerArchitecture) {
  ScenarioFixture f;
  const Scenario scenario(f.topology, f.tm);
  const ProblemInput ingress = scenario.problem(Architecture::kIngress);
  EXPECT_FALSE(ingress.has_datacenter());
  EXPECT_EQ(ingress.capacities.num_nodes(), 11);

  const ProblemInput replicate = scenario.problem(Architecture::kPathReplicate);
  EXPECT_TRUE(replicate.has_datacenter());
  EXPECT_EQ(replicate.capacities.num_nodes(), 12);
  EXPECT_NEAR(replicate.capacities.of(11, nids::Resource::kCpu),
              10.0 * scenario.base_capacity(), 1e-6);
  for (const auto& mirrors : replicate.mirror_sets)
    EXPECT_EQ(mirrors, (std::vector<int>{11}));

  const ProblemInput onehop = scenario.problem(Architecture::kLocalOffload1);
  EXPECT_FALSE(onehop.has_datacenter());
  for (int j = 0; j < 11; ++j) {
    const auto expected = f.topology.graph.neighborhood(j, 1);
    EXPECT_EQ(onehop.mirror_sets[static_cast<std::size_t>(j)].size(), expected.size());
  }

  const ProblemInput augmented = scenario.problem(Architecture::kPathAugmented);
  EXPECT_NEAR(augmented.capacities.of(0, nids::Resource::kCpu),
              scenario.base_capacity() * (1.0 + 10.0 / 11.0), 1e-6);

  const ProblemInput combo = scenario.problem(Architecture::kDcPlusOneHop);
  EXPECT_TRUE(combo.has_datacenter());
  EXPECT_GT(combo.mirror_sets[0].size(), 1u);
}

TEST(Scenario, SetTrafficKeepsProvisioning) {
  ScenarioFixture f;
  Scenario scenario(f.topology, f.tm);
  const double cap = scenario.base_capacity();
  traffic::TrafficMatrix doubled = f.tm;
  doubled.scale(2.0);
  scenario.set_traffic(doubled);
  EXPECT_DOUBLE_EQ(scenario.base_capacity(), cap);
  // Ingress under doubled traffic now exceeds provisioned capacity.
  const Assignment a = scenario.solve(Architecture::kIngress);
  EXPECT_NEAR(a.load_cost, 2.0, 1e-9);
}

TEST(Scenario, ArchitectureNames) {
  EXPECT_STREQ(to_string(Architecture::kPathReplicate), "Path,Replicate");
  EXPECT_STREQ(to_string(DcPlacement::kMedoid), "medoid");
}

TEST(Controller, EpochsProduceConfigsAndWarmStarts) {
  ScenarioFixture f;
  Controller controller(f.topology, f.tm, Architecture::kPathReplicate);
  const traffic::VariabilityModel model(traffic::abilene_like_factor_cdf());
  const auto tms = model.sample_many(f.tm, 3, 17);

  const EpochResult first = controller.run({.tm = &tms[0]});
  EXPECT_FALSE(first.warm_started);
  EXPECT_EQ(first.bundle.configs.size(), 11u);
  EXPECT_EQ(first.bundle.generation, 1u);
  EXPECT_GT(first.iterations, 0);

  const EpochResult second = controller.run({.tm = &tms[1]});
  EXPECT_TRUE(second.warm_started);
  EXPECT_LE(second.iterations, first.iterations);
  EXPECT_EQ(controller.epochs_run(), 2);

  // Warm-started epochs still produce optimal, fully covered assignments.
  for (double cov : second.assignment.coverage) EXPECT_NEAR(cov, 1.0, 1e-6);
}

TEST(Controller, IngressControllerNeedsNoLp) {
  ScenarioFixture f;
  Controller controller(f.topology, f.tm, Architecture::kIngress);
  const EpochResult result = controller.run({.tm = &f.tm});
  EXPECT_EQ(result.iterations, 0);
  EXPECT_NEAR(result.assignment.load_cost, 1.0, 1e-9);
}

}  // namespace
}  // namespace nwlb::core
