// The rollout engine and churn accounting: diffs between versioned config
// bundles, skip-identical behaviour, and make-before-break staging into a
// live replay simulator.
#include <gtest/gtest.h>

#include <cstdint>

#include "core/mapper.h"
#include "core/replication_lp.h"
#include "core/scenario.h"
#include "nids/signature.h"
#include "online/rollout.h"
#include "shim/bundle.h"
#include "sim/replay.h"
#include "sim/trace.h"
#include "topo/topology.h"
#include "traffic/matrix.h"

namespace nwlb::online {
namespace {

struct RolloutFixture {
  topo::Topology topology = topo::make_internet2();
  traffic::TrafficMatrix tm;
  core::Scenario scenario;
  core::ProblemInput replicate_input;
  core::ProblemInput ingress_input;
  shim::ConfigBundle replicate_bundle;  // Generation 1.
  shim::ConfigBundle ingress_bundle;    // Generation 2, different behaviour.

  RolloutFixture()
      : tm(traffic::gravity_matrix(topology.graph, traffic::paper_total_sessions(11))),
        scenario(topology, tm),
        replicate_input(scenario.problem(core::Architecture::kPathReplicate)),
        ingress_input(scenario.problem(core::Architecture::kIngress)),
        replicate_bundle(core::build_bundle(
            replicate_input, core::ReplicationLp(replicate_input).solve(), 1)),
        ingress_bundle(core::build_bundle(
            ingress_input, core::ReplicationLp(ingress_input).solve(), 2)) {}

  sim::ReplaySimulator make_sim() const {
    return sim::ReplaySimulator(replicate_input, replicate_bundle);
  }
  sim::TraceGenerator make_generator() const {
    sim::TraceConfig tc;
    tc.scanners = 0;
    return sim::TraceGenerator(replicate_input.classes, tc, /*seed=*/77);
  }
};

TEST(Churn, IdenticalBundlesMoveNothing) {
  RolloutFixture f;
  const shim::ChurnReport report =
      shim::churn_between(f.replicate_bundle, f.replicate_bundle);
  EXPECT_DOUBLE_EQ(report.moved_fraction, 0.0);
  EXPECT_EQ(report.pops_changed, 0);
  EXPECT_GT(report.tables_compared, 0);
  for (const double moved : report.pop_moved) EXPECT_DOUBLE_EQ(moved, 0.0);
}

TEST(Churn, ArchitectureSwitchMovesHashSpace) {
  RolloutFixture f;
  const shim::ChurnReport report =
      shim::churn_between(f.replicate_bundle, f.ingress_bundle);
  // Ingress-only processing reassigns real hash ranges away from the
  // replication plan: the diff must see it, bounded by the whole space.
  EXPECT_GT(report.moved_fraction, 0.0);
  EXPECT_LE(report.moved_fraction, 1.0);
  EXPECT_GT(report.pops_changed, 0);
  EXPECT_EQ(report.pop_moved.size(), f.replicate_bundle.configs.size());
}

TEST(Churn, GenerationTagAloneIsNotChurn) {
  RolloutFixture f;
  shim::ConfigBundle retagged = f.replicate_bundle;
  retagged.generation = 99;
  EXPECT_DOUBLE_EQ(shim::churn_between(f.replicate_bundle, retagged).moved_fraction,
                   0.0);
}

TEST(Churn, MissingTableActsAsAllIgnore) {
  RolloutFixture f;
  EXPECT_DOUBLE_EQ(shim::moved_fraction(nullptr, nullptr), 0.0);
  // Find any table with a non-ignore action; diffing it against "absent"
  // must move exactly its non-ignore fraction of the space.
  for (const shim::ShimConfig& config : f.replicate_bundle.configs) {
    for (std::size_t c = 0; c < f.replicate_input.classes.size(); ++c) {
      const shim::RangeTable* table =
          config.table(static_cast<int>(c), nids::Direction::kForward);
      if (table == nullptr) continue;
      const double active = table->fraction_of(shim::Action::Kind::kProcess) +
                            table->fraction_of(shim::Action::Kind::kReplicate);
      if (active <= 0.0) continue;
      EXPECT_NEAR(shim::moved_fraction(table, nullptr), active, 1e-9);
      EXPECT_NEAR(shim::moved_fraction(nullptr, table), active, 1e-9);
      EXPECT_DOUBLE_EQ(shim::moved_fraction(table, table), 0.0);
      return;
    }
  }
  FAIL() << "fixture produced no active range table";
}

TEST(RolloutEngine, SkipsIdenticalConfigsButAdoptsTheTag) {
  RolloutFixture f;
  sim::ReplaySimulator sim = f.make_sim();
  RolloutEngine engine(f.replicate_bundle);

  shim::ConfigBundle retagged = f.replicate_bundle;
  retagged.generation = 2;
  const RolloutReport report = engine.apply(sim, retagged);
  EXPECT_FALSE(report.installed);
  EXPECT_EQ(report.generation, 2u);
  EXPECT_DOUBLE_EQ(report.churn.moved_fraction, 0.0);
  EXPECT_EQ(engine.skipped(), 1u);
  EXPECT_EQ(engine.installs(), 0u);
  // The diff baseline adopts the tag; the data plane keeps generation 1.
  EXPECT_EQ(engine.current().generation, 2u);
  EXPECT_EQ(sim.active_generation(), 1u);
  EXPECT_EQ(sim.num_generations(), 1u);
}

TEST(RolloutEngine, InstallsChangedBundleMakeBeforeBreak) {
  RolloutFixture f;
  sim::ReplaySimulator sim = f.make_sim();
  sim::TraceGenerator generator = f.make_generator();
  sim.replay(generator.generate(50), generator);

  RolloutOptions opts;
  opts.drain_sessions = 100;
  RolloutEngine engine(f.replicate_bundle, opts);
  const RolloutReport report = engine.apply(sim, f.ingress_bundle);
  EXPECT_TRUE(report.installed);
  EXPECT_EQ(report.activate_at, 150u);
  EXPECT_GT(report.churn.moved_fraction, 0.0);
  EXPECT_EQ(engine.installs(), 1u);
  EXPECT_EQ(engine.current(), f.ingress_bundle);

  // Both generations coexist; the old one still serves until the cursor
  // reaches the activation point.
  EXPECT_EQ(sim.num_generations(), 2u);
  EXPECT_EQ(sim.active_generation(), 1u);
  sim.replay(generator.generate(120), generator);
  EXPECT_EQ(sim.active_generation(), 2u);
  EXPECT_EQ(sim.num_generations(), 1u);  // Old generation fully drained.
}

}  // namespace
}  // namespace nwlb::online
