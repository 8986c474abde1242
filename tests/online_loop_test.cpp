// The online control loop end to end: estimator-driven epochs steer the
// data plane without an oracle traffic matrix, rollouts conserve every
// session, and the loop's telemetry lands in the registry.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/controller.h"
#include "obs/metrics.h"
#include "online/estimator.h"
#include "online/loop.h"
#include "sim/failure.h"
#include "sim/replay.h"
#include "sim/trace.h"
#include "topo/topology.h"
#include "traffic/matrix.h"

namespace nwlb::online {
namespace {

struct LoopFixture {
  topo::Topology topology = topo::make_internet2();
  traffic::TrafficMatrix tm;
  obs::Registry registry;
  core::Controller controller;
  core::EpochResult bootstrap;
  core::ProblemInput input;
  sim::ReplaySimulator simulator;
  sim::TraceGenerator generator;

  static core::ControllerOptions controller_options() {
    core::ControllerOptions copts;
    copts.architecture = core::Architecture::kPathReplicate;
    return copts;
  }
  static sim::TraceGenerator make_generator(const core::ProblemInput& input) {
    sim::TraceConfig tc;
    tc.scanners = 0;  // Pure class-proportional traffic for estimation.
    return sim::TraceGenerator(input.classes, tc, /*seed=*/77);
  }

  LoopFixture()
      : tm(traffic::gravity_matrix(topology.graph, traffic::paper_total_sessions(11))),
        controller(topology, tm, controller_options()),
        bootstrap(controller.run({.tm = &tm})),
        input(controller.scenario().problem(core::Architecture::kPathReplicate)),
        simulator(input, bootstrap.bundle),
        generator(make_generator(input)) {}

  ControlLoop make_loop(std::uint64_t drain = 0) {
    ControlLoopOptions lopts;
    lopts.estimator_options.scale_to_total = tm.total();
    lopts.rollout.drain_sessions = drain;
    lopts.metrics = &registry;
    return ControlLoop(controller, simulator, bootstrap.bundle, lopts);
  }
};

TEST(ControlLoop, EstimatorDrivenEpochTracksOracle) {
  LoopFixture f;
  ControlLoop loop = f.make_loop();
  IntervalReport last;
  for (int w = 0; w < 4; ++w)
    last = loop.run_interval(f.generator.generate(2500), f.generator);
  EXPECT_EQ(loop.intervals_run(), 4);

  // The ISSUE acceptance bound: with static traffic, the estimator-fed
  // epoch's max load lands within 10% of the oracle-fed plan.
  const double oracle_load = f.bootstrap.assignment.load_cost;
  ASSERT_GT(oracle_load, 0.0);
  EXPECT_FALSE(last.epoch.degraded);
  EXPECT_NEAR(last.epoch.assignment.load_cost, oracle_load, 0.10 * oracle_load);

  // And the estimated matrix itself tracks the oracle shape (trace
  // sampling is the only noise source).
  EXPECT_LT(estimation_error(loop.estimator().estimate(), f.tm), 0.15);
  EXPECT_NEAR(last.estimate_total, f.tm.total(), 1e-6 * f.tm.total());
}

TEST(ControlLoop, ConservesEverySessionAcrossIntervals) {
  LoopFixture f;
  ControlLoop loop = f.make_loop(/*drain=*/200);
  std::uint64_t replayed = 0;
  for (int w = 0; w < 3; ++w) {
    const IntervalReport report =
        loop.run_interval(f.generator.generate(1000), f.generator);
    replayed += report.sessions_replayed;
  }
  const sim::RolloutStats rollout = f.simulator.rollout_stats();
  EXPECT_EQ(rollout.sessions_current_generation + rollout.sessions_draining_generation,
            replayed);
  EXPECT_EQ(rollout.sessions_unassigned, 0u);
  EXPECT_EQ(f.simulator.stats().sessions_replayed, replayed);
  // Every installed rollout came through the engine.
  EXPECT_EQ(loop.rollout().installs(), rollout.rollouts_installed);
}

TEST(ControlLoop, SteadyStateSkipsIdenticalBundles) {
  LoopFixture f;
  ControlLoop loop = f.make_loop();
  // Replay the *same* window every interval: the first observation seeds
  // the EWMA exactly, so from then on the estimate — and therefore the
  // warm-started epoch's plan — is bit-identical each interval.
  const std::vector<sim::SessionSpec> window = f.generator.generate(1000);
  for (int w = 0; w < 4; ++w) loop.run_interval(window, f.generator);
  // A truly static feed converges: later rollouts are skipped as
  // identical and the data plane keeps its compiled tables.
  EXPECT_GT(loop.rollout().skipped(), 0u);
  EXPECT_EQ(loop.rollout().installs() + loop.rollout().skipped(), 4u);
}

TEST(ControlLoop, ExportsOnlineMetrics) {
  LoopFixture f;
  ControlLoop loop = f.make_loop();
  for (int w = 0; w < 2; ++w)
    loop.run_interval(f.generator.generate(800), f.generator);
  EXPECT_EQ(f.registry.counter("nwlb_online_intervals_total").value(), 2u);
  EXPECT_EQ(f.registry.counter("nwlb_online_sessions_total").value(), 1600u);
  const std::uint64_t installed =
      f.registry.counter("nwlb_online_rollouts_total").value();
  const std::uint64_t skipped =
      f.registry.counter("nwlb_online_rollouts_skipped_total").value();
  EXPECT_EQ(installed + skipped, 2u);
  EXPECT_GT(f.registry.gauge("nwlb_online_estimate_total_sessions").value(), 0.0);
  EXPECT_EQ(f.registry.gauge("nwlb_online_failures_reported").value(), 0.0);
}

TEST(ControlLoop, ZeroTrafficWindowKeepsEstimateWellFormed) {
  LoopFixture f;
  ControlLoop loop = f.make_loop();
  loop.run_interval(f.generator.generate(1000), f.generator);  // Seed the EWMA.

  // A window with no traffic at all: the support floor plus scale
  // anchoring must keep every known class pair positive — the LP model
  // shape cannot collapse just because an interval was quiet.
  const IntervalReport quiet = loop.run_interval({}, f.generator);
  EXPECT_EQ(quiet.sessions_replayed, 0u);
  EXPECT_NEAR(quiet.estimate_total, f.tm.total(), 1e-6 * f.tm.total());
  EXPECT_FALSE(quiet.epoch.degraded);
  const traffic::TrafficMatrix estimate = loop.estimator().estimate();
  for (const auto& cls : f.input.classes)
    EXPECT_GT(estimate.volume(cls.ingress, cls.egress), 0.0)
        << "class " << cls.id << " vanished from the estimate";

  // And the loop keeps running normally afterwards.
  const IntervalReport next =
      loop.run_interval(f.generator.generate(1000), f.generator);
  EXPECT_FALSE(next.epoch.degraded);
  EXPECT_EQ(loop.intervals_run(), 3);
}

TEST(ControlLoop, MirrorFlapWithinOneIntervalStaysBelowHysteresis) {
  LoopFixture f;
  // Blackhole every processing node (PoPs and the datacenter — mirrors
  // live in the problem's processing-node id space, not the graph's) for
  // the middle third of the first interval's window: whichever mirrors
  // receive offloaded frames flap down and back within a single interval.
  sim::FailureSchedule flap;
  for (int node = 0; node < f.input.num_processing_nodes(); ++node) {
    sim::FailureEvent event;
    event.kind = sim::FailureKind::kMirrorBlackhole;
    event.target = node;
    event.begin = 300;
    event.end = 600;
    flap.add(event);
  }
  sim::ReplayOptions ropts;
  ropts.failures = &flap;
  sim::ReplaySimulator simulator(f.input, f.bootstrap.bundle, ropts);
  ControlLoopOptions lopts;
  lopts.estimator_options.scale_to_total = f.tm.total();
  ControlLoop loop(f.controller, simulator, f.bootstrap.bundle, lopts);

  const IntervalReport first =
      loop.run_interval(f.generator.generate(1000), f.generator);
  // The flap really happened on the data plane...
  EXPECT_GT(simulator.stats().tunnel_frames_blackholed, 0u);
  // ...but a sub-interval dip stays below the health monitor's
  // down_after hysteresis: no failure report, no verdict flip, and the
  // epoch is a normal re-optimization, not a degraded fallback.
  EXPECT_EQ(first.failures_reported, 0);
  EXPECT_EQ(simulator.stats().mirror_flaps, 0u);
  EXPECT_FALSE(first.epoch.degraded);

  // A clean follow-up interval stays healthy and loses nothing.
  const IntervalReport second =
      loop.run_interval(f.generator.generate(1000), f.generator);
  EXPECT_EQ(second.failures_reported, 0);
  EXPECT_FALSE(second.epoch.degraded);
  EXPECT_EQ(simulator.stats().sessions_replayed, 2000u);
}

TEST(ControlLoop, SustainedMirrorBlackholeReachesTheEpoch) {
  LoopFixture f;
  // The datacenter mirror drops every tunnelled frame and fails its
  // keepalive for the first three intervals.
  constexpr int kPerInterval = 1000;
  const int dc = f.input.datacenter_id();
  ASSERT_GT(f.bootstrap.assignment.datacenter_load(f.input), 0.0);
  sim::FailureSchedule hole;
  sim::FailureEvent event;
  event.kind = sim::FailureKind::kMirrorBlackhole;
  event.target = dc;
  event.begin = 0;
  event.end = 3 * kPerInterval;
  hole.add(event);
  sim::ReplayOptions ropts;
  ropts.failures = &hole;
  sim::ReplaySimulator simulator(f.input, f.bootstrap.bundle, ropts);
  ControlLoopOptions lopts;
  lopts.estimator_options.scale_to_total = f.tm.total();
  ControlLoop loop(f.controller, simulator, f.bootstrap.bundle, lopts);

  // One bad window stays below the down_after = 2 hysteresis.
  const IntervalReport first =
      loop.run_interval(f.generator.generate(kPerInterval), f.generator);
  EXPECT_EQ(first.failures_reported, 0);
  loop.run_interval(f.generator.generate(kPerInterval), f.generator);
  const IntervalReport third =
      loop.run_interval(f.generator.generate(kPerInterval), f.generator);
  // By the third interval the verdict is the epoch's failure report, and
  // the plan routes nothing to the dead datacenter.
  EXPECT_EQ(simulator.down_mirrors(), std::vector<int>{dc});
  EXPECT_EQ(third.failures_reported, 1);
  EXPECT_EQ(third.epoch.assignment.datacenter_load(f.input), 0.0);
}

TEST(ControlLoopOptions, ValidateRejectsEveryBadField) {
  ControlLoopOptions good;
  EXPECT_NO_THROW(good.validate());

  ControlLoopOptions bad_spec;
  bad_spec.estimator = "arima";
  EXPECT_THROW(bad_spec.validate(), std::invalid_argument);
  bad_spec.estimator = "ewma:window=0";
  EXPECT_THROW(bad_spec.validate(), std::invalid_argument);

  // The merged defaults are validated too, not just the spec overrides.
  ControlLoopOptions bad_defaults;
  bad_defaults.estimator_options.support_floor = 1.0;
  EXPECT_THROW(bad_defaults.validate(), std::invalid_argument);

  ControlLoopOptions bad_budget;
  bad_budget.epoch_max_seconds = -1.0;
  EXPECT_THROW(bad_budget.validate(), std::invalid_argument);
  ControlLoopOptions bad_tolerance;
  bad_tolerance.epoch_objective_tolerance = 1.0;
  EXPECT_THROW(bad_tolerance.validate(), std::invalid_argument);

  // The constructor enforces the same contract: a misconfigured loop
  // never starts.
  LoopFixture f;
  ControlLoopOptions lopts;
  lopts.estimator = "ewma:gamma=1";
  EXPECT_THROW(ControlLoop(f.controller, f.simulator, f.bootstrap.bundle, lopts),
               std::invalid_argument);
}

TEST(ControlLoop, RunsWithEveryRegisteredEstimatorKind) {
  // The loop never names a concrete estimator type: any registered spec
  // drives an interval end to end and tracks the oracle on static traffic.
  for (std::string_view kind : estimator_kinds()) {
    LoopFixture f;
    ControlLoopOptions lopts;
    lopts.estimator = std::string(kind);
    lopts.estimator_options.scale_to_total = f.tm.total();
    ControlLoop loop(f.controller, f.simulator, f.bootstrap.bundle, lopts);
    IntervalReport last;
    for (int w = 0; w < 3; ++w)
      last = loop.run_interval(f.generator.generate(2000), f.generator);
    EXPECT_EQ(loop.estimator().kind(), kind);
    EXPECT_FALSE(last.epoch.degraded) << kind;
    const double oracle_load = f.bootstrap.assignment.load_cost;
    EXPECT_NEAR(last.epoch.assignment.load_cost, oracle_load,
                0.10 * oracle_load)
        << kind;
  }
}

TEST(ControlLoop, RunsWithoutARegistry) {
  LoopFixture f;
  ControlLoopOptions lopts;
  lopts.estimator_options.scale_to_total = f.tm.total();
  ControlLoop loop(f.controller, f.simulator, f.bootstrap.bundle, lopts);
  const IntervalReport report =
      loop.run_interval(f.generator.generate(500), f.generator);
  EXPECT_EQ(report.sessions_replayed, 500u);
  EXPECT_GT(report.estimate_total, 0.0);
}

}  // namespace
}  // namespace nwlb::online
