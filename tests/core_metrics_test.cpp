// Controller telemetry: every epoch and patch lands in the injected
// obs::Registry as nwlb_controller_* metrics plus one trace event, and the
// degraded/backoff paths are distinguishable from healthy optima.
#include <gtest/gtest.h>

#include <string>

#include "core/controller.h"
#include "obs/metrics.h"
#include "topo/topology.h"
#include "traffic/matrix.h"

namespace nwlb::core {
namespace {

struct MetricsFixture {
  topo::Topology topology = topo::make_internet2();
  traffic::TrafficMatrix tm;
  obs::Registry registry;

  MetricsFixture()
      : tm(traffic::gravity_matrix(topology.graph, traffic::paper_total_sessions(11))) {}

  ControllerOptions options() {
    ControllerOptions opts;
    opts.architecture = Architecture::kPathReplicate;
    opts.metrics = &registry;
    return opts;
  }
};

TEST(ControllerMetrics, HealthyEpochsAreCounted) {
  MetricsFixture f;
  Controller controller(f.topology, f.tm, f.options());
  controller.run({.tm = &f.tm});
  controller.run({.tm = &f.tm});
  EXPECT_EQ(f.registry.counter("nwlb_controller_epochs_total").value(), 2u);
  EXPECT_EQ(f.registry.counter("nwlb_controller_epoch_outcomes_total",
                               {{"status", "optimal"}})
                .value(),
            2u);
  EXPECT_EQ(f.registry.counter("nwlb_controller_epochs_degraded_total").value(), 0u);
  // Second epoch reuses the first epoch's basis.
  EXPECT_EQ(f.registry.counter("nwlb_controller_epochs_warm_started_total").value(), 1u);
  EXPECT_GT(f.registry.counter("nwlb_controller_lp_iterations_total").value(), 0u);
  // One trace event per epoch, newest last.
  const auto events = f.registry.trace().events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events.back().scope, "controller");
  EXPECT_EQ(events.back().name, "epoch");
  EXPECT_NE(events.back().detail.find("status=optimal"), std::string::npos);
}

TEST(ControllerMetrics, BudgetExhaustionCountsDegradedAndBackoff) {
  MetricsFixture f;
  ControllerOptions opts = f.options();
  opts.lp.max_iterations = 1;  // Guaranteed budget exhaustion.
  Controller controller(f.topology, f.tm, opts);
  controller.run({.tm = &f.tm});  // Fails, enters backoff.
  controller.run({.tm = &f.tm});  // Served during backoff.
  EXPECT_EQ(f.registry.counter("nwlb_controller_epochs_total").value(), 2u);
  EXPECT_EQ(f.registry.counter("nwlb_controller_epochs_degraded_total").value(), 2u);
  EXPECT_EQ(f.registry.counter("nwlb_controller_epoch_outcomes_total",
                               {{"status", "iteration-limit"}})
                .value(),
            1u);
  EXPECT_EQ(f.registry.counter("nwlb_controller_epoch_outcomes_total",
                               {{"status", "backoff"}})
                .value(),
            1u);
  EXPECT_GT(f.registry.gauge("nwlb_controller_backoff_epochs_remaining").value(), 0.0);
}

TEST(ControllerMetrics, PatchesAreCountedSeparately) {
  MetricsFixture f;
  Controller controller(f.topology, f.tm, f.options());
  controller.run({.tm = &f.tm});
  FailureSet failures;
  failures.down_nodes = {2};
  controller.run({.failures = failures, .force_patch = true});
  EXPECT_EQ(f.registry.counter("nwlb_controller_patches_total").value(), 1u);
  // A force_patch request is tier 1, not an epoch.
  EXPECT_EQ(f.registry.counter("nwlb_controller_epochs_total").value(), 1u);
  const auto events = f.registry.trace().events();
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events.back().name, "patch");
}

TEST(ControllerMetrics, TypedReasonsAndGenerationAreExported) {
  MetricsFixture f;
  ControllerOptions opts = f.options();
  opts.lp.max_iterations = 1;  // Guaranteed budget exhaustion.
  Controller controller(f.topology, f.tm, opts);
  controller.run({.tm = &f.tm});
  EXPECT_GE(f.registry
                .counter("nwlb_controller_degraded_reasons_total",
                         {{"reason", "lp_budget_exhausted"}})
                .value(),
            1u);
  EXPECT_EQ(f.registry
                .counter("nwlb_controller_degraded_reasons_total",
                         {{"reason", "no_known_good"}})
                .value(),
            1u);
  // The generation gauge tracks the monotonic bundle counter.
  EXPECT_EQ(f.registry.gauge("nwlb_controller_generation").value(), 1.0);
  controller.run({.tm = &f.tm});
  EXPECT_EQ(f.registry.gauge("nwlb_controller_generation").value(), 2.0);
}

TEST(ControllerMetrics, NullRegistryRecordsNothing) {
  MetricsFixture f;
  Controller controller(f.topology, f.tm, Architecture::kPathReplicate);
  controller.run({.tm = &f.tm});  // Must not crash without a registry.
  EXPECT_EQ(f.registry.size(), 0u);
}

TEST(ControllerMetrics, SolveSecondsHistogramObservesEveryEpoch) {
  MetricsFixture f;
  Controller controller(f.topology, f.tm, f.options());
  controller.run({.tm = &f.tm});
  controller.run({.tm = &f.tm});
  const obs::Snapshot snap = f.registry.snapshot();
  bool found = false;
  for (const obs::Sample& sample : snap.samples) {
    if (sample.name != "nwlb_controller_solve_seconds") continue;
    found = true;
    EXPECT_EQ(sample.kind, obs::Sample::Kind::kHistogram);
    EXPECT_EQ(sample.count, 2u);
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace nwlb::core
