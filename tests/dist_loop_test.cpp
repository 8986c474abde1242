// The replicated control loop end to end: N replicas drive the same data
// plane one leader at a time.  The ISSUE's acceptance properties live
// here — no generation regression and no double-install across crash and
// partition schedules (including a leader crash in each third of the
// install window), and with no faults the cluster converges to exactly
// the single-controller behavior.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/controller.h"
#include "dist/replicated_loop.h"
#include "obs/metrics.h"
#include "online/loop.h"
#include "sim/failure.h"
#include "sim/replay.h"
#include "sim/trace.h"
#include "topo/topology.h"
#include "traffic/matrix.h"

namespace nwlb::dist {
namespace {

struct DistFixture {
  topo::Topology topology = topo::make_internet2();
  traffic::TrafficMatrix tm;
  core::Controller bootstrap;
  core::EpochResult initial;
  core::ProblemInput input;

  static core::ControllerOptions controller_options() {
    core::ControllerOptions copts;
    copts.architecture = core::Architecture::kPathReplicate;
    return copts;
  }
  static sim::TraceGenerator make_generator(const core::ProblemInput& input) {
    sim::TraceConfig tc;
    tc.scanners = 0;
    return sim::TraceGenerator(input.classes, tc, /*seed=*/77);
  }

  DistFixture()
      : tm(traffic::gravity_matrix(topology.graph,
                                   traffic::paper_total_sessions(11))),
        bootstrap(topology, tm, controller_options()),
        initial(bootstrap.run({.tm = &tm})),
        input(bootstrap.scenario().problem(core::Architecture::kPathReplicate)) {}

  sim::ReplaySimulator make_simulator(const sim::FailureSchedule* faults) {
    sim::ReplayOptions ropts;
    ropts.failures = faults;
    return sim::ReplaySimulator(input, initial.bundle, ropts);
  }

  ReplicatedLoopOptions loop_options(const sim::FailureSchedule* faults,
                                     int replicas = 3) {
    ReplicatedLoopOptions dopts;
    dopts.replicas = replicas;
    dopts.replica.estimator.scale_to_total = tm.total();
    dopts.faults = faults;
    return dopts;
  }
};

TEST(ReplicatedLoop, NoFaultsConvergesToSingleControllerBehavior) {
  DistFixture f;
  sim::ReplaySimulator rsim = f.make_simulator(nullptr);
  ReplicatedControlLoop rloop(f.topology, f.tm, DistFixture::controller_options(),
                              rsim, f.initial.bundle, f.loop_options(nullptr));

  // The oracle: the plain single-controller loop on an identical data
  // plane, fed byte-identical windows (same generator seed).
  sim::ReplaySimulator ssim(f.input, f.initial.bundle);
  online::ControlLoopOptions lopts;
  lopts.estimator_options.scale_to_total = f.tm.total();
  online::ControlLoop sloop(f.bootstrap, ssim, f.initial.bundle, lopts);

  sim::TraceGenerator rgen = DistFixture::make_generator(f.input);
  sim::TraceGenerator sgen = DistFixture::make_generator(f.input);
  ReplicatedIntervalReport rrep;
  online::IntervalReport srep;
  std::uint64_t prev_generation = 0;
  for (int w = 0; w < 4; ++w) {
    rrep = rloop.run_interval(rgen.generate(1200), rgen);
    srep = sloop.run_interval(sgen.generate(1200), sgen);
    // Healthy cluster: replica 0 wins term 1 and never loses it, every
    // interval's digest covers all origins, generations never regress.
    EXPECT_EQ(rrep.leader, 0);
    EXPECT_EQ(rrep.term, 1u);
    EXPECT_EQ(rrep.replicas_heard, 3);
    EXPECT_EQ(rrep.replicas_alive, 3);
    EXPECT_GE(rrep.generation, prev_generation);
    prev_generation = rrep.generation;
  }
  EXPECT_EQ(rrep.elections_total, 1u);
  // The gossiped digest is *exact*, so the leader's estimate — and the
  // resulting plan — matches the centralized loop, not approximately.
  EXPECT_NEAR(rrep.estimate_total, srep.estimate_total,
              1e-9 * srep.estimate_total);
  ASSERT_TRUE(rrep.epoch_run);
  EXPECT_FALSE(rrep.epoch.degraded);
  EXPECT_FALSE(srep.epoch.degraded);
  EXPECT_NEAR(rrep.epoch.assignment.load_cost, srep.epoch.assignment.load_cost,
              1e-6 * srep.epoch.assignment.load_cost);
}

TEST(Failover, LeaderCrashResumesGenerationsWithoutRegression) {
  DistFixture f;
  sim::FailureSchedule faults;
  sim::FailureEvent crash;
  crash.kind = sim::FailureKind::kControllerCrash;
  crash.target = 0;
  crash.begin = 2000;  // Window boundary: replica 0 dies cleanly at tick 2.
  crash.end = sim::FailureEvent::kNever;
  faults.add(crash);

  sim::ReplaySimulator sim = f.make_simulator(&faults);
  ReplicatedControlLoop loop(f.topology, f.tm, DistFixture::controller_options(),
                             sim, f.initial.bundle, f.loop_options(&faults));
  sim::TraceGenerator gen = DistFixture::make_generator(f.input);

  std::vector<ReplicatedIntervalReport> reports;
  std::uint64_t prev_generation = 0;
  for (int w = 0; w < 8; ++w) {
    reports.push_back(loop.run_interval(gen.generate(1000), gen));
    ASSERT_GE(reports.back().generation, prev_generation)
        << "generation regressed at interval " << w;
    prev_generation = reports.back().generation;
  }
  // Ticks 0-1: replica 0 leads and installs.
  EXPECT_EQ(reports[1].leader, 0);
  EXPECT_GT(reports[1].generation, f.initial.bundle.generation);
  // Ticks 2-3 sit inside the dead leader's promise horizon: leaderless,
  // nothing installed, the data plane keeps the last good configuration.
  EXPECT_EQ(reports[2].leader, -1);
  EXPECT_EQ(reports[3].leader, -1);
  EXPECT_EQ(reports[3].generation, reports[1].generation);
  EXPECT_EQ(reports[2].replicas_alive, 2);
  // Tick 4: the promise expired, a survivor wins a higher term and the
  // generation sequence resumes from the gate's frontier.
  EXPECT_GT(reports[4].leader, 0);
  EXPECT_EQ(reports[4].term, 2u);
  EXPECT_GT(reports[7].generation, reports[1].generation);
  EXPECT_EQ(reports[7].leader, reports[4].leader) << "new reign is stable";
  EXPECT_EQ(reports[7].elections_total, 2u);
}

TEST(Failover, LeaderCrashInEachWindowThirdNeverDoubleInstalls) {
  // Offsets landing in each third of interval 1's window [1000, 2000):
  // died before the epoch, after the epoch but before the install, and
  // after the install but before advertising the generation.
  const struct {
    std::uint64_t begin;
    int phase;
  } cases[] = {{1166, 0}, {1500, 1}, {1833, 2}};
  for (const auto& c : cases) {
    SCOPED_TRACE(testing::Message() << "crash begin " << c.begin);
    DistFixture f;
    sim::FailureSchedule faults;
    sim::FailureEvent crash;
    crash.kind = sim::FailureKind::kControllerCrash;
    crash.target = 0;
    crash.begin = c.begin;
    crash.end = 4000;  // Revives at tick 4.
    faults.add(crash);

    sim::ReplaySimulator sim = f.make_simulator(&faults);
    ReplicatedControlLoop loop(f.topology, f.tm,
                               DistFixture::controller_options(), sim,
                               f.initial.bundle, f.loop_options(&faults));
    sim::TraceGenerator gen = DistFixture::make_generator(f.input);

    std::vector<ReplicatedIntervalReport> reports;
    std::uint64_t prev_generation = 0;
    for (int w = 0; w < 8; ++w) {
      reports.push_back(loop.run_interval(gen.generate(1000), gen));
      // The install gate asserts no regression / no duplicate / no
      // split-brain on every admit; this is the cross-interval view.
      ASSERT_GE(reports.back().generation, prev_generation);
      prev_generation = reports.back().generation;
    }
    const ReplicatedIntervalReport& dying = reports[1];
    EXPECT_EQ(dying.leader, 0) << "lease was committed before the crash";
    EXPECT_EQ(dying.epoch_run, c.phase >= 1);
    EXPECT_EQ(dying.install_attempted, c.phase >= 2);
    if (c.phase < 2)
      EXPECT_EQ(dying.generation, reports[0].generation)
          << "a half-finished interval must not move the frontier";
    else
      EXPECT_GT(dying.generation, reports[0].generation);
    // Whatever the phase, somebody holds a term-2 lease once the promise
    // expires — possibly the revived replica 0 itself, whose candidacy
    // round comes first — and numbers its bundles from the gate's
    // frontier, not its stale local counter.  The run reaching interval 7
    // with monotone generations is the no-double-install proof.
    EXPECT_GE(reports[4].leader, 0);
    EXPECT_EQ(reports[4].term, 2u);
    EXPECT_GT(reports[7].generation, dying.generation);
  }
}

TEST(Failover, MinorityPartitionStrandingLeaderFailsOverThenHeals) {
  DistFixture f;
  sim::FailureSchedule faults;
  sim::FailureEvent cut;
  cut.kind = sim::FailureKind::kPartition;
  cut.target = 0b001;  // Replica 0 alone on one side of the cut.
  cut.begin = 2000;
  cut.end = 5000;
  faults.add(cut);

  sim::ReplaySimulator sim = f.make_simulator(&faults);
  ReplicatedControlLoop loop(f.topology, f.tm, DistFixture::controller_options(),
                             sim, f.initial.bundle, f.loop_options(&faults));
  sim::TraceGenerator gen = DistFixture::make_generator(f.input);

  std::vector<ReplicatedIntervalReport> reports;
  std::uint64_t prev_generation = 0;
  for (int w = 0; w < 8; ++w) {
    reports.push_back(loop.run_interval(gen.generate(1000), gen));
    ASSERT_GE(reports.back().generation, prev_generation);
    prev_generation = reports.back().generation;
    // Exclusivity under partition is the whole point: the loop's internal
    // scan NWLB_CHECKs at most one committed lease per tick, and the gate
    // would abort on any same-term second installer.  Reaching here with
    // a report at all means both held.
  }
  // While the stranded leader's pre-partition lease still covers the
  // tick it may keep installing — legitimately; nobody else can commit.
  EXPECT_EQ(reports[2].partition, 0b001u);
  EXPECT_EQ(reports[2].replicas_alive, 3);
  // Once that lease lapses the majority side elects a new leader in a
  // higher term; the deposed replica can never renew across the cut.
  bool majority_leader_seen = false;
  for (int w = 3; w < 5; ++w)
    if (reports[static_cast<std::size_t>(w)].leader > 0)
      majority_leader_seen = true;
  EXPECT_TRUE(majority_leader_seen);
  // Healed: full digest coverage again, installs keep flowing.
  const ReplicatedIntervalReport& last = reports[7];
  EXPECT_EQ(last.partition, 0u);
  EXPECT_EQ(last.replicas_heard, 3);
  EXPECT_GT(last.generation, reports[2].generation);
}

TEST(ReplicatedLoop, ConservesEverySessionAcrossFailover) {
  DistFixture f;
  sim::FailureSchedule faults;
  sim::FailureEvent crash;
  crash.kind = sim::FailureKind::kControllerCrash;
  crash.target = 0;
  crash.begin = 2000;
  crash.end = 5000;
  faults.add(crash);

  sim::ReplaySimulator sim = f.make_simulator(&faults);
  ReplicatedControlLoop loop(f.topology, f.tm, DistFixture::controller_options(),
                             sim, f.initial.bundle, f.loop_options(&faults));
  sim::TraceGenerator gen = DistFixture::make_generator(f.input);
  std::uint64_t replayed = 0;
  for (int w = 0; w < 8; ++w)
    replayed += loop.run_interval(gen.generate(1000), gen).sessions_replayed;

  // Control-plane chaos must never cost the data plane a session: every
  // one replayed rode exactly one generation, before, during, and after
  // the failover.
  const sim::RolloutStats rollout = sim.rollout_stats();
  EXPECT_EQ(replayed, 8000u);
  EXPECT_EQ(sim.stats().sessions_replayed, replayed);
  EXPECT_EQ(rollout.sessions_current_generation +
                rollout.sessions_draining_generation,
            replayed);
  EXPECT_EQ(rollout.sessions_unassigned, 0u);
}

TEST(ReplicatedLoop, SustainedMirrorBlackholeReachesTheEpoch) {
  DistFixture f;
  // The datacenter mirror drops every tunnelled frame and fails its
  // keepalive for the first three intervals.
  constexpr int kPerInterval = 1000;
  const int dc = f.input.datacenter_id();
  ASSERT_GT(f.initial.assignment.datacenter_load(f.input), 0.0);
  sim::FailureSchedule hole;
  sim::FailureEvent event;
  event.kind = sim::FailureKind::kMirrorBlackhole;
  event.target = dc;
  event.begin = 0;
  event.end = 3 * kPerInterval;
  hole.add(event);
  sim::ReplaySimulator sim = f.make_simulator(&hole);
  ReplicatedControlLoop loop(f.topology, f.tm, DistFixture::controller_options(),
                             sim, f.initial.bundle, f.loop_options(nullptr));
  sim::TraceGenerator gen = DistFixture::make_generator(f.input);

  // One bad window stays below the down_after = 2 hysteresis.
  const ReplicatedIntervalReport first =
      loop.run_interval(gen.generate(kPerInterval), gen);
  EXPECT_EQ(first.failures_reported, 0);
  loop.run_interval(gen.generate(kPerInterval), gen);
  const ReplicatedIntervalReport third =
      loop.run_interval(gen.generate(kPerInterval), gen);
  // By the third interval the leader's epoch carries the verdict, and the
  // plan routes nothing to the dead datacenter.
  EXPECT_EQ(sim.down_mirrors(), std::vector<int>{dc});
  ASSERT_TRUE(third.epoch_run);
  EXPECT_EQ(third.failures_reported, 1);
  EXPECT_EQ(third.epoch.assignment.datacenter_load(f.input), 0.0);
}

TEST(ReplicatedLoop, SingleReplicaDegeneratesToOneController) {
  DistFixture f;
  sim::ReplaySimulator sim = f.make_simulator(nullptr);
  ReplicatedControlLoop loop(f.topology, f.tm, DistFixture::controller_options(),
                             sim, f.initial.bundle,
                             f.loop_options(nullptr, /*replicas=*/1));
  sim::TraceGenerator gen = DistFixture::make_generator(f.input);
  const ReplicatedIntervalReport report =
      loop.run_interval(gen.generate(800), gen);
  EXPECT_EQ(report.leader, 0);
  EXPECT_EQ(report.replicas_heard, 1);
  EXPECT_TRUE(report.epoch_run);
  EXPECT_GT(report.generation, f.initial.bundle.generation);
}

TEST(ReplicatedLoop, ExportsDistMetrics) {
  DistFixture f;
  obs::Registry registry;
  sim::ReplaySimulator sim = f.make_simulator(nullptr);
  ReplicatedLoopOptions dopts = f.loop_options(nullptr);
  dopts.metrics = &registry;
  ReplicatedControlLoop loop(f.topology, f.tm, DistFixture::controller_options(),
                             sim, f.initial.bundle, dopts);
  sim::TraceGenerator gen = DistFixture::make_generator(f.input);
  for (int w = 0; w < 3; ++w) loop.run_interval(gen.generate(800), gen);

  EXPECT_EQ(registry.counter("nwlb_dist_intervals_total").value(), 3u);
  EXPECT_EQ(registry.counter("nwlb_dist_leaderless_intervals_total").value(), 0u);
  EXPECT_GE(registry.counter("nwlb_dist_installs_total").value(), 1u);
  EXPECT_EQ(registry.counter("nwlb_dist_elections_total").value(), 1u);
  EXPECT_EQ(registry.gauge("nwlb_dist_leader").value(), 0.0);
  EXPECT_EQ(registry.gauge("nwlb_dist_replicas_alive").value(), 3.0);
  EXPECT_GE(registry.gauge("nwlb_dist_generation").value(), 2.0);
}

TEST(ReplicatedLoopOptions, ValidateRejectsEachBadValue) {
  ReplicatedLoopOptions edge;
  edge.replicas = ReplicatedLoopOptions::kMaxReplicas;
  edge.consensus_rounds = 1;
  EXPECT_NO_THROW(edge.validate());

  using Spoil = void (*)(ReplicatedLoopOptions&);
  const std::vector<std::pair<const char*, Spoil>> spoils = {
      {"replicas 0", [](ReplicatedLoopOptions& o) { o.replicas = 0; }},
      {"replicas 33",
       [](ReplicatedLoopOptions& o) { o.replicas = ReplicatedLoopOptions::kMaxReplicas + 1; }},
      {"rounds 0", [](ReplicatedLoopOptions& o) { o.consensus_rounds = 0; }},
      {"drop 1.5", [](ReplicatedLoopOptions& o) { o.bus.drop_probability = 1.5; }},
      {"delay -1", [](ReplicatedLoopOptions& o) { o.bus.max_delay_rounds = -1; }},
      {"lease 0", [](ReplicatedLoopOptions& o) { o.replica.lease_ticks = 0; }},
      {"estimator bogus", [](ReplicatedLoopOptions& o) { o.replica.estimator_spec = "bogus"; }},
      {"window 0", [](ReplicatedLoopOptions& o) { o.replica.estimator.window = 0; }},
  };
  for (const auto& [what, spoil] : spoils) {
    ReplicatedLoopOptions options;
    spoil(options);
    EXPECT_THROW(options.validate(), std::invalid_argument) << what;
  }
}

}  // namespace
}  // namespace nwlb::dist
