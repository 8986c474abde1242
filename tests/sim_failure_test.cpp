// Failure injection: replication-tunnel loss and its detection impact,
// plus the FailureSchedule fault model (crash / blackhole / link-down),
// mirror-health-driven degradation, and recovery behaviour.
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "core/mapper.h"
#include "core/replication_lp.h"
#include "core/scenario.h"
#include "sim/failure.h"
#include "sim/replay.h"
#include "sim/trace.h"
#include "topo/topology.h"
#include "traffic/matrix.h"

namespace nwlb::sim {
namespace {

struct LossFixture {
  topo::Topology topology = topo::make_internet2();
  traffic::TrafficMatrix tm;
  core::Scenario scenario;
  core::ProblemInput input;
  core::Assignment assignment;
  shim::ConfigBundle bundle;

  LossFixture()
      : tm(traffic::gravity_matrix(topology.graph, traffic::paper_total_sessions(11))),
        scenario(topology, tm),
        input(scenario.problem(core::Architecture::kPathReplicate)),
        assignment(core::ReplicationLp(input).solve()),
        bundle(core::build_bundle(input, assignment)) {}

  ReplayStats run(double loss, std::uint64_t trace_seed = 77) {
    ReplayOptions opts;
    opts.replication_loss = loss;
    ReplaySimulator sim(input, bundle, opts);
    TraceConfig tc;
    tc.scanners = 0;
    TraceGenerator gen(input.classes, tc, trace_seed);
    sim.replay(gen.generate(1500), gen);
    return sim.stats();
  }
};

TEST(FailureInjection, ZeroLossIsLossless) {
  LossFixture f;
  const ReplayStats stats = f.run(0.0);
  EXPECT_GT(stats.tunnel_frames_sent, 0u);
  EXPECT_EQ(stats.tunnel_frames_dropped, 0u);
  EXPECT_EQ(stats.tunnel_frames_detected_lost, 0u);
  EXPECT_NEAR(stats.miss_rate(), 0.0, 1e-12);
}

TEST(FailureInjection, DropRateMatchesInjection) {
  LossFixture f;
  const ReplayStats stats = f.run(0.3);
  ASSERT_GT(stats.tunnel_frames_sent, 100u);
  const double observed = static_cast<double>(stats.tunnel_frames_dropped) /
                          static_cast<double>(stats.tunnel_frames_sent);
  EXPECT_NEAR(observed, 0.3, 0.05);
}

TEST(FailureInjection, LossCausesStatefulMisses) {
  // Sessions whose coverage depends on replication lose one direction when
  // frames drop; the stateful miss rate must rise from zero.
  LossFixture f;
  const ReplayStats clean = f.run(0.0);
  const ReplayStats lossy = f.run(0.5);
  EXPECT_NEAR(clean.miss_rate(), 0.0, 1e-12);
  EXPECT_GT(lossy.miss_rate(), 0.0);
  // Lost frames also mean less work at the mirrors.
  EXPECT_LT(lossy.node_work.back(), clean.node_work.back());
}

TEST(FailureInjection, ReceiversDetectSequenceGaps) {
  LossFixture f;
  const ReplayStats stats = f.run(0.25);
  ASSERT_GT(stats.tunnel_frames_dropped, 0u);
  // Gap-based detection misses only trailing losses per (sender, stream);
  // the bulk must be observed.
  EXPECT_GE(stats.tunnel_frames_detected_lost,
            stats.tunnel_frames_dropped * 8 / 10);
  EXPECT_LE(stats.tunnel_frames_detected_lost, stats.tunnel_frames_dropped);
}

TEST(FailureInjection, DeterministicInSeed) {
  LossFixture f;
  ReplayOptions opts;
  opts.replication_loss = 0.2;
  opts.seed = 9;
  auto run_with = [&](ReplayOptions o) {
    ReplaySimulator sim(f.input, f.bundle, o);
    TraceConfig tc;
    tc.scanners = 0;
    TraceGenerator gen(f.input.classes, tc, 3);
    sim.replay(gen.generate(400), gen);
    return sim.stats();
  };
  const ReplayStats a = run_with(opts);
  const ReplayStats b = run_with(opts);
  EXPECT_EQ(a.tunnel_frames_dropped, b.tunnel_frames_dropped);
  EXPECT_EQ(a.stateful_missed, b.stateful_missed);
  ReplayOptions other = opts;
  other.seed = 10;
  const ReplayStats c = run_with(other);
  EXPECT_NE(a.tunnel_frames_dropped, c.tunnel_frames_dropped);
}

TEST(FailureInjection, RejectsBadProbability) {
  LossFixture f;
  ReplayOptions opts;
  opts.replication_loss = 1.5;
  EXPECT_THROW(ReplaySimulator(f.input, f.bundle, opts), std::invalid_argument);
}

TEST(FailureInjection, EmptyTraceRatiosAreZeroNotNaN) {
  // Regression: every ratio accessor must guard its denominator.  A fresh
  // simulator (and a replay of zero sessions) reports 0.0, never NaN.
  const ReplayStats fresh;
  EXPECT_EQ(fresh.miss_rate(), 0.0);
  EXPECT_EQ(fresh.coverage(), 0.0);
  EXPECT_EQ(fresh.tunnel_drop_rate(), 0.0);
  EXPECT_EQ(fresh.detected_loss_rate(), 0.0);

  LossFixture f;
  ReplaySimulator sim(f.input, f.bundle, {});
  TraceConfig tc;
  TraceGenerator gen(f.input.classes, tc, 1);
  const std::vector<SessionSpec> empty;
  sim.replay(empty, gen);
  const ReplayStats stats = sim.stats();
  EXPECT_EQ(stats.sessions_replayed, 0u);
  EXPECT_FALSE(std::isnan(stats.miss_rate()));
  EXPECT_FALSE(std::isnan(stats.coverage()));
  EXPECT_FALSE(std::isnan(stats.tunnel_drop_rate()));
  EXPECT_FALSE(std::isnan(stats.detected_loss_rate()));
  EXPECT_EQ(stats.miss_rate(), 0.0);
  EXPECT_EQ(stats.coverage(), 0.0);
}

// ---------------------------------------------------------------------------
// FailureSchedule: the parse grammar and event validation.

TEST(FailureScheduleSpec, ParseRoundTrips) {
  const FailureSchedule parsed = FailureSchedule::parse(
      "linkdown 7 0 100\n"
      "crash 3 1600 4000\n"
      "# comment line\n"
      "blackhole 11 2400 - 0.5");
  ASSERT_EQ(parsed.events().size(), 3u);
  EXPECT_EQ(parsed.events()[0].kind, FailureKind::kLinkDown);
  EXPECT_EQ(parsed.events()[1].kind, FailureKind::kNodeCrash);
  EXPECT_EQ(parsed.events()[1].target, 3);
  EXPECT_EQ(parsed.events()[1].begin, 1600u);
  EXPECT_EQ(parsed.events()[1].end, 4000u);
  EXPECT_EQ(parsed.events()[2].kind, FailureKind::kMirrorBlackhole);
  EXPECT_EQ(parsed.events()[2].end, FailureEvent::kNever);
  EXPECT_DOUBLE_EQ(parsed.events()[2].severity, 0.5);

  // to_string re-parses to the same event list.
  const FailureSchedule again = FailureSchedule::parse(parsed.to_string());
  ASSERT_EQ(again.events().size(), parsed.events().size());
  for (std::size_t i = 0; i < parsed.events().size(); ++i) {
    EXPECT_EQ(again.events()[i].kind, parsed.events()[i].kind);
    EXPECT_EQ(again.events()[i].target, parsed.events()[i].target);
    EXPECT_EQ(again.events()[i].begin, parsed.events()[i].begin);
    EXPECT_EQ(again.events()[i].end, parsed.events()[i].end);
    EXPECT_DOUBLE_EQ(again.events()[i].severity, parsed.events()[i].severity);
  }

  // Semicolons separate events like newlines (the --failures inline form).
  EXPECT_EQ(FailureSchedule::parse("crash 1 0 10; crash 2 5 15").events().size(), 2u);
}

TEST(FailureScheduleSpec, ParseRejectsBadInput) {
  EXPECT_THROW(FailureSchedule::parse("explode 3 0 10"), std::invalid_argument);
  EXPECT_THROW(FailureSchedule::parse("crash 3"), std::invalid_argument);
  EXPECT_THROW(FailureSchedule::parse("crash 3 10 5"), std::invalid_argument);   // end < begin
  EXPECT_THROW(FailureSchedule::parse("crash 3 0 10 2.0"), std::invalid_argument);  // severity > 1
  EXPECT_THROW(FailureSchedule::parse("crash -1 0 10"), std::invalid_argument);  // bad target
  // Every number is one whole token, unsigned where the field is: no
  // wrapped negative index, no number with a tail, no unreadable severity
  // falling back to full, and nothing after the severity.
  for (const char* spec : {"crash 3 -5 -", "crash 3 100 -5", "crash 3 1 12abc",
                           "crash 3 100 200 0.5xyz", "crash 3 100 200 abc",
                           "crash 3 100 200 nan", "crash 3x 100 200",
                           "crash 3 100 200 0.5 extra"}) {
    try {
      FailureSchedule::parse(spec);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos) << e.what();
    }
  }
  // The open end and a partial severity still parse.
  const FailureSchedule open = FailureSchedule::parse("crash 3 100 inf 0.5");
  ASSERT_EQ(open.events().size(), 1u);
  EXPECT_EQ(open.events()[0].end, FailureEvent::kNever);
  EXPECT_EQ(open.events()[0].severity, 0.5);
}

TEST(FailureScheduleSpec, ParseRejectsOutOfOrderEvents) {
  // Timeline order: an event whose begin precedes its predecessor's is a
  // spec typo, not an alternate ordering.
  try {
    FailureSchedule::parse("crash 3 1600 4000; linkdown 7 0 100");
    FAIL() << "out-of-order schedule accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("out-of-order"), std::string::npos)
        << e.what();
  }
  // Equal begins are fine (simultaneous faults are legitimate).
  EXPECT_EQ(FailureSchedule::parse("crash 1 100 200; blackhole 2 100 300")
                .events()
                .size(),
            2u);
}

TEST(FailureScheduleSpec, ParseRejectsDuplicateEvents) {
  try {
    FailureSchedule::parse("crash 3 100 200\ncrash 3 100 200");
    FAIL() << "duplicate schedule accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos)
        << e.what();
  }
  // Same target at a different window is not a duplicate.
  EXPECT_EQ(FailureSchedule::parse("crash 3 100 200; crash 3 300 400")
                .events()
                .size(),
            2u);
}

TEST(FailureScheduleSpec, ControllerEventsParseAndQuery) {
  const FailureSchedule schedule = FailureSchedule::parse(
      "controller_crash 0 800 2400\n"
      "partition 1 3200 4000");
  ASSERT_EQ(schedule.events().size(), 2u);
  EXPECT_EQ(schedule.events()[0].kind, FailureKind::kControllerCrash);
  EXPECT_EQ(schedule.events()[1].kind, FailureKind::kPartition);

  EXPECT_FALSE(schedule.controller_crashed(0, 799));
  EXPECT_TRUE(schedule.controller_crashed(0, 800));
  EXPECT_TRUE(schedule.controller_crashed(0, 2399));
  EXPECT_FALSE(schedule.controller_crashed(0, 2400));
  EXPECT_FALSE(schedule.controller_crashed(1, 1000));

  EXPECT_EQ(schedule.partition_mask_at(3199), 0u);
  EXPECT_EQ(schedule.partition_mask_at(3200), 1u);
  EXPECT_EQ(schedule.partition_mask_at(4000), 0u);

  // Control-plane events are invisible to the data-plane failure report.
  EXPECT_TRUE(schedule.failed_nodes_at(1000).empty());
  EXPECT_TRUE(schedule.failed_nodes_at(3500).empty());

  // An all-zeros partition mask splits nothing and is rejected.
  EXPECT_THROW(FailureSchedule::parse("partition 0 100 200"), std::invalid_argument);

  // Round-trip through to_string survives the strict parser.
  const FailureSchedule again = FailureSchedule::parse(schedule.to_string());
  ASSERT_EQ(again.events().size(), 2u);
  EXPECT_EQ(again.events()[0].kind, FailureKind::kControllerCrash);
  EXPECT_EQ(again.events()[1].target, 1);
}

TEST(FailureScheduleSpec, ActivityQueries) {
  FailureSchedule schedule;
  FailureEvent crash;
  crash.kind = FailureKind::kNodeCrash;
  crash.target = 4;
  crash.begin = 100;
  crash.end = 200;
  schedule.add(crash);
  EXPECT_FALSE(schedule.node_crashed(4, 99));
  EXPECT_TRUE(schedule.node_crashed(4, 100));
  EXPECT_TRUE(schedule.node_crashed(4, 199));
  EXPECT_FALSE(schedule.node_crashed(4, 200));  // Recovery index is exclusive.
  EXPECT_FALSE(schedule.node_crashed(5, 150));
  EXPECT_EQ(schedule.failed_nodes_at(150), std::vector<int>{4});
  EXPECT_TRUE(schedule.failed_nodes_at(0).empty());
}

TEST(FailureScheduleSpec, DropsFrameIsStatelessAndMatchesSeverity) {
  FailureEvent event;
  event.id = 2;
  event.severity = 0.3;
  int dropped = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const bool a = FailureSchedule::drops_frame(event, 9, 77, static_cast<std::uint64_t>(i));
    const bool b = FailureSchedule::drops_frame(event, 9, 77, static_cast<std::uint64_t>(i));
    EXPECT_EQ(a, b);  // Pure function of its inputs.
    dropped += a ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(dropped) / kDraws, 0.3, 0.02);
  event.severity = 1.0;
  EXPECT_TRUE(FailureSchedule::drops_frame(event, 9, 77, 0));
  event.severity = 0.0;
  EXPECT_FALSE(FailureSchedule::drops_frame(event, 9, 77, 0));
}

// ---------------------------------------------------------------------------
// Scheduled failures driving the replay.

struct ScheduleFixture : LossFixture {
  ReplayStats run_schedule(const FailureSchedule& schedule, int workers = 1,
                           DegradePolicy policy = DegradePolicy::kFailClosed,
                           int sessions = 900, double loss = 0.0) {
    ReplayOptions opts;
    opts.num_workers = workers;
    opts.failures = &schedule;
    opts.degrade = policy;
    opts.replication_loss = loss;
    ReplaySimulator sim(input, bundle, opts);
    TraceConfig tc;
    tc.scanners = 0;
    TraceGenerator gen(input.classes, tc, 77);
    sim.replay(gen.generate(sessions), gen);
    return sim.stats();
  }
};

void expect_identical_with_failures(const ReplayStats& a, const ReplayStats& b) {
  EXPECT_EQ(a.node_work, b.node_work);
  EXPECT_EQ(a.node_packets, b.node_packets);
  EXPECT_EQ(a.link_replicated_bytes, b.link_replicated_bytes);
  EXPECT_EQ(a.sessions_replayed, b.sessions_replayed);
  EXPECT_EQ(a.packets_replayed, b.packets_replayed);
  EXPECT_EQ(a.signature_matches, b.signature_matches);
  EXPECT_EQ(a.tunnel_frames_sent, b.tunnel_frames_sent);
  EXPECT_EQ(a.tunnel_frames_dropped, b.tunnel_frames_dropped);
  EXPECT_EQ(a.tunnel_frames_blackholed, b.tunnel_frames_blackholed);
  EXPECT_EQ(a.tunnel_frames_detected_lost, b.tunnel_frames_detected_lost);
  EXPECT_EQ(a.tunnel_frames_malformed, b.tunnel_frames_malformed);
  EXPECT_EQ(a.crash_skipped_packets, b.crash_skipped_packets);
  EXPECT_EQ(a.fail_open_packets, b.fail_open_packets);
  EXPECT_EQ(a.degraded_skipped_packets, b.degraded_skipped_packets);
  EXPECT_EQ(a.stateful_covered, b.stateful_covered);
  EXPECT_EQ(a.stateful_missed, b.stateful_missed);
}

TEST(ScheduledFailures, NodeCrashSkipsWorkAndCostsCoverage) {
  ScheduleFixture f;
  const ReplayStats clean = f.run_schedule(FailureSchedule{});
  ASSERT_NEAR(clean.miss_rate(), 0.0, 1e-12);

  FailureSchedule schedule;
  FailureEvent crash;
  crash.kind = FailureKind::kNodeCrash;
  crash.target = 0;  // A PoP: its shim stops making decisions entirely.
  crash.begin = 200;
  crash.end = 700;
  schedule.add(crash);
  const ReplayStats stats = f.run_schedule(schedule);
  EXPECT_GT(stats.crash_skipped_packets, 0u);
  EXPECT_GT(stats.miss_rate(), 0.0);
  EXPECT_LT(stats.node_work[0], clean.node_work[0]);
  // Sessions outside [begin, end) are untouched, so most coverage survives.
  EXPECT_LT(stats.miss_rate(), 0.9);
}

TEST(ScheduledFailures, MirrorBlackholeEatsFramesSilently) {
  ScheduleFixture f;
  FailureSchedule schedule;
  FailureEvent hole;
  hole.kind = FailureKind::kMirrorBlackhole;
  hole.target = f.input.datacenter_id();
  hole.begin = 0;  // Permanent.
  schedule.add(hole);
  const ReplayStats stats = f.run_schedule(schedule);
  EXPECT_GT(stats.tunnel_frames_blackholed, 0u);
  // The mirror does no work on eaten frames, and sessions that depended on
  // replication lose a direction.
  EXPECT_EQ(stats.node_work[static_cast<std::size_t>(f.input.datacenter_id())], 0.0);
  EXPECT_GT(stats.miss_rate(), 0.0);
  // Blackholed frames count into the tunnel drop rate.
  EXPECT_GT(stats.tunnel_drop_rate(), 0.0);
}

TEST(ScheduledFailures, PartialSeverityEatsAFraction) {
  ScheduleFixture f;
  FailureSchedule schedule;
  FailureEvent hole;
  hole.kind = FailureKind::kMirrorBlackhole;
  hole.target = f.input.datacenter_id();
  hole.begin = 0;
  hole.severity = 0.5;
  schedule.add(hole);
  const ReplayStats half = f.run_schedule(schedule);
  ASSERT_GT(half.tunnel_frames_sent, 0u);
  EXPECT_GT(half.tunnel_frames_blackholed, 0u);
  EXPECT_LT(half.tunnel_frames_blackholed, half.tunnel_frames_sent);
  // Deterministic: the stateless hash draws reproduce exactly.
  expect_identical_with_failures(half, f.run_schedule(schedule));
}

TEST(ScheduledFailures, ParallelReplayByteIdenticalUnderEverySchedule) {
  // The acceptance bar for the fault model: for each failure kind — and a
  // combined schedule with congestion loss on top — sharded replay must
  // produce stats byte-identical to serial, including every failure
  // counter.  (Also exercised under TSan in CI.)
  ScheduleFixture f;
  const int dc = f.input.datacenter_id();

  FailureSchedule crash;
  crash.add(FailureSchedule::parse("crash 2 100 600").events()[0]);

  FailureSchedule blackhole;
  blackhole.add(FailureSchedule::parse("blackhole " + std::to_string(dc) + " 0 - 0.6").events()[0]);

  FailureSchedule linkdown;
  linkdown.add(FailureSchedule::parse("linkdown 3 50 800").events()[0]);

  FailureSchedule combined = FailureSchedule::parse(
      "linkdown 5 0 -; crash 1 100 400; blackhole " + std::to_string(dc) + " 200 700 0.5");

  for (const FailureSchedule* schedule : {&crash, &blackhole, &linkdown, &combined}) {
    for (const DegradePolicy policy : {DegradePolicy::kFailClosed, DegradePolicy::kFailOpen}) {
      const ReplayStats serial = f.run_schedule(*schedule, 1, policy, 900, 0.2);
      const ReplayStats parallel = f.run_schedule(*schedule, 4, policy, 900, 0.2);
      ASSERT_GT(serial.packets_replayed, 0u);
      expect_identical_with_failures(serial, parallel);
    }
  }
}

// ---------------------------------------------------------------------------
// Mirror health detection and degraded operation across reconcile windows.

struct WindowFixture : LossFixture {
  // Replays `windows` windows of `per_window` sessions each against one
  // persistent simulator; returns per-window stateful coverage.
  std::vector<double> run_windows(ReplaySimulator& sim, int windows, int per_window) {
    TraceConfig tc;
    tc.scanners = 0;
    TraceGenerator gen(input.classes, tc, 77);
    std::vector<double> coverage;
    for (int w = 0; w < windows; ++w) {
      const ReplayStats before = sim.stats();
      sim.replay(gen.generate(per_window), gen);
      const ReplayStats after = sim.stats();
      const std::uint64_t covered = after.stateful_covered - before.stateful_covered;
      const std::uint64_t missed = after.stateful_missed - before.stateful_missed;
      coverage.push_back(covered + missed > 0
                             ? static_cast<double>(covered) /
                                   static_cast<double>(covered + missed)
                             : 0.0);
    }
    return coverage;
  }
};

TEST(MirrorHealthReplay, DetectsCrashWithHysteresisAndObservesRecovery) {
  WindowFixture f;
  constexpr int kPerWindow = 250;
  FailureSchedule schedule;
  FailureEvent crash;
  crash.kind = FailureKind::kNodeCrash;
  crash.target = f.input.datacenter_id();
  crash.begin = 1 * kPerWindow;
  crash.end = 3 * kPerWindow;  // Crash spans windows 1 and 2.
  schedule.add(crash);

  // Default hysteresis: down after 2 bad windows, up after 2 clean ones.
  ReplayOptions opts;
  opts.failures = &schedule;
  ReplaySimulator sim(f.input, f.bundle, opts);

  TraceConfig tc;
  tc.scanners = 0;
  TraceGenerator gen(f.input.classes, tc, 77);
  const int dc = f.input.datacenter_id();

  sim.replay(gen.generate(kPerWindow), gen);  // Window 0: healthy.
  EXPECT_FALSE(sim.mirror_down(dc));
  sim.replay(gen.generate(kPerWindow), gen);  // Window 1: first bad window.
  EXPECT_FALSE(sim.mirror_down(dc)) << "one bad window must not flap";
  sim.replay(gen.generate(kPerWindow), gen);  // Window 2: second bad window.
  EXPECT_TRUE(sim.mirror_down(dc));
  EXPECT_EQ(sim.down_mirrors(), std::vector<int>{dc});
  sim.replay(gen.generate(kPerWindow), gen);  // Window 3: crash over, 1st clean.
  EXPECT_TRUE(sim.mirror_down(dc)) << "one clean window must not flap";
  sim.replay(gen.generate(kPerWindow), gen);  // Window 4: second clean window.
  EXPECT_FALSE(sim.mirror_down(dc));
  EXPECT_TRUE(sim.down_mirrors().empty());
  EXPECT_EQ(sim.mirror_health(dc).transitions(), 2);
  EXPECT_EQ(sim.next_session_index(), 5u * kPerWindow);
}

TEST(MirrorHealthReplay, CoverageReturnsToBaselineAfterRecovery) {
  // Fail-closed, no reconfiguration: coverage dips while the crash (and
  // then the health verdict) holds, and returns to the pre-failure level
  // within one window of the health monitor clearing.
  WindowFixture f;
  constexpr int kPerWindow = 250;
  FailureSchedule schedule;
  FailureEvent crash;
  crash.kind = FailureKind::kNodeCrash;
  crash.target = f.input.datacenter_id();
  crash.begin = 1 * kPerWindow;
  crash.end = 3 * kPerWindow;  // Crash spans windows 1 and 2.
  schedule.add(crash);

  ReplayOptions opts;
  opts.failures = &schedule;
  ReplaySimulator sim(f.input, f.bundle, opts);
  const std::vector<double> coverage = f.run_windows(sim, 6, kPerWindow);

  EXPECT_NEAR(coverage[0], 1.0, 1e-12) << "healthy baseline";
  EXPECT_LT(coverage[1], 1.0) << "crash window";
  EXPECT_LT(coverage[2], 1.0) << "crash window";
  // The second bad window (2) flags the mirror down; windows 3 and 4
  // replay under that verdict while the keepalive is clean again.
  EXPECT_LT(coverage[3], 1.0) << "health verdict still down (snapshot lag)";
  EXPECT_LT(coverage[4], 1.0) << "health verdict still down (one clean window)";
  // By the end of window 4 the keepalive has been clean for up_after = 2
  // windows, so window 5 — one window after recovery was confirmed — is
  // back at the pre-failure level.
  EXPECT_NEAR(coverage[5], coverage[0], 1e-12);
  EXPECT_GT(sim.stats().degraded_skipped_packets, 0u);
}

TEST(MirrorHealthReplay, FailOpenKeepsCoverageAboveFailClosed) {
  WindowFixture f;
  constexpr int kPerWindow = 250;
  FailureSchedule schedule;
  FailureEvent hole;
  hole.kind = FailureKind::kMirrorBlackhole;
  hole.target = f.input.datacenter_id();
  hole.begin = 0;  // Permanent: every window is degraded once detected.
  schedule.add(hole);

  auto run_policy = [&](DegradePolicy policy, double headroom) {
    ReplayOptions opts;
    opts.failures = &schedule;
    opts.degrade = policy;
    opts.fail_open_headroom = headroom;
    ReplaySimulator sim(f.input, f.bundle, opts);
    f.run_windows(sim, 4, kPerWindow);
    return sim.stats();
  };

  const ReplayStats closed = run_policy(DegradePolicy::kFailClosed, 0.5);
  const ReplayStats open = run_policy(DegradePolicy::kFailOpen, 1.0);
  EXPECT_GT(closed.degraded_skipped_packets, 0u);
  EXPECT_EQ(closed.fail_open_packets, 0u);
  EXPECT_GT(open.fail_open_packets, 0u);
  EXPECT_GT(open.coverage(), closed.coverage());

  // Headroom 0 admits nothing: fail-open degenerates to fail-closed.
  const ReplayStats choked = run_policy(DegradePolicy::kFailOpen, 0.0);
  EXPECT_EQ(choked.fail_open_packets, 0u);
}

TEST(ScheduledFailures, ConstructorRejectsTargetsTheDeploymentLacks) {
  // Crash and blackhole targets name processing nodes, linkdown targets
  // directed links.  An id the deployment does not have is rejected before
  // anything replays, naming the event and the valid range.
  LossFixture f;
  const int nodes = f.input.num_processing_nodes();
  const int links = f.input.routing->graph().num_directed_links();
  const auto expect_rejected = [&f](const std::string& spec, const std::string& range) {
    const FailureSchedule schedule = FailureSchedule::parse(spec);
    ReplayOptions opts;
    opts.failures = &schedule;
    try {
      const ReplaySimulator sim(f.input, f.bundle, opts);
      ADD_FAILURE() << "accepted '" << spec << "'";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("'") + to_string(schedule.events()[0]) + "'"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(range), std::string::npos) << what;
    }
  };
  const std::string node_range = std::string("[0, ") + std::to_string(nodes) + ")";
  const std::string link_range = std::string("[0, ") + std::to_string(links) + ")";
  expect_rejected(std::string("crash ") + std::to_string(nodes) + " 0 -", node_range);
  expect_rejected("blackhole 99 10 20 0.5", node_range);
  expect_rejected(std::string("linkdown ") + std::to_string(links) + " 0 -", link_range);

  // The last id of each range passes, and so do control-plane events,
  // whose targets are replicas.
  const FailureSchedule edge = FailureSchedule::parse(
      std::string("crash ") + std::to_string(nodes - 1) + " 0 -; blackhole " +
      std::to_string(nodes - 1) + " 0 -; linkdown " + std::to_string(links - 1) +
      " 0 -; controller_crash 99 0 -");
  ReplayOptions opts;
  opts.failures = &edge;
  EXPECT_NO_THROW(ReplaySimulator(f.input, f.bundle, opts));
}

TEST(MirrorHealthReplay, RejectsBadHeadroom) {
  LossFixture f;
  ReplayOptions opts;
  opts.fail_open_headroom = 1.5;
  EXPECT_THROW(ReplaySimulator(f.input, f.bundle, opts), std::invalid_argument);
}

}  // namespace
}  // namespace nwlb::sim
