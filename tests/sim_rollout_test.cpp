// Make-before-break config rollout in the data plane: a mid-replay
// generation swap never drops or double-processes a session, staged
// generations retire once drained, and the sharded replay stays
// byte-identical to serial across the swap (the ParallelReplayRollout
// suite also runs under ThreadSanitizer in CI).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/mapper.h"
#include "core/replication_lp.h"
#include "core/scenario.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "shim/bundle.h"
#include "sim/replay.h"
#include "sim/trace.h"
#include "topo/topology.h"
#include "traffic/matrix.h"

namespace nwlb::sim {
namespace {

struct RolloutSimFixture {
  topo::Topology topology = topo::make_internet2();
  traffic::TrafficMatrix tm;
  core::Scenario scenario;
  core::ProblemInput input;
  core::ProblemInput ingress_input;
  shim::ConfigBundle bundle;       // Generation 1 (path-replicate plan).
  shim::ConfigBundle next_bundle;  // Generation 2 (ingress-only plan).

  RolloutSimFixture()
      : tm(traffic::gravity_matrix(topology.graph, traffic::paper_total_sessions(11))),
        scenario(topology, tm),
        input(scenario.problem(core::Architecture::kPathReplicate)),
        ingress_input(scenario.problem(core::Architecture::kIngress)),
        bundle(core::build_bundle(input, core::ReplicationLp(input).solve(), 1)),
        next_bundle(core::build_bundle(ingress_input,
                                       core::ReplicationLp(ingress_input).solve(), 2)) {}

  TraceGenerator make_generator(std::uint64_t seed = 41) const {
    TraceConfig tc;
    tc.scanners = 0;  // generate(n) must yield exactly n sessions: the
                      // tests below do arithmetic in session-index space.
    return TraceGenerator(input.classes, tc, seed);
  }
};

void expect_identical(const ReplayStats& a, const ReplayStats& b) {
  // Exact comparisons, doubles included: every accumulated double is an
  // integer-valued work/byte count, so parallel merging must be exact.
  EXPECT_EQ(a.node_work, b.node_work);
  EXPECT_EQ(a.node_packets, b.node_packets);
  EXPECT_EQ(a.link_replicated_bytes, b.link_replicated_bytes);
  EXPECT_EQ(a.sessions_replayed, b.sessions_replayed);
  EXPECT_EQ(a.packets_replayed, b.packets_replayed);
  EXPECT_EQ(a.signature_matches, b.signature_matches);
  EXPECT_EQ(a.tunnel_frames_sent, b.tunnel_frames_sent);
  EXPECT_EQ(a.tunnel_frames_dropped, b.tunnel_frames_dropped);
  EXPECT_EQ(a.tunnel_frames_detected_lost, b.tunnel_frames_detected_lost);
  EXPECT_EQ(a.stateful_covered, b.stateful_covered);
  EXPECT_EQ(a.stateful_missed, b.stateful_missed);
  EXPECT_EQ(a.decisions_process, b.decisions_process);
  EXPECT_EQ(a.decisions_replicate, b.decisions_replicate);
  EXPECT_EQ(a.decisions_ignore, b.decisions_ignore);
  EXPECT_EQ(a.mirror_flaps, b.mirror_flaps);
}

std::uint64_t decisions_total(const ReplayStats& s) {
  return s.decisions_process + s.decisions_replicate + s.decisions_ignore +
         s.crash_skipped_packets;
}

TEST(SimRollout, MidReplaySwapConservesEverySession) {
  RolloutSimFixture f;
  ReplaySimulator sim(f.input, f.bundle);
  TraceGenerator generator = f.make_generator();
  sim.replay(generator.generate(400), generator);

  // Stage generation 2 with a 200-session drain window.
  sim.install_bundle(f.next_bundle, /*activate_at=*/600);
  EXPECT_EQ(sim.num_generations(), 2u);
  EXPECT_EQ(sim.active_generation(), 1u);  // Not yet activated.
  sim.replay(generator.generate(400), generator);

  const RolloutStats rollout = sim.rollout_stats();
  const ReplayStats stats = sim.stats();
  EXPECT_EQ(stats.sessions_replayed, 800u);
  // Exactly one generation decided each session: 600 on generation 1
  // (400 before the install + the 200-session drain window), 200 on
  // generation 2, nothing unassigned.
  EXPECT_EQ(rollout.sessions_current_generation, 600u);
  EXPECT_EQ(rollout.sessions_draining_generation, 200u);
  EXPECT_EQ(rollout.sessions_current_generation + rollout.sessions_draining_generation,
            stats.sessions_replayed);
  EXPECT_EQ(rollout.sessions_unassigned, 0u);
  EXPECT_EQ(rollout.rollouts_installed, 1u);
  // The drain completed inside the call, so generation 1 retired.
  EXPECT_EQ(rollout.generations_retired, 1u);
  EXPECT_EQ(rollout.active_generation, 2u);
  EXPECT_EQ(sim.num_generations(), 1u);
}

TEST(SimRollout, DecisionTotalsMatchNoRolloutRun) {
  // Decision volume is a pure function of the trace (sum over packets of
  // on-path shims), so a config swap may move verdicts between
  // process/replicate/ignore but never create or destroy decisions —
  // the honest "no session dropped or double-processed" check.
  RolloutSimFixture f;
  TraceGenerator generator = f.make_generator();
  const std::vector<SessionSpec> first = generator.generate(400);
  const std::vector<SessionSpec> second = generator.generate(400);

  ReplaySimulator with_swap(f.input, f.bundle);
  with_swap.replay(first, generator);
  with_swap.install_bundle(f.next_bundle, /*activate_at=*/500);
  with_swap.replay(second, generator);

  ReplaySimulator baseline(f.input, f.bundle);
  baseline.replay(first, generator);
  baseline.replay(second, generator);

  const ReplayStats swapped = with_swap.stats();
  const ReplayStats stable = baseline.stats();
  EXPECT_EQ(swapped.sessions_replayed, stable.sessions_replayed);
  EXPECT_EQ(swapped.packets_replayed, stable.packets_replayed);
  EXPECT_EQ(decisions_total(swapped), decisions_total(stable));
  EXPECT_GT(decisions_total(swapped), 0u);
}

TEST(SimRollout, ImmediateInstallActivatesForTheNextSession) {
  RolloutSimFixture f;
  ReplaySimulator sim(f.input, f.bundle);
  TraceGenerator generator = f.make_generator();
  sim.replay(generator.generate(100), generator);
  sim.install_bundle(f.next_bundle);  // activate_at = next_session_index().
  EXPECT_EQ(sim.active_generation(), 2u);
  sim.replay(generator.generate(100), generator);
  const RolloutStats rollout = sim.rollout_stats();
  EXPECT_EQ(rollout.sessions_draining_generation, 0u);
  EXPECT_EQ(rollout.sessions_current_generation, 200u);
  EXPECT_EQ(rollout.sessions_unassigned, 0u);
}

TEST(SimRollout, InstallValidation) {
  RolloutSimFixture f;
  ReplaySimulator sim(f.input, f.bundle);
  TraceGenerator generator = f.make_generator();
  sim.replay(generator.generate(50), generator);

  // Activation in the past: the sessions are already replayed.
  EXPECT_THROW(sim.install_bundle(f.next_bundle, 10), std::invalid_argument);
  // Generations must be strictly increasing.
  shim::ConfigBundle stale = f.next_bundle;
  stale.generation = 1;
  EXPECT_THROW(sim.install_bundle(stale, 100), std::invalid_argument);
  // A bundle must carry one config per PoP.
  shim::ConfigBundle short_bundle = f.next_bundle;
  short_bundle.configs.pop_back();
  EXPECT_THROW(sim.install_bundle(short_bundle, 100), std::invalid_argument);
  // Nothing above may have perturbed the installed state.
  EXPECT_EQ(sim.num_generations(), 1u);
  EXPECT_EQ(sim.active_generation(), 1u);
}

TEST(SimRollout, StagedGenerationCanBeSuperseded) {
  RolloutSimFixture f;
  ReplaySimulator sim(f.input, f.bundle);
  // Stage generation 2 far in the future, then supersede it with
  // generation 3 before any of its sessions arrive: generation 2 must
  // never serve anyone.
  sim.install_bundle(f.next_bundle, /*activate_at=*/1000);
  shim::ConfigBundle third = f.next_bundle;
  third.generation = 3;
  sim.install_bundle(third, /*activate_at=*/300);
  EXPECT_EQ(sim.num_generations(), 2u);  // Bootstrap + generation 3.

  TraceGenerator generator = f.make_generator();
  sim.replay(generator.generate(400), generator);
  EXPECT_EQ(sim.active_generation(), 3u);
  const RolloutStats rollout = sim.rollout_stats();
  EXPECT_EQ(rollout.sessions_current_generation +
                rollout.sessions_draining_generation,
            400u);
  EXPECT_EQ(rollout.sessions_unassigned, 0u);
}

/// `bundle` with PoP 0's class-0 table replicating everything to a mirror
/// id past the processing nodes.
shim::ConfigBundle with_unknown_mirror(shim::ConfigBundle bundle) {
  shim::RangeTable table;
  table.add(shim::HashRange{0, shim::kHashSpace, shim::Action::replicate(4000)});
  bundle.configs[0].set_table(0, table);
  return bundle;
}

TEST(SimRollout, ConstructorRejectsAMirrorOutsideTheProcessingNodes) {
  RolloutSimFixture f;
  try {
    ReplaySimulator sim(f.input, with_unknown_mirror(f.bundle));
    FAIL() << "a replicate range to mirror 4000 was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("PoP 0"), std::string::npos) << what;
    EXPECT_NE(what.find("class 0"), std::string::npos) << what;
    EXPECT_NE(what.find("mirror 4000"), std::string::npos) << what;
  }
}

TEST(SimRollout, InstallRejectsAMirrorOutsideTheProcessingNodes) {
  RolloutSimFixture f;
  ReplaySimulator sim(f.input, f.bundle);
  TraceGenerator generator = f.make_generator();
  sim.replay(generator.generate(100), generator);
  const RolloutStats before = sim.rollout_stats();
  const ReplayStats replayed = sim.stats();

  const shim::ConfigBundle bad = with_unknown_mirror(f.next_bundle);
  EXPECT_THROW(sim.install_bundle(bad), std::invalid_argument);
  EXPECT_THROW(sim.install_bundle(bad, /*activate_at=*/150), std::invalid_argument);

  EXPECT_EQ(sim.num_generations(), 1u);
  const RolloutStats after = sim.rollout_stats();
  EXPECT_EQ(after.active_generation, before.active_generation);
  EXPECT_EQ(after.staged_generations, before.staged_generations);
  EXPECT_EQ(after.rollouts_installed, before.rollouts_installed);
  EXPECT_EQ(after.generations_retired, before.generations_retired);
  EXPECT_EQ(after.sessions_current_generation, before.sessions_current_generation);
  // The next window replays on the installed generation.
  sim.replay(generator.generate(200), generator);
  EXPECT_EQ(sim.stats().sessions_replayed, replayed.sessions_replayed + 200);
  EXPECT_EQ(sim.rollout_stats().sessions_current_generation, 300u);
  EXPECT_EQ(sim.rollout_stats().sessions_unassigned, 0u);
}

/// Serial-vs-sharded harness: replay, swap mid-stream with a drain
/// window, replay again; the swap point sits inside the second call.
ReplayStats run_with_swap(const RolloutSimFixture& f, int workers,
                          double loss = 0.0) {
  ReplayOptions opts;
  opts.num_workers = workers;
  opts.replication_loss = loss;
  ReplaySimulator sim(f.input, f.bundle, opts);
  TraceGenerator generator = f.make_generator();
  sim.replay(generator.generate(300), generator);
  sim.install_bundle(f.next_bundle, /*activate_at=*/450);
  sim.replay(generator.generate(500), generator);
  return sim.stats();
}

TEST(ParallelReplayRollout, ShardedMatchesSerialAcrossSwap) {
  RolloutSimFixture f;
  const ReplayStats serial = run_with_swap(f, 1);
  const ReplayStats parallel = run_with_swap(f, 4);
  ASSERT_EQ(serial.sessions_replayed, 800u);
  expect_identical(serial, parallel);
}

TEST(ParallelReplayRollout, ShardedMatchesSerialAcrossSwapUnderLoss) {
  RolloutSimFixture f;
  const ReplayStats serial = run_with_swap(f, 1, 0.3);
  const ReplayStats parallel = run_with_swap(f, 4, 0.3);
  ASSERT_GT(serial.tunnel_frames_dropped, 0u);
  expect_identical(serial, parallel);
}

TEST(ParallelReplayRollout, RolloutStatsAndMetricsShardInvariant) {
  RolloutSimFixture f;
  auto run = [&f](int workers) {
    ReplayOptions opts;
    opts.num_workers = workers;
    ReplaySimulator sim(f.input, f.bundle, opts);
    TraceGenerator generator = f.make_generator();
    sim.replay(generator.generate(300), generator);
    sim.install_bundle(f.next_bundle, /*activate_at=*/450);
    sim.replay(generator.generate(500), generator);
    obs::Registry registry;
    sim.export_metrics(registry);
    return std::make_pair(sim.rollout_stats(),
                          obs::prometheus_text(registry.snapshot()));
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  EXPECT_EQ(serial.first.sessions_current_generation,
            parallel.first.sessions_current_generation);
  EXPECT_EQ(serial.first.sessions_draining_generation,
            parallel.first.sessions_draining_generation);
  EXPECT_EQ(serial.first.sessions_unassigned, 0u);
  EXPECT_EQ(parallel.first.sessions_unassigned, 0u);
  EXPECT_EQ(serial.first.generations_retired, parallel.first.generations_retired);
  // The full exposition — including nwlb_rollout_* — is byte-identical.
  EXPECT_FALSE(serial.second.empty());
  EXPECT_EQ(serial.second, parallel.second);
  EXPECT_NE(serial.second.find("nwlb_rollout_installs_total"), std::string::npos);
}

}  // namespace
}  // namespace nwlb::sim
