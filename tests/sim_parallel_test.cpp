// Sharded parallel replay determinism: any worker count must produce
// ReplayStats byte-identical to the serial run — including under injected
// tunnel loss.  This test is also run under ThreadSanitizer in CI to prove
// the shards share no mutable state.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

#include "core/mapper.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "core/replication_lp.h"
#include "core/scenario.h"
#include "sim/replay.h"
#include "sim/trace.h"
#include "topo/topology.h"
#include "traffic/matrix.h"
#include "util/cpus.h"

namespace nwlb::sim {
namespace {

struct ParallelFixture {
  topo::Topology topology = topo::make_internet2();
  traffic::TrafficMatrix tm;
  core::Scenario scenario;
  core::ProblemInput input;
  core::Assignment assignment;
  shim::ConfigBundle bundle;

  ParallelFixture()
      : tm(traffic::gravity_matrix(topology.graph, traffic::paper_total_sessions(11))),
        scenario(topology, tm),
        input(scenario.problem(core::Architecture::kPathReplicate)),
        assignment(core::ReplicationLp(input).solve()),
        bundle(core::build_bundle(input, assignment)) {}

  ReplayStats run(int workers, double loss = 0.0, int sessions = 1200) {
    ReplayOptions opts;
    opts.num_workers = workers;
    opts.replication_loss = loss;
    ReplaySimulator sim(input, bundle, opts);
    TraceConfig tc;
    tc.scanners = 4;
    TraceGenerator gen(input.classes, tc, /*seed=*/41);
    sim.replay(gen.generate(sessions), gen);
    return sim.stats();
  }

  /// Full replay then metric export into a fresh registry, rendered to
  /// (Prometheus text, JSON) — the property test compares these strings.
  std::pair<std::string, std::string> run_exposition(int workers, double loss = 0.0,
                                                     int sessions = 1200) {
    ReplayOptions opts;
    opts.num_workers = workers;
    opts.replication_loss = loss;
    ReplaySimulator sim(input, bundle, opts);
    TraceConfig tc;
    tc.scanners = 4;
    TraceGenerator gen(input.classes, tc, /*seed=*/41);
    sim.replay(gen.generate(sessions), gen);
    obs::Registry registry;
    sim.export_metrics(registry);
    return {obs::prometheus_text(registry.snapshot()), obs::to_json(registry)};
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

TEST(ParallelReplay, FourWorkersMatchSerialExactly) {
  ParallelFixture f;
  const ReplayStats serial = f.run(1);
  const ReplayStats parallel = f.run(4);
  ASSERT_GT(serial.packets_replayed, 0u);
  ASSERT_GT(serial.tunnel_frames_sent, 0u);
  expect_identical(serial, parallel);
}

TEST(ParallelReplay, MatchesSerialUnderInjectedLoss) {
  // Loss decisions come from per-session RNG streams and trailing drops
  // are reconciled at merge time, so even the loss-detection counters are
  // shard-invariant.
  ParallelFixture f;
  const ReplayStats serial = f.run(1, 0.3);
  const ReplayStats parallel = f.run(4, 0.3);
  ASSERT_GT(serial.tunnel_frames_dropped, 0u);
  EXPECT_EQ(serial.tunnel_frames_detected_lost, serial.tunnel_frames_dropped);
  expect_identical(serial, parallel);
}

TEST(ParallelReplay, OddWorkerCountsAndMoreWorkersThanSessions) {
  ParallelFixture f;
  const ReplayStats serial = f.run(1, 0.0, 30);
  expect_identical(serial, f.run(3, 0.0, 30));
  expect_identical(serial, f.run(64, 0.0, 30));  // More shards than sessions.
}

TEST(ParallelReplay, AutoWorkerCountResolves) {
  ParallelFixture f;
  ReplayOptions opts;
  opts.num_workers = 0;  // Auto: one per usable CPU, at most 8.
  ReplaySimulator sim(f.input, f.bundle, opts);
  EXPECT_GE(sim.num_workers(), 1);
  EXPECT_LE(sim.num_workers(), std::min(8, util::usable_cpus()));
  TraceConfig tc;
  TraceGenerator gen(f.input.classes, tc, 41);
  const auto trace = gen.generate(200);
  sim.replay(trace, gen);
  EXPECT_EQ(sim.stats().sessions_replayed, trace.size());

#if defined(__linux__)
  // Pinned to one CPU, the auto count follows the affinity mask.
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  int first = 0;
  while (!CPU_ISSET(first, &saved)) ++first;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(first, &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  const int pinned_workers = ReplaySimulator(f.input, f.bundle, opts).num_workers();
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(pinned_workers, 1);
#endif
}

TEST(ParallelReplay, MetricsExportByteIdenticalToSerial) {
  // The acceptance property for the observability layer: the *exported*
  // metrics — both exposition formats, rendered to strings — are
  // byte-identical for serial and sharded replay, with and without loss.
  ParallelFixture f;
  const auto serial = f.run_exposition(1);
  const auto parallel = f.run_exposition(4);
  EXPECT_FALSE(serial.first.empty());
  EXPECT_EQ(serial.first, parallel.first);
  EXPECT_EQ(serial.second, parallel.second);
  const auto serial_loss = f.run_exposition(1, 0.3);
  const auto parallel_loss = f.run_exposition(4, 0.3);
  EXPECT_EQ(serial_loss.first, parallel_loss.first);
  EXPECT_EQ(serial_loss.second, parallel_loss.second);
}

TEST(ParallelReplay, StatsIncludeShimDecisionTotals) {
  ParallelFixture f;
  const ReplayStats stats = f.run(1);
  // Every replayed packet is decided by each shim on its path (no crashes
  // in this fixture), so the verdict totals cover at least one decision
  // per packet and nothing else feeds them.
  const std::uint64_t decided = stats.decisions_process +
                                stats.decisions_replicate + stats.decisions_ignore;
  EXPECT_GE(decided, stats.packets_replayed);
  EXPECT_GT(stats.decisions_replicate, 0u);
  EXPECT_EQ(stats.crash_skipped_packets, 0u);
  EXPECT_EQ(stats.mirror_flaps, 0u);  // No failures injected, no flaps.
}

TEST(ParallelReplay, RejectsOutOfRangeWorkerCount) {
  ParallelFixture f;
  ReplayOptions opts;
  opts.num_workers = -2;
  EXPECT_THROW(ReplaySimulator(f.input, f.bundle, opts), std::invalid_argument);
  // Threads start only inside replay(), so neither construction starts one.
  opts.num_workers = ReplayOptions::kMaxWorkers + 1;
  EXPECT_THROW(ReplaySimulator(f.input, f.bundle, opts), std::invalid_argument);
  opts.num_workers = ReplayOptions::kMaxWorkers;
  EXPECT_NO_THROW(ReplaySimulator(f.input, f.bundle, opts));
}

/// Replays a good window, then a window whose session at position 37 is
/// spoiled.  The bad window must be rejected whole: std::invalid_argument
/// naming the position and `defect`, with the session cursor, the stats
/// and the last window's class counters unchanged.
void expect_window_rejected(const ParallelFixture& f, int workers,
                            const std::function<void(SessionSpec&)>& spoil,
                            const std::string& defect) {
  ReplayOptions opts;
  opts.num_workers = workers;
  ReplaySimulator sim(f.input, f.bundle, opts);
  TraceConfig tc;
  TraceGenerator gen(f.input.classes, tc, 41);
  sim.replay(gen.generate(100), gen);
  const ReplayStats before = sim.stats();
  const std::uint64_t cursor = sim.next_session_index();
  const std::vector<std::uint64_t> class_sessions = sim.window_class_sessions();
  std::vector<SessionSpec> window = gen.generate(50);
  spoil(window[37]);
  try {
    sim.replay(window, gen);
    ADD_FAILURE() << "window with " << defect << " was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("position 37"), std::string::npos) << what;
    EXPECT_NE(what.find(defect), std::string::npos) << what;
  }
  EXPECT_EQ(sim.next_session_index(), cursor);
  expect_identical(before, sim.stats());
  EXPECT_EQ(sim.window_class_sessions(), class_sessions);
}

TEST(ParallelReplay, RejectsSessionWithClassIndexOutOfRange) {
  ParallelFixture f;
  const int num_classes = static_cast<int>(f.input.classes.size());
  for (const int workers : {1, 2}) {
    SCOPED_TRACE(workers);
    expect_window_rejected(
        f, workers, [](SessionSpec& s) { s.class_index = -1; }, "class_index -1");
    expect_window_rejected(
        f, workers, [&](SessionSpec& s) { s.class_index = num_classes; },
        "class_index " + std::to_string(num_classes));
    // A lone default-constructed session carries class_index -1.
    ReplayOptions opts;
    opts.num_workers = workers;
    ReplaySimulator sim(f.input, f.bundle, opts);
    TraceGenerator gen(f.input.classes, TraceConfig{}, 41);
    EXPECT_THROW(sim.replay(std::vector<SessionSpec>(1), gen), std::invalid_argument);
    EXPECT_EQ(sim.next_session_index(), 0u);
  }
}

TEST(ParallelReplay, RejectsNegativePayloadBytes) {
  ParallelFixture f;
  for (const int workers : {1, 2}) {
    SCOPED_TRACE(workers);
    expect_window_rejected(
        f, workers, [](SessionSpec& s) { s.payload_bytes = -1; }, "payload_bytes -1");
  }
}

TEST(ParallelReplay, CumulativeAcrossCalls) {
  ParallelFixture f;
  ReplayOptions opts;
  opts.num_workers = 4;
  ReplaySimulator sim(f.input, f.bundle, opts);
  TraceConfig tc;
  TraceGenerator gen(f.input.classes, tc, 41);
  const auto trace = gen.generate(300);
  sim.replay(trace, gen);
  const ReplayStats once = sim.stats();
  sim.replay(trace, gen);
  EXPECT_EQ(sim.stats().packets_replayed, 2 * once.packets_replayed);
  EXPECT_EQ(sim.stats().sessions_replayed, 2 * once.sessions_replayed);
}

#if defined(__linux__)
std::size_t live_threads() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task"))
    ++count;
  return count;
}

// The shards run on a team that lives for one replay() call: building a
// sharded simulator starts no thread, and none survives the call — a team
// kept across windows would spin its helpers through the control plane's
// solve.
TEST(ParallelReplay, NoThreadOutlivesAReplayCall) {
  ParallelFixture f;
  // A sanitizer runtime may start a helper thread of its own with the
  // first thread the process creates (TSan does): start one here, so that
  // helper is already in the baseline.
  std::thread([] {}).join();
  const std::size_t before = live_threads();
  ReplayOptions opts;
  opts.num_workers = 4;
  ReplaySimulator sim(f.input, f.bundle, opts);
  EXPECT_EQ(live_threads(), before);
  TraceConfig tc;
  TraceGenerator gen(f.input.classes, tc, 41);
  sim.replay(gen.generate(300), gen);
  EXPECT_EQ(live_threads(), before);
}
#endif

}  // namespace
}  // namespace nwlb::sim
