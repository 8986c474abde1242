// Golden replay regression.  The one replay loop runs every packet to
// completion inline — hash, decide, then process, replicate or ignore —
// and for four scenarios everything it reports (the merged ReplayStats,
// the rollout counters, the per-class window observations and both
// rendered metric expositions) must match committed golden text
// (tests/golden/replay_*.txt) byte for byte, at 1 and at 4 workers.  The
// golden text was recorded from the classic replay mode that the loop
// replaced.  The scenarios cover a plain trace; tunnel loss plus crash,
// blackhole and link failures under fail-open; a mid-stream rollout; and
// long sessions of up to 700 packets per direction.  The 4-worker cases
// also run under ThreadSanitizer in CI.
//
// A deliberate behaviour change re-records a golden file: copy the
// .actual file a failing case writes over it, and say why in the commit.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "core/mapper.h"
#include "core/replication_lp.h"
#include "core/scenario.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "shim/bundle.h"
#include "sim/failure.h"
#include "sim/replay.h"
#include "sim/trace.h"
#include "topo/topology.h"
#include "traffic/matrix.h"

namespace nwlb::sim {
namespace {

struct GoldenFixture {
  topo::Topology topology = topo::make_internet2();
  traffic::TrafficMatrix tm;
  core::Scenario scenario;
  core::ProblemInput input;
  core::ProblemInput ingress_input;
  shim::ConfigBundle bundle;       // Generation 1 (path-replicate plan).
  shim::ConfigBundle next_bundle;  // Generation 2 (ingress-only plan).

  GoldenFixture()
      : tm(traffic::gravity_matrix(topology.graph, traffic::paper_total_sessions(11))),
        scenario(topology, tm),
        input(scenario.problem(core::Architecture::kPathReplicate)),
        ingress_input(scenario.problem(core::Architecture::kIngress)),
        bundle(core::build_bundle(input, core::ReplicationLp(input).solve(), 1)),
        next_bundle(core::build_bundle(ingress_input,
                                       core::ReplicationLp(ingress_input).solve(), 2)) {}
};

template <typename T>
void put(std::ostringstream& out, const char* name, const std::vector<T>& values) {
  out << name;
  for (const T& v : values) out << ' ' << v;
  out << '\n';
}

/// Everything a caller can read back from the simulator after its windows,
/// as text.  Doubles print with 17 significant digits, so the text is
/// exact.
std::string render(const ReplaySimulator& sim) {
  std::ostringstream out;
  out << std::setprecision(17);
  const ReplayStats s = sim.stats();
  out << "[stats]\n";
  put(out, "node_work", s.node_work);
  put(out, "node_packets", s.node_packets);
  put(out, "link_replicated_bytes", s.link_replicated_bytes);
  out << "sessions_replayed " << s.sessions_replayed << '\n'
      << "packets_replayed " << s.packets_replayed << '\n'
      << "tunnel_frames_sent " << s.tunnel_frames_sent << '\n'
      << "tunnel_frames_dropped " << s.tunnel_frames_dropped << '\n'
      << "tunnel_frames_blackholed " << s.tunnel_frames_blackholed << '\n'
      << "tunnel_frames_detected_lost " << s.tunnel_frames_detected_lost << '\n'
      << "tunnel_frames_malformed " << s.tunnel_frames_malformed << '\n'
      << "crash_skipped_packets " << s.crash_skipped_packets << '\n'
      << "fail_open_packets " << s.fail_open_packets << '\n'
      << "degraded_skipped_packets " << s.degraded_skipped_packets << '\n'
      << "stateful_covered " << s.stateful_covered << '\n'
      << "stateful_missed " << s.stateful_missed << '\n'
      << "signature_matches " << s.signature_matches << '\n'
      << "decisions_process " << s.decisions_process << '\n'
      << "decisions_replicate " << s.decisions_replicate << '\n'
      << "decisions_ignore " << s.decisions_ignore << '\n'
      << "mirror_flaps " << s.mirror_flaps << '\n';
  const RolloutStats r = sim.rollout_stats();
  out << "[rollout]\n"
      << "active_generation " << r.active_generation << '\n'
      << "staged_generations " << r.staged_generations << '\n'
      << "rollouts_installed " << r.rollouts_installed << '\n'
      << "generations_retired " << r.generations_retired << '\n'
      << "sessions_current_generation " << r.sessions_current_generation << '\n'
      << "sessions_draining_generation " << r.sessions_draining_generation << '\n'
      << "sessions_unassigned " << r.sessions_unassigned << '\n';
  out << "[last window]\n";
  put(out, "class_sessions", sim.window_class_sessions());
  put(out, "class_bytes", sim.window_class_bytes());
  obs::Registry registry;
  sim.export_metrics(registry);
  out << "[prometheus]\n" << obs::prometheus_text(registry.snapshot());
  out << "[json]\n" << obs::to_json(registry) << '\n';
  return out.str();
}

const GoldenFixture& fixture() {
  static const GoldenFixture f;  // The LP solves are shared by every case.
  return f;
}

ReplayOptions with_workers(int workers) {
  ReplayOptions opts;
  opts.num_workers = workers;
  return opts;
}

/// The committed golden text `name`.
std::string golden(const std::string& name) {
  std::ifstream in(std::string(NWLB_GOLDEN_DIR) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Compares `got` with the golden file `name`.  On a mismatch the actual
/// text goes to <name>.workers<N>.actual in the working directory (the
/// build's test directory under ctest), ready to diff — or, for a
/// deliberate behaviour change, to copy over the golden file.
void expect_golden(const std::string& got, const std::string& name, int workers) {
  if (got == golden(name)) return;
  const std::string actual = name + ".workers" + std::to_string(workers) + ".actual";
  std::ofstream(actual) << got;
  ADD_FAILURE() << "replay output at " << workers << " workers differs from golden file "
                << name << "; the actual text is in " << actual;
}

/// One window of `sessions` sessions from a seed-41 trace.
std::string replay_once(const ReplayOptions& opts, TraceConfig tc, int sessions) {
  const GoldenFixture& f = fixture();
  ReplaySimulator sim(f.input, f.bundle, opts);
  TraceGenerator gen(f.input.classes, tc, /*seed=*/41);
  sim.replay(gen.generate(sessions), gen);
  return render(sim);
}

std::string replay_plain(int workers) {
  return replay_once(with_workers(workers), TraceConfig{}, 900);
}

std::string replay_faults(int workers) {
  const GoldenFixture& f = fixture();
  FailureSchedule failures;
  failures.add({FailureKind::kNodeCrash, /*target=*/2, /*begin=*/100, /*end=*/400});
  // Partial blackholes on every node and a few link outages: whichever
  // mirrors the plan actually uses, some frames get eaten.
  for (int node = 0; node < f.input.num_processing_nodes(); ++node)
    failures.add({FailureKind::kMirrorBlackhole, node, /*begin=*/0,
                  /*end=*/FailureEvent::kNever, /*severity=*/0.4});
  for (int link = 0; link < 6; ++link)
    failures.add({FailureKind::kLinkDown, link, /*begin=*/200, /*end=*/700,
                  /*severity=*/0.3});
  ReplayOptions opts = with_workers(workers);
  opts.replication_loss = 0.25;
  opts.failures = &failures;
  opts.degrade = DegradePolicy::kFailOpen;
  return replay_once(opts, TraceConfig{}, 900);
}

std::string replay_rollout(int workers) {
  const GoldenFixture& f = fixture();
  ReplaySimulator sim(f.input, f.bundle, with_workers(workers));
  TraceConfig tc;
  tc.scanners = 0;
  TraceGenerator gen(f.input.classes, tc, /*seed=*/17);
  sim.replay(gen.generate(300), gen);
  sim.install_bundle(f.next_bundle, /*activate_at=*/450);
  sim.replay(gen.generate(300), gen);  // Crosses the activation point mid-window.
  return render(sim);
}

std::string replay_long_sessions(int workers) {
  // Runs of hundreds of replicated frames per session direction toward
  // one mirror, with tunnel loss so sequence gaps fall inside long runs.
  ReplayOptions opts = with_workers(workers);
  opts.replication_loss = 0.1;
  TraceConfig tc;
  tc.max_packets_per_direction = 700;
  return replay_once(opts, tc, 150);
}

/// The rendered Prometheus and JSON expositions at the end of `text`.
std::string expositions(const std::string& text) {
  const std::size_t at = text.find("[prometheus]\n");
  return at == std::string::npos ? std::string() : text.substr(at);
}

TEST(RunToCompletionReplay, SerialMatchesClassicByteForByte) {
  expect_golden(replay_plain(1), "replay_plain.txt", 1);
}

TEST(RunToCompletionReplay, ParallelMatchesSerial) {
  // The serial replay reproduces this same golden file, so matching it is
  // matching serial.
  expect_golden(replay_plain(4), "replay_plain.txt", 4);
}

TEST(RunToCompletionReplay, MatchesClassicUnderLossFailuresAndFailOpen) {
  for (const int workers : {1, 4})
    expect_golden(replay_faults(workers), "replay_faults.txt", workers);
}

TEST(RunToCompletionReplay, MidStreamRolloutStaysByteIdentical) {
  for (const int workers : {1, 4})
    expect_golden(replay_rollout(workers), "replay_rollout.txt", workers);
}

TEST(RunToCompletionReplay, TinyRingDrainsInPlaceWithoutDivergence) {
  // Each shard drains its one frame buffer in place after every replicated
  // frame; sessions long enough to overflow any small frame queue must not
  // change a merged quantity.
  for (const int workers : {1, 4})
    expect_golden(replay_long_sessions(workers), "replay_long_sessions.txt", workers);
}

TEST(RunToCompletionReplay, MetricsExportByteIdenticalToClassic) {
  // The expositions — every counter, gauge and label — of the lossy,
  // failing, fail-open replay also match at worker counts the cases above
  // do not use, so no shard split shows in the export.
  const std::string want = expositions(golden("replay_faults.txt"));
  ASSERT_FALSE(want.empty());
  for (const int workers : {2, 3})
    EXPECT_EQ(expositions(replay_faults(workers)), want) << "workers=" << workers;
}

}  // namespace
}  // namespace nwlb::sim
