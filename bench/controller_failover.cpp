// Controller failover under the replicated control plane (DESIGN.md §13).
//
// Five scenarios over identical traffic: a healthy baseline, a clean
// leader crash, a leader crash in the final third of an install window
// (installed but never advertised), a minority partition stranding the
// leader, and a crash-then-recover.  For each, the harness measures what
// the paper's operator would care about:
//
//   * time-to-new-generation — control intervals from the fault's onset
//     until the gate's frontier moves again (the failover time, in units
//     of the control interval);
//   * leaderless intervals and elections — the availability cost;
//   * max-load dip — the worst live plan load while the cluster was
//     re-electing, relative to the healthy baseline's steady state (the
//     data plane keeps the last good configuration, so the "dip" bounds
//     how stale that configuration got);
//   * session conservation — crash or not, every replayed session rides
//     exactly one generation.
//
// A scenario that never resumes installing, loses a session, or violates
// a gate invariant fails the process (exit 1) so CI catches it.
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/controller.h"
#include "obs/metrics.h"
#include "online/loop.h"
#include "sim/failure.h"
#include "sim/replay.h"
#include "sim/trace.h"
#include "traffic/matrix.h"

namespace {

using namespace nwlb;

struct ScenarioResult {
  std::string name;
  int intervals_to_new_generation = -1;  // -1 = never resumed.
  int leaderless_intervals = 0;
  std::uint64_t elections = 0;
  std::uint64_t installs = 0;
  std::uint64_t final_generation = 0;
  int final_leader = -1;
  double worst_load = 0.0;  // Max live plan load across the run.
  double final_load = 0.0;
  double coverage = 0.0;
  bool conserved = false;
};

struct Deployment {
  topo::Topology topology;
  traffic::TrafficMatrix tm;
  core::ControllerOptions copts;
  // The bootstrap controller must outlive the runs: ProblemInput views its
  // scenario.
  std::unique_ptr<core::Controller> controller;
  core::EpochResult bootstrap;
  core::ProblemInput input;

  explicit Deployment(topo::Topology topo_in)
      : topology(std::move(topo_in)),
        tm(traffic::gravity_matrix(
            topology.graph,
            traffic::paper_total_sessions(topology.graph.num_nodes()))) {
    copts.architecture = core::Architecture::kPathReplicate;
    copts.lp.max_seconds = 10.0;
    controller = std::make_unique<core::Controller>(topology, tm, copts);
    bootstrap = controller->run({.tm = &tm});
    input = controller->scenario().problem(copts.architecture);
  }
};

/// One full scenario run: fresh replicas, fresh data plane, same trace
/// shape (the generator reseeds identically every scenario).
ScenarioResult run_scenario(const Deployment& dep, const std::string& name,
                            const sim::FailureSchedule* faults,
                            int fault_onset_interval, int intervals,
                            int window_sessions, int replicas) {
  sim::ReplayOptions ropts;
  ropts.failures = faults;
  sim::ReplaySimulator sim(dep.input, dep.bootstrap.bundle, ropts);
  sim::TraceConfig trace_config;
  trace_config.scanners = 0;
  sim::TraceGenerator generator(dep.input.classes, trace_config, 77);

  std::deque<core::Controller> replica_controllers;
  std::vector<core::Controller*> controllers;
  for (int r = 0; r < replicas; ++r)
    controllers.push_back(&replica_controllers.emplace_back(dep.topology, dep.tm, dep.copts));
  online::ControlLoopOptions dopts;
  dopts.estimator_options.scale_to_total = dep.tm.total();
  dopts.faults = faults;
  online::ControlLoop loop(controllers, sim, dep.bootstrap.bundle, dopts);

  ScenarioResult result;
  result.name = name;
  std::uint64_t generation_at_onset = 0;
  for (int w = 0; w < intervals; ++w) {
    const online::IntervalReport report =
        loop.run_interval(generator.generate(window_sessions), generator);
    if (w == fault_onset_interval - 1) generation_at_onset = report.generation;
    if (report.leader < 0) ++result.leaderless_intervals;
    if (report.install_attempted && report.rollout.installed) ++result.installs;
    if (report.epoch_run) {
      result.final_load = report.epoch.assignment.load_cost;
      result.worst_load = std::max(result.worst_load, result.final_load);
    }
    if (w >= fault_onset_interval && result.intervals_to_new_generation < 0 &&
        report.generation > generation_at_onset)
      result.intervals_to_new_generation = w - fault_onset_interval + 1;
    result.elections = report.elections_total;
    result.final_generation = report.generation;
    result.final_leader = report.leader;
  }
  const sim::ReplayStats stats = sim.stats();
  const sim::RolloutStats rollout = sim.rollout_stats();
  result.coverage = stats.coverage();
  result.conserved = rollout.sessions_current_generation +
                             rollout.sessions_draining_generation ==
                         stats.sessions_replayed &&
                     rollout.sessions_unassigned == 0;
  return result;
}

}  // namespace

int main() {
  const bool fast = util::env_flag("NWLB_FAST");
  const int window = fast ? 600 : 1500;
  const int intervals = fast ? 8 : 10;
  const int replicas = 3;
  const int onset = 2;  // Faults begin at this control interval.
  const std::uint64_t w = static_cast<std::uint64_t>(window);
  const topo::Topology topology = bench::selected_topologies().front();

  bench::print_header(
      "Controller failover: replicated control plane under faults",
      "topology=" + topology.name + "  replicas=" + std::to_string(replicas) +
          "  intervals=" + std::to_string(intervals) + " x " +
          std::to_string(window) + " sessions  lease=3 intervals  fault_onset=" +
          std::to_string(onset));

  Deployment dep(topology);

  // The fault schedules, all in global-session-index space.
  sim::FailureSchedule leader_crash;
  leader_crash.add({.kind = sim::FailureKind::kControllerCrash,
                    .target = 0,
                    .begin = onset * w});
  sim::FailureSchedule mid_install;
  mid_install.add({.kind = sim::FailureKind::kControllerCrash,
                   .target = 0,
                   .begin = onset * w - w / 6,  // Final third of window 1.
                   .end = (onset + 3) * w});
  sim::FailureSchedule partition;
  partition.add({.kind = sim::FailureKind::kPartition,
                 .target = 0b001,  // Leader 0 stranded in the minority.
                 .begin = onset * w,
                 .end = (onset + 4) * w});
  sim::FailureSchedule crash_recover;
  crash_recover.add({.kind = sim::FailureKind::kControllerCrash,
                     .target = 0,
                     .begin = onset * w,
                     .end = (onset + 3) * w});

  std::vector<ScenarioResult> results;
  results.push_back(run_scenario(dep, "baseline", nullptr, onset, intervals,
                                 window, replicas));
  results.push_back(run_scenario(dep, "leader_crash", &leader_crash, onset,
                                 intervals, window, replicas));
  // The mid-install crash fires inside window onset-1, so its "onset" for
  // recovery accounting is that window.
  results.push_back(run_scenario(dep, "crash_mid_install", &mid_install,
                                 onset - 1, intervals, window, replicas));
  results.push_back(run_scenario(dep, "minority_partition", &partition, onset,
                                 intervals, window, replicas));
  results.push_back(run_scenario(dep, "crash_recover", &crash_recover, onset,
                                 intervals, window, replicas));

  const double baseline_load = results.front().final_load;
  util::Table table({"Scenario", "TTNewGen", "Leaderless", "Elections",
                     "Installs", "FinalGen", "FinalLeader", "WorstLoad",
                     "LoadDip", "Coverage", "Conserved"});
  for (const ScenarioResult& r : results) {
    table.row()
        .cell(r.name)
        .cell(r.intervals_to_new_generation)
        .cell(r.leaderless_intervals)
        .cell(static_cast<long long>(r.elections))
        .cell(static_cast<long long>(r.installs))
        .cell(static_cast<long long>(r.final_generation))
        .cell(r.final_leader)
        .cell(r.worst_load, 4)
        .cell(baseline_load > 0.0 ? r.worst_load / baseline_load : 0.0, 4)
        .cell(r.coverage, 4)
        .cell(r.conserved ? "yes" : "NO");
  }
  bench::print_table(table);

  bench::JsonReport report("controller_failover");
  report.scalar("topology", topology.name)
      .scalar("replicas", static_cast<long long>(replicas))
      .scalar("intervals", static_cast<long long>(intervals))
      .scalar("window_sessions", static_cast<long long>(window))
      .scalar("fault_onset_interval", static_cast<long long>(onset))
      .scalar("baseline_load", baseline_load);
  for (const ScenarioResult& r : results) {
    report.scalar(r.name + "_time_to_new_generation",
                  static_cast<long long>(r.intervals_to_new_generation))
        .scalar(r.name + "_leaderless_intervals",
                static_cast<long long>(r.leaderless_intervals))
        .scalar(r.name + "_elections", static_cast<long long>(r.elections))
        .scalar(r.name + "_final_generation",
                static_cast<long long>(r.final_generation))
        .scalar(r.name + "_worst_load", r.worst_load)
        .scalar(r.name + "_coverage", r.coverage);
  }
  report.table("scenarios", table);
  report.write_if_requested();

  bool ok = true;
  for (const ScenarioResult& r : results) {
    if (!r.conserved) {
      std::cerr << "FAIL: " << r.name << " lost or double-assigned sessions\n";
      ok = false;
    }
    if (r.intervals_to_new_generation < 0) {
      std::cerr << "FAIL: " << r.name
                << " never resumed emitting generations after the fault\n";
      ok = false;
    }
    if (r.final_generation <= dep.bootstrap.bundle.generation) {
      std::cerr << "FAIL: " << r.name << " never moved the install frontier\n";
      ok = false;
    }
  }
  // Failover must complete within the lease promise plus one electing
  // interval: 3 lease ticks + 1, measured from onset.
  for (const ScenarioResult& r : results) {
    if (r.name == "baseline") continue;
    if (r.intervals_to_new_generation > 4) {
      std::cerr << "FAIL: " << r.name << " took "
                << r.intervals_to_new_generation
                << " intervals to a new generation (bound: 4)\n";
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
