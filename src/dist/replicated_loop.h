// Replicated control loop (DESIGN.md §13): the ControlLoop pipeline run
// by N controller replicas instead of one.
//
// Per control interval:
//
//   1. the data plane replays the window under the installed generations
//      (exactly as the single-controller loop does);
//   2. each live replica takes the slice of the window's per-class
//      counters whose ingress PoP it owns (`ingress % N == id`) and the
//      cluster runs `consensus_rounds` synchronous bus rounds: estimate
//      gossip, leader heartbeats, and staggered elections, under whatever
//      controller_crash / partition events the fault schedule injects;
//   3. the unique replica holding a majority-committed lease (asserted —
//      at most one can exist) folds its converged digest into its own
//      estimator, runs the epoch, and emits the next generation, numbered
//      from the InstallGate's frontier so leadership changes can never
//      regress or duplicate a generation;
//   4. the InstallGate re-asserts lease/term/generation fencing and
//      applies the bundle through the rollout engine.  Leaderless
//      intervals (mid-election, minority partition) install nothing —
//      the data plane keeps running the last good configuration.
//
// A leader crash that *begins inside* the interval's replay window
// exercises the nasty cases by thirds of the window: first third = died
// before computing the epoch; middle third = computed but never installed;
// final third = installed but died before advertising the generation (its
// successor recovers the frontier from the gate, not from gossip).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/controller.h"
#include "dist/bus.h"
#include "dist/install_gate.h"
#include "dist/replica.h"
#include "sim/failure.h"
#include "sim/replay.h"
#include "sim/trace.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace nwlb::obs {
class Registry;
}

namespace nwlb::dist {

struct ReplicatedLoopOptions {
  static constexpr int kMaxReplicas = 32;  // A partition mask bit each.
  int replicas = 3;

  /// Synchronous bus rounds per control interval.  Raised internally to
  /// replicas + 4 so a full election (staggered candidacy, vote quorum,
  /// first heartbeat, ack quorum) always completes within one interval.
  int consensus_rounds = 8;

  BusOptions bus;
  ReplicaOptions replica;
  online::RolloutOptions rollout;

  /// Consulted for controller_crash / partition events each interval
  /// (data-plane kinds stay the simulator's business).  Null = no faults.
  /// Must outlive the loop.
  const sim::FailureSchedule* faults = nullptr;

  /// When set, every interval records nwlb_dist_* metrics.  Must outlive
  /// the loop.  Null = no telemetry.
  obs::Registry* metrics = nullptr;

  /// Throws std::invalid_argument on replicas outside [1, kMaxReplicas],
  /// rounds below 1, bad `bus` or `replica` options, or a `faults`
  /// controller_crash target or partition mask bit outside [0, replicas).
  /// The constructor calls this.
  void validate() const;
};

/// What one replicated control interval did.
struct ReplicatedIntervalReport {
  core::EpochResult epoch;        // Valid only when epoch_run.
  online::RolloutReport rollout;  // Valid only when install_attempted.
  bool epoch_run = false;
  bool install_attempted = false;
  int leader = -1;  // -1 = leaderless interval (election still in flight).
  std::uint64_t term = 0;
  std::uint64_t generation = 0;  // Install frontier after the interval.
  std::uint32_t partition = 0;   // Active bus partition mask.
  int replicas_alive = 0;
  int replicas_heard = 0;  // Origins covered by the leader's digest.
  std::uint64_t elections_total = 0;  // Cumulative across the cluster.
  double estimate_total = 0.0;
  std::uint64_t sessions_replayed = 0;
  int failures_reported = 0;
};

class ReplicatedControlLoop {
 public:
  /// `topology` and `sim` must outlive the loop; `sim` must already run
  /// `initial` (the bootstrap bundle — also the gate's diff baseline).
  /// Every replica is constructed from the same deployment constants, so
  /// any of them can step up.  Replica controllers get metrics = nullptr:
  /// telemetry is the loop's job, not N copies of it.
  ReplicatedControlLoop(const topo::Topology& topology,
                        const traffic::TrafficMatrix& initial_tm,
                        const core::ControllerOptions& copts,
                        sim::ReplaySimulator& sim, shim::ConfigBundle initial,
                        ReplicatedLoopOptions options = {});

  /// Runs one full replicated control interval (see file comment).
  ReplicatedIntervalReport run_interval(
      std::span<const sim::SessionSpec> sessions,
      const sim::TraceGenerator& generator);

  int num_replicas() const { return static_cast<int>(replicas_.size()); }
  const Replica& replica(int r) const {
    control_.assert_held();  // Single control thread owns the loop.
    return *replicas_.at(static_cast<std::size_t>(r));
  }
  const MessageBus& bus() const {
    control_.assert_held();
    return bus_;
  }
  const InstallGate& gate() const {
    control_.assert_held();
    return gate_;
  }
  int intervals_run() const {
    control_.assert_held();
    return intervals_;
  }

 private:
  /// -1 = no controller_crash begins inside (window_start, window_end];
  /// otherwise the window third (0, 1, 2) the earliest such crash lands in.
  int crash_phase(int replica, std::uint64_t window_start,
                  std::uint64_t window_end) const;
  void record_interval(const ReplicatedIntervalReport& report)
      NWLB_REQUIRES(control_);

  sim::ReplaySimulator* sim_;
  ReplicatedLoopOptions options_;
  int rounds_;
  std::vector<int> class_owner_;  // Per class: ingress % N.

  // Same single-threaded-state-machine discipline as ControlLoop.
  util::ThreadRole control_;
  std::vector<std::unique_ptr<Replica>> replicas_ NWLB_GUARDED_BY(control_);
  MessageBus bus_ NWLB_GUARDED_BY(control_);
  InstallGate gate_ NWLB_GUARDED_BY(control_);
  std::vector<bool> alive_ NWLB_GUARDED_BY(control_);  // Last interval's view.
  int intervals_ NWLB_GUARDED_BY(control_) = 0;
  std::uint64_t elections_recorded_ NWLB_GUARDED_BY(control_) = 0;
};

}  // namespace nwlb::dist
