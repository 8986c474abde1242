// The online control loop (DESIGN.md §10, §13): estimate -> epoch ->
// rollout, run by N >= 1 controller replicas behind a leader lease.
//
// One ControlLoop::run_interval() is one control period of a live
// deployment, with no oracle anywhere in the path:
//
//   1. the data plane replays the interval's sessions under the currently
//      installed configuration generations;
//   2. each live replica takes the slice of the window's per-class ingress
//      counters whose ingress PoP it owns (`ingress % N == id`), and the
//      cluster runs `consensus_rounds` synchronous bus rounds: estimate
//      gossip, leader heartbeats, and staggered elections, under whatever
//      controller_crash / partition events the fault schedule injects.
//      Each live replica then folds its converged digest into its
//      estimator (whatever kind the spec selected — ewma or var-ewma; see
//      estimator.h);
//   3. the unique replica holding a majority-committed lease (asserted —
//      at most one can exist) turns the mirror-health verdicts into the
//      epoch's FailureSet — the same signal a real controller gets from
//      its keepalive streams — and re-optimizes on its controller
//      (warm-started, budget-bounded, with the full two-tier degraded
//      fallback ladder);
//   4. the InstallGate re-asserts lease/term/generation fencing, numbers
//      the bundle from its own frontier so leadership changes can never
//      regress or duplicate a generation, and the rollout engine diffs it,
//      reports churn, and installs it make-before-break — or skips it
//      untouched when nothing changed.  Leaderless intervals
//      (mid-election, minority partition) install nothing: the data plane
//      keeps running the last good configuration.
//
// One controller is the N = 1 case: it owns every class, is its own
// majority, wins one election in the first interval and renews its lease
// every interval after it, so every interval runs an epoch on the digest
// of the whole window and offers its bundle.  The gate's frontier then
// equals the controller's own generation counter, as long as only the
// loop calls Controller::run.
//
// A leader crash that *begins inside* the interval's replay window
// exercises the nasty cases by thirds of the window: first third = died
// before computing the epoch; middle third = computed but never installed;
// final third = installed but died before advertising the generation (its
// successor recovers the frontier from the gate, not from gossip).
//
// Everything observable is exported as nwlb_online_* and nwlb_dist_*
// metrics when a registry is attached.  nwlbctl --live drives this loop
// end to end.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/controller.h"
#include "online/bus.h"
#include "online/estimator.h"
#include "online/install_gate.h"
#include "online/replica.h"
#include "online/rollout.h"
#include "sim/failure.h"
#include "sim/replay.h"
#include "sim/trace.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace nwlb::obs {
class Registry;
}

namespace nwlb::online {

struct ControlLoopOptions {
  static constexpr int kMaxReplicas = 32;  // A partition mask bit each.

  /// Estimator spec, `kind[:key=value,...]` — see online::make_estimator()
  /// for the grammar and registered kinds (ewma, var-ewma).  Every replica
  /// builds its estimator from it.
  std::string estimator = "ewma";
  /// Defaults the spec's key=value overrides are applied on top of (the
  /// programmatic knobs: window, scale anchor, floor, headroom).
  EstimatorOptions estimator_options;
  RolloutOptions rollout;

  /// Per-interval epoch budget: when > 0 each epoch request overrides the
  /// controller's lp.max_seconds so one slow solve cannot eat the control
  /// period (the epoch degrades instead).
  double epoch_max_seconds = 0.0;
  /// Must be 0: every interval's epoch is one exact solve, and validate()
  /// rejects any other value.  Kept because the end-to-end benchmark
  /// assigns it.
  double epoch_objective_tolerance = 0.0;

  /// Synchronous bus rounds per control interval.  Raised internally to
  /// replicas + 4 so a full election (staggered candidacy, vote quorum,
  /// first heartbeat, ack quorum) always completes within one interval.
  int consensus_rounds = 8;
  BusOptions bus;
  ReplicaOptions replica;

  /// Consulted for controller_crash / partition events each interval
  /// (data-plane kinds stay the simulator's business).  Null = no faults.
  /// Must outlive the loop.
  const sim::FailureSchedule* faults = nullptr;

  /// When set, every interval records nwlb_online_* and nwlb_dist_*
  /// metrics.  Must outlive the loop.  Null = no telemetry.
  obs::Registry* metrics = nullptr;

  /// Validates every field against its documented domain for a loop of
  /// `replicas` controllers — the estimator spec (parsed against the
  /// factory grammar), the merged estimator options, the epoch budgets,
  /// the bus and replica options, and the fault schedule's controller_crash
  /// targets and partition mask bits, which must name replicas in
  /// [0, replicas).  Throws std::invalid_argument with a typed message
  /// naming the offending field (mirrors the FailureSchedule::parse
  /// strictness contract), also for `replicas` outside [1, kMaxReplicas].
  /// ControlLoop's constructor calls this, so a misconfigured loop never
  /// starts.
  void validate(int replicas = 1) const;
};

/// What one control interval did.
struct IntervalReport {
  core::EpochResult epoch;  // Valid only when epoch_run.
  RolloutReport rollout;    // Valid only when install_attempted.
  bool epoch_run = false;
  bool install_attempted = false;
  int leader = -1;  // -1 = leaderless interval (election still in flight).
  std::uint64_t term = 0;
  std::uint64_t generation = 0;  // Install frontier after the interval.
  std::uint32_t partition = 0;   // Active bus partition mask.
  int replicas_alive = 0;
  int replicas_heard = 0;  // Origins covered by the leader's digest.
  std::uint64_t elections_total = 0;  // Cumulative across the cluster.
  double estimate_total = 0.0;          // Estimated matrix mass (sessions).
  std::uint64_t sessions_replayed = 0;  // This interval's window.
  int failures_reported = 0;            // Mirror-health nodes fed to the epoch.
};

class ControlLoop {
 public:
  /// The one-controller loop.  `controller` and `sim` must outlive the
  /// loop; `sim` must already run a bundle emitted by `controller` (the
  /// bootstrap epoch).  The gate's diff baseline is `initial` — pass that
  /// bootstrap bundle.
  ControlLoop(core::Controller& controller, sim::ReplaySimulator& sim,
              shim::ConfigBundle initial, ControlLoopOptions options = {});

  /// N = controllers.size() replicas: replica r runs its epochs on
  /// controllers[r].  Every controller must be built from the same
  /// deployment constants (topology, provisioning matrix, controller
  /// knobs), so any of them can step up; each must outlive the loop.
  ControlLoop(std::vector<core::Controller*> controllers,
              sim::ReplaySimulator& sim, shim::ConfigBundle initial,
              ControlLoopOptions options = {});

  /// Runs one full control interval (see file comment).
  IntervalReport run_interval(std::span<const sim::SessionSpec> sessions,
                              const sim::TraceGenerator& generator);

  int num_replicas() const { return static_cast<int>(controllers_.size()); }
  /// Replica 0's estimator: the loop's only one at N = 1.
  const Estimator& estimator() const {
    control_.assert_held();  // Single control thread owns the loop.
    return replicas_.front()->estimator();
  }
  const RolloutEngine& rollout() const {
    control_.assert_held();  // Single control thread owns the loop.
    return gate_.rollout();
  }
  int intervals_run() const {
    control_.assert_held();  // Single control thread owns the loop.
    return intervals_;
  }

 private:
  /// -1 = no controller_crash begins inside (window_start, window_end];
  /// otherwise the window third (0, 1, 2) the earliest such crash lands in.
  int crash_phase(int replica, std::uint64_t window_start,
                  std::uint64_t window_end) const;
  void record_interval(const IntervalReport& report) NWLB_REQUIRES(control_);

  std::vector<core::Controller*> controllers_;
  sim::ReplaySimulator* sim_;
  ControlLoopOptions options_;
  int rounds_;
  std::vector<int> class_owner_;  // Per class: ingress % N.

  // The control loop is a strictly single-threaded state machine: one
  // thread at a time walks replay -> consensus -> epoch -> install.  The
  // role capability (DESIGN.md §11) makes clang enforce that every touch
  // of the loop's mutable state happens inside that discipline.
  util::ThreadRole control_;
  std::vector<std::unique_ptr<Replica>> replicas_ NWLB_GUARDED_BY(control_);
  MessageBus bus_ NWLB_GUARDED_BY(control_);
  InstallGate gate_ NWLB_GUARDED_BY(control_);
  std::vector<bool> alive_ NWLB_GUARDED_BY(control_);  // Last interval's view.
  int intervals_ NWLB_GUARDED_BY(control_) = 0;
  std::uint64_t elections_recorded_ NWLB_GUARDED_BY(control_) = 0;
};

}  // namespace nwlb::online
