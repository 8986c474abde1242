// The online control loop (DESIGN.md §10): estimate -> epoch -> rollout.
//
// One ControlLoop::run_interval() is one control period of a live
// deployment, with no oracle anywhere in the path:
//
//   1. the data plane replays the interval's sessions under the currently
//      installed configuration generations;
//   2. the estimator (any registered kind — ewma or var-ewma; see
//      estimator.h) folds the data plane's per-class ingress counters
//      into a fresh TrafficMatrix (smoothed, scale-anchored);
//   3. mirror health verdicts become the epoch's FailureSet — the same
//      signal a real controller gets from its keepalive streams;
//   4. the controller re-optimizes (warm-started, budget-bounded, with
//      the full two-tier degraded fallback ladder) and emits the next
//      generation-tagged ConfigBundle;
//   5. the rollout engine diffs, reports churn, and installs the bundle
//      make-before-break — or skips it untouched when nothing changed.
//
// Everything observable is exported as nwlb_online_* metrics when a
// registry is attached.  nwlbctl --live drives this loop end to end.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "core/controller.h"
#include "online/estimator.h"
#include "online/rollout.h"
#include "sim/replay.h"
#include "sim/trace.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace nwlb::obs {
class Registry;
}

namespace nwlb::online {

struct ControlLoopOptions {
  /// Estimator spec, `kind[:key=value,...]` — see online::make_estimator()
  /// for the grammar and registered kinds (ewma, var-ewma).
  std::string estimator = "ewma";
  /// Defaults the spec's key=value overrides are applied on top of (the
  /// programmatic knobs: window, scale anchor, floor, headroom).
  EstimatorOptions estimator_options;
  RolloutOptions rollout;

  /// Per-interval epoch budget: when > 0 each epoch request overrides the
  /// controller's lp.max_seconds so one slow solve cannot eat the control
  /// period (the solve degrades or stops at a good-enough plan instead).
  double epoch_max_seconds = 0.0;
  /// When > 0, interval solves may stop at a tolerance-certified
  /// lp::Status::kGoodEnough plan within this relative objective gap.
  double epoch_objective_tolerance = 0.0;

  /// When set, every interval records nwlb_online_* metrics.  Must outlive
  /// the loop.  Null = no telemetry.
  obs::Registry* metrics = nullptr;

  /// Validates every field against its documented domain — the estimator
  /// spec (parsed against the factory grammar), the merged estimator
  /// options, and the epoch budgets.  Throws std::invalid_argument with a
  /// typed message naming the offending field (mirrors the
  /// FailureSchedule::parse strictness contract).  ControlLoop's
  /// constructor calls this, so a misconfigured loop never starts.
  void validate() const;
};

/// What one control interval did.
struct IntervalReport {
  core::EpochResult epoch;
  RolloutReport rollout;
  double estimate_total = 0.0;        // Estimated matrix mass (sessions).
  std::uint64_t sessions_replayed = 0;  // This interval's window.
  int failures_reported = 0;          // Mirror-health nodes fed to the epoch.
};

class ControlLoop {
 public:
  /// `controller` and `sim` must outlive the loop; `sim` must already run
  /// a bundle emitted by `controller` (the bootstrap epoch).  The rollout
  /// engine's diff baseline is `initial` — pass that bootstrap bundle.
  ControlLoop(core::Controller& controller, sim::ReplaySimulator& sim,
              shim::ConfigBundle initial, ControlLoopOptions options = {});

  /// Runs one full control interval (see file comment).
  IntervalReport run_interval(std::span<const sim::SessionSpec> sessions,
                              const sim::TraceGenerator& generator);

  const Estimator& estimator() const {
    control_.assert_held();  // Single control thread owns the loop.
    return *estimator_;
  }
  const RolloutEngine& rollout() const {
    control_.assert_held();  // Single control thread owns the loop.
    return rollout_;
  }
  int intervals_run() const {
    control_.assert_held();  // Single control thread owns the loop.
    return intervals_;
  }

 private:
  void record_interval(const IntervalReport& report) const;

  core::Controller* controller_;
  sim::ReplaySimulator* sim_;
  ControlLoopOptions options_;

  // The control loop is a strictly single-threaded state machine: one
  // thread at a time walks replay -> estimate -> epoch -> rollout.  The
  // role capability (DESIGN.md §11) makes clang enforce that every touch
  // of the loop's mutable state happens inside that discipline.
  util::ThreadRole control_;
  std::unique_ptr<Estimator> estimator_ NWLB_GUARDED_BY(control_);
  RolloutEngine rollout_ NWLB_GUARDED_BY(control_);
  int intervals_ NWLB_GUARDED_BY(control_) = 0;
};

}  // namespace nwlb::online
