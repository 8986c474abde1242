// The network-wide management module (§3, Fig. 6).
//
// The controller owns the long-lived state (topology, routing, provisioned
// capacities, datacenter placement), receives periodic traffic-matrix
// feeds, re-solves the session-level replication LP exactly, and emits a
// generation-tagged shim::ConfigBundle.  Successive epochs warm-start the
// LP from the previous basis (the model shape is identical across epochs,
// only coefficients move), which keeps re-optimization well inside the
// paper's "every 5 minutes" budget.
//
// One entry point serves every control-plane interaction:
// run(EpochRequest).  A request carries the fresh traffic matrix, the
// failure set reported by mirror health / keepalives, and a force_patch
// flag selecting the tier-1 instant response.  Tier 1 (force_patch): the
// moment a failure is detected, the last known-good assignment is rescaled
// onto the survivors — no LP, microseconds, bounded suboptimality.  Tier 2
// (a normal request with failures): the next control period re-solves the
// LP over the surviving topology, warm-started and bounded by the solver
// budget.  A solve that exhausts its budget or goes infeasible is retried
// once cold; if that also fails the epoch falls back to the patched last
// known-good configuration — never aborting — and reports degraded=true
// with typed reasons, then backs off the LP for a few epochs.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/mapper.h"
#include "core/patch.h"
#include "core/scenario.h"
#include "shim/bundle.h"

namespace nwlb::obs {
class Registry;
}

namespace nwlb::core {

struct ControllerOptions {
  Architecture architecture = Architecture::kPathReplicate;
  ScenarioConfig scenario;

  /// Solver budget applied to every epoch's LP solves (max_iterations /
  /// max_seconds).  Defaults are unlimited; deployments set these so one
  /// pathological solve degrades the epoch instead of stalling the loop.
  lp::Options lp;

  /// When set, every epoch and patch records nwlb_controller_* metrics and
  /// pushes one structured event into the registry's trace ring (see
  /// DESIGN.md §9).  Must outlive the controller.  Null = no telemetry.
  obs::Registry* metrics = nullptr;
};

/// One control-plane request: the single entry point's input.
struct EpochRequest {
  /// Fresh traffic data for this epoch.  Required unless force_patch is
  /// set (a patch reuses the last known-good plan and ignores traffic).
  const traffic::TrafficMatrix* tm = nullptr;

  /// Failure state reported by mirror health / keepalives; empty = healthy.
  FailureSet failures;

  /// Tier-1 instant response: skip the LP entirely and proportionally
  /// rescale the last known-good assignment onto the survivors.  Requires
  /// at least one completed epoch (throws std::logic_error otherwise).
  bool force_patch = false;

  /// Per-request solver budget override: a value > 0 replaces
  /// ControllerOptions::lp.max_seconds for this epoch only (the online
  /// loop sets it from its interval budget).
  double max_solve_seconds = 0.0;
  /// Must be 0: every epoch is one exact solve, and run() throws
  /// std::invalid_argument on any other value.  Kept because the
  /// end-to-end benchmark assigns it.
  double objective_tolerance = 0.0;
};

/// Machine-readable causes of a degraded epoch.
enum class DegradedReason : unsigned char {
  kPatch,              // Plan is the LP-free proportional patch (tier 1).
  kLpBudgetExhausted,  // Iteration/time budget ran out (warm and cold).
  kLpInfeasible,       // Surviving topology admits no feasible plan.
  kLpFailed,           // Any other non-optimal solver status.
  kResolveBackoff,     // LP skipped while backing off after a failure.
  kCoverageLoss,       // Plan cannot restore full coverage (miss_rate > 0).
  kNoKnownGood,        // Fallback bottomed out at the ingress construction.
};

const char* to_string(DegradedReason reason);

/// ';'-joined reason list ("" when empty) — the exposition/trace form.
std::string to_string(const std::vector<DegradedReason>& reasons);

struct EpochResult {
  Assignment assignment;      // Session-level (replication) plan.
  shim::ConfigBundle bundle;  // Generation-tagged per-PoP configs.
  /// Wall time and pivots of every solve attempt this epoch: a failed
  /// warm attempt and its cold retry both count.
  double solve_seconds = 0.0;
  int iterations = 0;
  bool warm_started = false;
  /// Always false: every epoch re-solves warm with full pricing.  Kept
  /// because the end-to-end benchmark reads it for core.delta_frac.
  bool delta_resolve = false;

  /// True when this epoch's plan is not a fresh optimum: the LP fell back
  /// to (a patch of) the last known-good assignment, the solve is being
  /// backed off, or surviving capacity cannot restore full coverage.
  bool degraded = false;
  /// True when the plan came from the LP-free proportional patch.
  bool patched = false;
  /// Typed causes, empty when healthy (to_string joins them for display).
  std::vector<DegradedReason> degraded_reasons;

  bool has_reason(DegradedReason reason) const {
    for (const DegradedReason r : degraded_reasons)
      if (r == reason) return true;
    return false;
  }
};

class Controller {
 public:
  /// `topology` must outlive the controller.  `initial_tm` fixes capacity
  /// provisioning and DC placement for the deployment's lifetime.
  Controller(const topo::Topology& topology, const traffic::TrafficMatrix& initial_tm,
             ControllerOptions options);

  /// Convenience constructor with default scenario knobs.
  Controller(const topo::Topology& topology, const traffic::TrafficMatrix& initial_tm,
             Architecture architecture = Architecture::kPathReplicate,
             ScenarioConfig config = {});

  /// The single control-plane entry point (see file comment).  Never
  /// throws on solver failure: the worst outcome is the patched last
  /// known-good plan with degraded=true and typed reasons.  Throws
  /// std::logic_error for a force_patch before any completed epoch, and
  /// std::invalid_argument for a non-patch request without traffic or a
  /// nonzero objective_tolerance.
  EpochResult run(const EpochRequest& request);

  /// The most recent successfully solved (non-degraded) epoch's
  /// assignment, if any.
  const std::optional<Assignment>& last_known_good() const { return last_good_; }

  const Scenario& scenario() const { return scenario_; }
  int epochs_run() const { return epochs_; }

  /// Generation the next emitted bundle will carry.
  std::uint64_t next_generation() const { return generation_ + 1; }

 private:
  EpochResult run_patch(const FailureSet& failures);
  EpochResult run_epoch(const EpochRequest& request);
  shim::ConfigBundle make_bundle(const ProblemInput& input,
                                 const Assignment& assignment);
  void record_epoch(const EpochResult& result, const std::string& solve_status,
                    const FailureSet& failures) const;

  Scenario scenario_;
  ControllerOptions options_;
  std::optional<lp::Basis> warm_basis_;
  std::optional<Assignment> last_good_;
  int backoff_remaining_ = 0;
  int epochs_ = 0;
  std::uint64_t generation_ = 0;
};

}  // namespace nwlb::core
