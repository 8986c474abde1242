#include "core/controller.h"

#include <cmath>
#include <exception>
#include <stdexcept>
#include <utility>

#include "core/replication_lp.h"
#include "core/validate.h"
#include "obs/metrics.h"
#include "shim/validate.h"
#include "util/check.h"

namespace nwlb::core {

namespace {

/// After a failed re-solve (budget exhausted twice, or infeasible), skip
/// the LP for this many epochs before trying again.
constexpr int kResolveBackoffEpochs = 2;

/// Epoch solve wall time, seconds.  The paper's budget is "every 5
/// minutes"; the top bucket is well past any sane per-epoch solve.
const std::vector<double>& solve_seconds_bounds() {
  static const std::vector<double> bounds = {1e-4, 1e-3, 5e-3, 0.01, 0.05,
                                             0.1,  0.5,  1.0,  5.0,  30.0};
  return bounds;
}

void add_reason(EpochResult& result, DegradedReason reason) {
  result.degraded = true;
  if (!result.has_reason(reason)) result.degraded_reasons.push_back(reason);
}

}  // namespace

const char* to_string(DegradedReason reason) {
  switch (reason) {
    case DegradedReason::kPatch: return "patch";
    case DegradedReason::kLpBudgetExhausted: return "lp_budget_exhausted";
    case DegradedReason::kLpInfeasible: return "lp_infeasible";
    case DegradedReason::kLpFailed: return "lp_failed";
    case DegradedReason::kResolveBackoff: return "resolve_backoff";
    case DegradedReason::kCoverageLoss: return "coverage_loss";
    case DegradedReason::kNoKnownGood: return "no_known_good";
    case DegradedReason::kScanLpFailed: return "scan_lp_failed";
  }
  return "unknown";
}

std::string to_string(const std::vector<DegradedReason>& reasons) {
  std::string joined;
  for (const DegradedReason reason : reasons) {
    if (!joined.empty()) joined += ';';
    joined += to_string(reason);
  }
  return joined;
}

Controller::Controller(const topo::Topology& topology,
                       const traffic::TrafficMatrix& initial_tm,
                       ControllerOptions options)
    : scenario_(topology, initial_tm, options.scenario), options_(options) {}

Controller::Controller(const topo::Topology& topology,
                       const traffic::TrafficMatrix& initial_tm,
                       Architecture architecture, ScenarioConfig config)
    : Controller(topology, initial_tm,
                 ControllerOptions{architecture, config, false, {}, {}}) {}

EpochResult Controller::run(const EpochRequest& request) {
  if (request.force_patch) return run_patch(request.failures);
  if (request.tm == nullptr)
    throw std::invalid_argument("Controller::run: request without traffic matrix");
  scenario_.set_traffic(*request.tm);
  return run_epoch(request);
}

shim::ConfigBundle Controller::make_bundle(const ProblemInput& input,
                                           const Assignment& assignment) {
  shim::ConfigBundle bundle;
  bundle.generation = ++generation_;
  bundle.configs = build_shim_configs(input, assignment);
  return bundle;
}

EpochResult Controller::run_patch(const FailureSet& failures) {
  if (!last_good_.has_value())
    throw std::logic_error("Controller::run: no known-good epoch to patch yet");
  ProblemInput input = scenario_.problem(options_.architecture);
  apply_failures(input, failures);
  EpochResult result;
  result.patched = true;
  if (!failures.empty()) add_reason(result, DegradedReason::kPatch);
  result.assignment = patch_assignment(input, *last_good_, failures);
  result.bundle = make_bundle(input, result.assignment);
  if (options_.metrics != nullptr) {
    obs::Registry& metrics = *options_.metrics;
    metrics
        .counter("nwlb_controller_patches_total", {},
                 "Tier-1 LP-free proportional patches applied")
        .inc();
    metrics.trace().push(
        "controller", "patch", static_cast<double>(failures.down_nodes.size()),
        "down_nodes=" + std::to_string(failures.down_nodes.size()) +
            " failed_links=" + std::to_string(failures.failed_links.size()) +
            " generation=" + std::to_string(result.bundle.generation));
  }
#if NWLB_DCHECK_ENABLED
  {
    // Patched plans may legitimately exceed capacity/link caps, but the
    // compiled hash ranges must still be structurally sound.
    shim::ConfigValidationOptions config_options;
    config_options.num_classes = static_cast<int>(input.classes.size());
    const auto violations = shim::validate_configs(result.bundle.configs, config_options);
    NWLB_CHECK(violations.empty(), "patched shim configs invalid: ",
               violations.empty() ? "" : violations.front());
  }
#endif
  return result;
}

EpochResult Controller::run_epoch(const EpochRequest& request) {
  const FailureSet& failures = request.failures;
  EpochResult result;
  // How this epoch's plan was produced, exported as the {status=...} label
  // on nwlb_controller_epoch_outcomes_total.
  std::string solve_status = "ingress";
  ProblemInput input = scenario_.problem(options_.architecture);
  apply_failures(input, failures);

  // Serves (a patch of) the last known-good plan without consulting the
  // LP; used while the solver is backed off and as the terminal fallback.
  const auto fall_back = [&](DegradedReason reason) {
    add_reason(result, reason);
    if (last_good_) {
      result.assignment = patch_assignment(input, *last_good_, failures);
      result.patched = !failures.empty();
    } else {
      // Nothing known-good yet: the LP-free ingress construction is always
      // available, then patched around whatever has failed.
      add_reason(result, DegradedReason::kNoKnownGood);
      result.assignment = patch_assignment(input, ingress_assignment(input), failures);
      result.patched = true;
    }
  };

  if (options_.architecture == Architecture::kIngress) {
    result.assignment = failures.empty()
                            ? ingress_assignment(input)
                            : patch_assignment(input, ingress_assignment(input), failures);
    result.patched = !failures.empty();
  } else if (backoff_remaining_ > 0) {
    --backoff_remaining_;
    solve_status = "backoff";
    fall_back(DegradedReason::kResolveBackoff);
  } else {
    const ReplicationLp formulation(input);
    const lp::Basis* warm = warm_basis_ ? &*warm_basis_ : nullptr;
    result.warm_started = warm != nullptr;

    // Per-class delta re-solve: when the model shape is unchanged and both
    // this epoch and the warm basis' epoch are failure-free, only the
    // classes whose session counts moved can have newly attractive columns
    // (each class couples to the rest solely through the shared load rows).
    // Restrict pricing to those classes; the solver's full verification
    // pass guards against the restriction ever hiding optimality.
    lp::Options epoch_lp = options_.lp;
    if (request.max_solve_seconds > 0.0) epoch_lp.max_seconds = request.max_solve_seconds;
    if (request.objective_tolerance > 0.0)
      epoch_lp.objective_tolerance = request.objective_tolerance;
    const lp::Options base_lp = epoch_lp;  // Retry baseline, no focus.
    std::vector<int> focus_columns;
    if (warm != nullptr && failures.empty() && delta_snapshot_clean_ &&
        delta_class_sessions_.size() == input.classes.size()) {
      std::vector<int> changed;
      for (std::size_t c = 0; c < input.classes.size(); ++c) {
        const double prev = delta_class_sessions_[c];
        const double now = input.classes[c].sessions;
        if (std::abs(now - prev) > 1e-9 * std::max(1.0, std::abs(prev)))
          changed.push_back(static_cast<int>(c));
      }
      if (changed.size() < input.classes.size()) {
        focus_columns = formulation.priority_columns_for(changed);
        epoch_lp.priority_columns = &focus_columns;
        result.delta_resolve = true;
      }
    }

    ReplicationLp::SolveResult attempt = formulation.try_solve(epoch_lp, warm);
    if (!lp::solved(attempt.status) && warm != nullptr) {
      // The warm basis may be fighting the new bounds; one cold retry with
      // the same budget (and unrestricted pricing) before giving up on
      // this epoch's solve.
      attempt = formulation.try_solve(base_lp, nullptr);
      result.warm_started = false;
      result.delta_resolve = false;
    }
    result.solve_seconds += attempt.assignment.lp.solve_seconds;
    result.iterations +=
        attempt.assignment.lp.iterations + attempt.assignment.lp.phase1_iterations;
    solve_status = lp::to_string(attempt.status);
    if (lp::solved(attempt.status)) {
      result.approximate = attempt.status == lp::Status::kGoodEnough;
      result.assignment = std::move(attempt.assignment);
      warm_basis_ = result.assignment.lp.basis;
      last_good_ = result.assignment;
      backoff_remaining_ = 0;
      delta_class_sessions_.resize(input.classes.size());
      for (std::size_t c = 0; c < input.classes.size(); ++c)
        delta_class_sessions_[c] = input.classes[c].sessions;
      delta_snapshot_clean_ = failures.empty();
    } else {
      backoff_remaining_ = kResolveBackoffEpochs;
      // The snapshot no longer matches the basis the next warm start will
      // reuse; disable the delta restriction until a clean solve lands.
      delta_snapshot_clean_ = false;
      switch (attempt.status) {
        case lp::Status::kOptimal:
        case lp::Status::kGoodEnough:
          break;  // Unreachable: handled by the solved() branch above.
        case lp::Status::kIterationLimit:
        case lp::Status::kTimeLimit:
          fall_back(DegradedReason::kLpBudgetExhausted);
          break;
        case lp::Status::kInfeasible:
          fall_back(DegradedReason::kLpInfeasible);
          break;
        case lp::Status::kUnbounded:
        case lp::Status::kNumericalFailure:
          fall_back(DegradedReason::kLpFailed);
          break;
      }
    }
  }
  if (result.assignment.miss_rate > 1e-9) {
    // Whatever produced this plan — a re-solve over the survivors, a
    // patch, or the ingress fallback — it cannot restore full coverage:
    // still a degraded service level even when the solve itself succeeded.
    add_reason(result, DegradedReason::kCoverageLoss);
  }
  result.bundle = make_bundle(input, result.assignment);
#if NWLB_DCHECK_ENABLED
  {
    // Debug builds re-validate every applied assignment and the compiled
    // shim configs before they would reach the data plane.  Degraded or
    // patched plans may exceed capacity/link caps by design, so the full
    // assignment validator only runs on healthy optima.
    if (!result.degraded && !result.patched && failures.empty()) {
      const auto assignment_violations = validate_assignment(input, result.assignment);
      NWLB_CHECK(assignment_violations.empty(), "epoch assignment invalid: ",
                 assignment_violations.empty() ? "" : assignment_violations.front());
    }
    shim::ConfigValidationOptions config_options;
    config_options.num_classes = static_cast<int>(input.classes.size());
    const auto config_violations =
        shim::validate_configs(result.bundle.configs, config_options);
    NWLB_CHECK(config_violations.empty(), "epoch shim configs invalid: ",
               config_violations.empty() ? "" : config_violations.front());
  }
#endif
  if (result.solve_seconds == 0.0) result.solve_seconds = result.assignment.lp.solve_seconds;

  if (options_.enable_scan_aggregation) {
    // The aggregatable analysis runs on the on-path problem (no offloads).
    // Its failure is never fatal to the epoch: the session-level plan above
    // still ships, just without a fresh scan split.
    try {
      ProblemInput scan_input = scenario_.problem(Architecture::kPathNoReplicate);
      apply_failures(scan_input, failures);
      const AggregationLp scan_lp(scan_input, options_.aggregation);
      const lp::Basis* warm = scan_warm_basis_ ? &*scan_warm_basis_ : nullptr;
      Assignment scan = scan_lp.solve(options_.lp, warm);
      scan_warm_basis_ = scan.lp.basis;
      result.solve_seconds += scan.lp.solve_seconds;
      result.iterations += scan.lp.iterations + scan.lp.phase1_iterations;
      result.scan = std::move(scan);
    } catch (const std::exception&) {
      add_reason(result, DegradedReason::kScanLpFailed);
      result.scan.reset();
      scan_warm_basis_.reset();
    }
  }
  ++epochs_;
  if (options_.metrics != nullptr) record_epoch(result, solve_status, failures);
  return result;
}

void Controller::record_epoch(const EpochResult& result,
                              const std::string& solve_status,
                              const FailureSet& failures) const {
  obs::Registry& metrics = *options_.metrics;
  metrics
      .counter("nwlb_controller_epochs_total", {},
               "Optimization epochs run by the controller")
      .inc();
  metrics
      .counter("nwlb_controller_epoch_outcomes_total", {{"status", solve_status}},
               "Epochs by how the plan was produced (LP status, backoff, ingress)")
      .inc();
  if (result.degraded)
    metrics
        .counter("nwlb_controller_epochs_degraded_total", {},
                 "Epochs whose plan is not a fresh optimum")
        .inc();
  for (const DegradedReason reason : result.degraded_reasons)
    metrics
        .counter("nwlb_controller_degraded_reasons_total",
                 {{"reason", to_string(reason)}},
                 "Degraded epochs by typed cause")
        .inc();
  if (result.patched)
    metrics
        .counter("nwlb_controller_epochs_patched_total", {},
                 "Epochs served from the LP-free proportional patch")
        .inc();
  if (result.warm_started)
    metrics
        .counter("nwlb_controller_epochs_warm_started_total", {},
                 "Epochs whose LP solve reused the previous basis")
        .inc();
  if (result.approximate)
    metrics
        .counter("nwlb_controller_epochs_approximate_total", {},
                 "Epochs served a tolerance-certified (good-enough) plan")
        .inc();
  if (result.delta_resolve)
    metrics
        .counter("nwlb_controller_epochs_delta_resolve_total", {},
                 "Epochs solved with pricing focused on changed classes")
        .inc();
  metrics
      .counter("nwlb_controller_lp_iterations_total", {},
               "Simplex iterations across all epoch solves (both LPs)")
      .inc(static_cast<std::uint64_t>(result.iterations > 0 ? result.iterations : 0));
  metrics
      .histogram("nwlb_controller_solve_seconds", solve_seconds_bounds(), {},
                 "Per-epoch LP solve wall time, seconds")
      .observe(result.solve_seconds);
  metrics
      .gauge("nwlb_controller_backoff_epochs_remaining", {},
             "Epochs left before the controller retries the LP")
      .set(static_cast<double>(backoff_remaining_));
  metrics
      .gauge("nwlb_controller_miss_rate", {},
             "Traffic fraction the current plan leaves uncovered")
      .set(result.assignment.miss_rate);
  metrics
      .gauge("nwlb_controller_generation", {},
             "Generation of the most recently emitted config bundle")
      .set(static_cast<double>(result.bundle.generation));
  const std::string reasons = to_string(result.degraded_reasons);
  metrics.trace().push(
      "controller", "epoch", result.solve_seconds,
      "epoch=" + std::to_string(epochs_) + " status=" + solve_status +
          " warm=" + (result.warm_started ? "1" : "0") +
          " degraded=" + (result.degraded ? "1" : "0") +
          " patched=" + (result.patched ? "1" : "0") +
          " iterations=" + std::to_string(result.iterations) +
          " generation=" + std::to_string(result.bundle.generation) +
          " down_nodes=" + std::to_string(failures.down_nodes.size()) +
          (reasons.empty() ? std::string() : " reason=" + reasons));
}

}  // namespace nwlb::core
