#include "online/loop.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace nwlb::online {

namespace {

// Validate-then-build in one step so a misconfigured loop throws before
// any member construction runs.
std::unique_ptr<Estimator> build_estimator(core::Controller& controller,
                                           const ControlLoopOptions& options) {
  options.validate();
  return make_estimator(options.estimator, controller.scenario().classes(),
                        controller.scenario().routing().graph().num_nodes(),
                        options.estimator_options);
}

}  // namespace

void ControlLoopOptions::validate() const {
  // Parsing the spec against the merged defaults covers both the grammar
  // and every estimator option's domain in one pass.
  (void)parse_estimator_spec(estimator, estimator_options);
  if (!(epoch_max_seconds >= 0.0))
    throw std::invalid_argument(
        "ControlLoopOptions: epoch_max_seconds must be >= 0, got " +
        std::to_string(epoch_max_seconds));
  if (epoch_objective_tolerance != 0.0)
    throw std::invalid_argument(
        "ControlLoopOptions: epoch_objective_tolerance must be 0 (every epoch is an exact "
        "solve), got " +
        std::to_string(epoch_objective_tolerance));
}

ControlLoop::ControlLoop(core::Controller& controller, sim::ReplaySimulator& sim,
                         shim::ConfigBundle initial, ControlLoopOptions options)
    : controller_(&controller),
      sim_(&sim),
      options_(std::move(options)),
      estimator_(build_estimator(controller, options_)),
      rollout_(std::move(initial), options_.rollout) {}

IntervalReport ControlLoop::run_interval(std::span<const sim::SessionSpec> sessions,
                                         const sim::TraceGenerator& generator) {
  const util::RoleGuard control(control_);
  IntervalReport report;
  report.sessions_replayed = sessions.size();

  // 1. Data plane: replay the interval under the installed generations.
  sim_->replay(sessions, generator);

  // 2. Estimate: fold the window's ingress counters into the estimator
  // (whatever kind the spec selected — the loop never sees past the
  // interface).
  estimator_->observe(sim_->window_class_sessions(), sim_->window_class_bytes());
  const traffic::TrafficMatrix tm = estimator_->estimate();
  report.estimate_total = tm.total();

  // 3. Failures: the mirror-health verdicts are the live failure report.
  core::EpochRequest request;
  request.tm = &tm;
  request.max_solve_seconds = options_.epoch_max_seconds;
  request.failures.down_nodes = sim_->down_mirrors();
  report.failures_reported = static_cast<int>(request.failures.down_nodes.size());

  // 4. Re-optimize (never throws on solver trouble; worst case is the
  // patched last known-good plan with typed degraded reasons).
  report.epoch = controller_->run(request);

  // 5. Roll out make-before-break (or skip untouched when identical).
  report.rollout = rollout_.apply(*sim_, report.epoch.bundle);

  ++intervals_;
  record_interval(report);
  return report;
}

void ControlLoop::record_interval(const IntervalReport& report) const {
  if (options_.metrics == nullptr) return;
  obs::Registry& reg = *options_.metrics;
  reg.counter("nwlb_online_intervals_total", {}, "Control intervals completed").inc();
  reg.counter("nwlb_online_sessions_total", {},
              "Sessions replayed under the online loop")
      .inc(report.sessions_replayed);
  reg.counter(report.rollout.installed ? "nwlb_online_rollouts_total"
                                       : "nwlb_online_rollouts_skipped_total",
              {},
              report.rollout.installed
                  ? "Bundles installed into the data plane"
                  : "Bundles skipped as identical to the installed config")
      .inc();
  if (report.epoch.degraded)
    reg.counter("nwlb_online_degraded_epochs_total", {},
                "Intervals whose epoch reported a degraded plan")
        .inc();
  reg.gauge("nwlb_online_estimate_total_sessions", {},
            "Estimated traffic-matrix mass fed to the last epoch")
      .set(report.estimate_total);
  reg.gauge("nwlb_online_churn_moved_fraction", {},
            "Hash-space fraction moved by the last installed rollout")
      .set(report.rollout.churn.moved_fraction);
  reg.histogram("nwlb_online_churn",
                {0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0}, {},
                "Distribution of per-rollout hash-space churn")
      .observe(report.rollout.churn.moved_fraction);
  reg.gauge("nwlb_online_failures_reported", {},
            "Mirror-health failures fed into the last epoch request")
      .set(static_cast<double>(report.failures_reported));
}

}  // namespace nwlb::online
