#include "online/loop.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace nwlb::online {

namespace {

/// `options`, checked for a loop of `replicas` controllers before any
/// member is built from them.
ControlLoopOptions validated(ControlLoopOptions options, std::size_t replicas) {
  options.validate(static_cast<int>(replicas));
  return options;
}

}  // namespace

void ControlLoopOptions::validate(int replicas) const {
  if (replicas < 1 || replicas > kMaxReplicas)
    throw std::invalid_argument("ControlLoopOptions: replicas must be in [1, " +
                                std::to_string(kMaxReplicas) + "], got " +
                                std::to_string(replicas));
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
  if (consensus_rounds < 1)
    throw std::invalid_argument(
        "ControlLoopOptions: consensus_rounds must be >= 1, got " +
        std::to_string(consensus_rounds));
  bus.validate();
  replica.validate();
  if (faults == nullptr) return;
  for (const sim::FailureEvent& e : faults->events()) {
    int replica_id = -1;  // The highest replica the event names.
    if (e.kind == sim::FailureKind::kControllerCrash) replica_id = e.target;
    if (e.kind == sim::FailureKind::kPartition)
      replica_id = static_cast<int>(std::bit_width(static_cast<unsigned>(e.target))) - 1;
    if (replica_id < replicas) continue;
    std::string message = "ControlLoopOptions: '";
    message.append(sim::to_string(e)).append("' names replica ");
    message.append(std::to_string(replica_id)).append(", outside [0, ");
    throw std::invalid_argument(message.append(std::to_string(replicas)).append(")"));
  }
}

ControlLoop::ControlLoop(core::Controller& controller, sim::ReplaySimulator& sim,
                         shim::ConfigBundle initial, ControlLoopOptions options)
    : ControlLoop(std::vector<core::Controller*>{&controller}, sim,
                  std::move(initial), std::move(options)) {}

ControlLoop::ControlLoop(std::vector<core::Controller*> controllers,
                         sim::ReplaySimulator& sim, shim::ConfigBundle initial,
                         ControlLoopOptions options)
    : controllers_(std::move(controllers)),
      sim_(&sim),
      options_(validated(std::move(options), controllers_.size())),
      rounds_(std::max(options_.consensus_rounds, num_replicas() + 4)),
      bus_(num_replicas(), options_.bus),
      gate_(std::move(initial), options_.rollout),
      alive_(controllers_.size(), true) {
  const int n = num_replicas();
  replicas_.reserve(controllers_.size());
  for (int r = 0; r < n; ++r) {
    const core::Controller* controller = controllers_[static_cast<std::size_t>(r)];
    NWLB_CHECK(controller != nullptr, "ControlLoop: controller ", r, " is null");
    const core::Scenario& scenario = controller->scenario();
    replicas_.push_back(std::make_unique<Replica>(
        r, n,
        make_estimator(options_.estimator, scenario.classes(),
                       scenario.routing().graph().num_nodes(),
                       options_.estimator_options),
        options_.replica));
  }
  const auto& classes = controllers_.front()->scenario().classes();
  class_owner_.reserve(classes.size());
  for (const traffic::TrafficClass& cls : classes)
    class_owner_.push_back(static_cast<int>(cls.ingress) % n);
}

IntervalReport ControlLoop::run_interval(std::span<const sim::SessionSpec> sessions,
                                         const sim::TraceGenerator& generator) {
  const util::RoleGuard control(control_);
  IntervalReport report;
  report.sessions_replayed = sessions.size();
  const int n = num_replicas();
  const auto tick = static_cast<std::uint64_t>(intervals_);

  // 1. Data plane: replay the interval under the installed generations.
  const std::uint64_t window_start = sim_->next_session_index();
  sim_->replay(sessions, generator);
  const std::uint64_t window_end = sim_->next_session_index();

  // Fault state for this interval: crash/partition status is sampled at
  // the window start, in the same global-session-index space every other
  // failure kind uses.
  std::vector<bool> alive(static_cast<std::size_t>(n), true);
  std::uint32_t partition = 0;
  if (options_.faults != nullptr) {
    partition = options_.faults->partition_mask_at(window_start);
    for (int r = 0; r < n; ++r)
      alive[static_cast<std::size_t>(r)] =
          !options_.faults->controller_crashed(r, window_start);
  }
  bus_.flush();  // Consensus state is per-interval; no cross-interval leaks.
  bus_.set_partition(partition);
  report.partition = partition;
  for (int r = 0; r < n; ++r) {
    const auto idx = static_cast<std::size_t>(r);
    if (alive[idx] && !alive_[idx]) replicas_[idx]->on_restart();
    if (alive[idx]) ++report.replicas_alive;
  }
  alive_ = alive;

  // 2. Consensus: each live replica seeds gossip with its ingress slice,
  // then the cluster runs the synchronous rounds, and each live replica
  // folds its digest into its estimator.
  const std::vector<std::uint64_t>& win_sessions = sim_->window_class_sessions();
  const std::vector<std::uint64_t>& win_bytes = sim_->window_class_bytes();
  NWLB_CHECK_EQ(win_sessions.size(), class_owner_.size(),
                "ControlLoop: window counter shape mismatch");
  for (int r = 0; r < n; ++r) {
    if (!alive[static_cast<std::size_t>(r)]) continue;
    EstimatePartial own;
    own.sessions.assign(class_owner_.size(), 0);
    own.bytes.assign(class_owner_.size(), 0);
    for (std::size_t c = 0; c < class_owner_.size(); ++c) {
      if (class_owner_[c] != r) continue;
      own.sessions[c] = win_sessions[c];
      own.bytes[c] = win_bytes[c];
    }
    replicas_[static_cast<std::size_t>(r)]->begin_interval(tick, std::move(own));
  }
  for (int round = 0; round < rounds_; ++round) {
    for (int r = 0; r < n; ++r) {
      if (!alive[static_cast<std::size_t>(r)]) continue;
      replicas_[static_cast<std::size_t>(r)]->run_round(bus_, tick, round,
                                                        rounds_);
    }
    bus_.advance_round();
  }
  for (int r = 0; r < n; ++r) {
    if (!alive[static_cast<std::size_t>(r)]) continue;
    replicas_[static_cast<std::size_t>(r)]->end_interval(tick);
  }

  // 3. Safety scan: at most one live replica may hold a committed lease
  // covering this tick (quorum intersection makes a second one a bug).
  int leader = -1;
  for (int r = 0; r < n; ++r) {
    if (!alive[static_cast<std::size_t>(r)]) continue;
    if (!replicas_[static_cast<std::size_t>(r)]->lease_valid(tick)) continue;
    NWLB_CHECK(leader < 0, "ControlLoop: replicas ", leader, " and ", r,
               " both hold a committed lease at tick ", tick);
    leader = r;
  }
  report.leader = leader;
  for (const auto& rep : replicas_) report.elections_total += rep->elections_started();

  // 4. Epoch + fenced install, subject to the mid-window crash phase.
  if (leader >= 0) {
    Replica& lead = *replicas_[static_cast<std::size_t>(leader)];
    report.term = lead.term();
    report.replicas_heard = lead.replicas_heard();
    const int phase = crash_phase(leader, window_start, window_end);
    if (phase != 0) {  // Phase 0: died before computing the epoch.
      const traffic::TrafficMatrix tm = lead.estimator().estimate();
      report.estimate_total = tm.total();
      // The mirror-health verdicts are the live failure report.
      core::EpochRequest request;
      request.tm = &tm;
      request.max_solve_seconds = options_.epoch_max_seconds;
      request.failures.down_nodes = sim_->down_mirrors();
      report.failures_reported =
          static_cast<int>(request.failures.down_nodes.size());
      // Never throws on solver trouble; the worst case is the patched last
      // known-good plan with typed degraded reasons.
      report.epoch = controllers_[static_cast<std::size_t>(leader)]->run(request);
      report.epoch_run = true;
      if (phase != 1) {  // Phase 1: computed but died before installing.
        // Number from the gate's frontier, not the controller's counter:
        // controller counters diverge across leadership changes.
        report.epoch.bundle.generation = gate_.last_generation() + 1;
        report.rollout = gate_.admit(*sim_, leader, lead.term(),
                                     lead.lease_valid(tick), tick,
                                     report.epoch.bundle);
        report.install_attempted = true;
        // Phase 2: installed but died before advertising — the successor
        // must recover the frontier from the gate, so skip the hint.
        if (phase < 0) lead.note_generation(gate_.last_generation());
      }
    }
  }
  report.generation = gate_.last_generation();

  ++intervals_;
  record_interval(report);
  return report;
}

int ControlLoop::crash_phase(int replica, std::uint64_t window_start,
                             std::uint64_t window_end) const {
  if (options_.faults == nullptr || window_end <= window_start) return -1;
  const std::uint64_t span = window_end - window_start;
  std::uint64_t earliest = sim::FailureEvent::kNever;
  for (const sim::FailureEvent& event : options_.faults->events()) {
    if (event.kind != sim::FailureKind::kControllerCrash) continue;
    if (event.target != replica) continue;
    if (event.begin <= window_start || event.begin > window_end) continue;
    earliest = std::min(earliest, event.begin);
  }
  if (earliest == sim::FailureEvent::kNever) return -1;
  const std::uint64_t pos = earliest - window_start - 1;  // In [0, span).
  return static_cast<int>(std::min<std::uint64_t>(2, pos * 3 / span));
}

void ControlLoop::record_interval(const IntervalReport& report) {
  if (options_.metrics == nullptr) return;
  obs::Registry& reg = *options_.metrics;
  reg.counter("nwlb_online_intervals_total", {}, "Control intervals completed").inc();
  reg.counter("nwlb_online_sessions_total", {},
              "Sessions replayed under the online loop")
      .inc(report.sessions_replayed);
  if (report.install_attempted) {
    reg.counter(report.rollout.installed ? "nwlb_online_rollouts_total"
                                         : "nwlb_online_rollouts_skipped_total",
                {},
                report.rollout.installed
                    ? "Bundles installed into the data plane"
                    : "Bundles skipped as identical to the installed config")
        .inc();
    reg.gauge("nwlb_online_churn_moved_fraction", {},
              "Hash-space fraction moved by the last installed rollout")
        .set(report.rollout.churn.moved_fraction);
    reg.histogram("nwlb_online_churn",
                  {0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0}, {},
                  "Distribution of per-rollout hash-space churn")
        .observe(report.rollout.churn.moved_fraction);
  }
  if (report.epoch_run) {
    if (report.epoch.degraded)
      reg.counter("nwlb_online_degraded_epochs_total", {},
                  "Intervals whose epoch reported a degraded plan")
          .inc();
    reg.gauge("nwlb_online_estimate_total_sessions", {},
              "Estimated traffic-matrix mass fed to the last epoch")
        .set(report.estimate_total);
    reg.gauge("nwlb_online_failures_reported", {},
              "Mirror-health failures fed into the last epoch request")
        .set(static_cast<double>(report.failures_reported));
  }

  reg.counter("nwlb_dist_intervals_total", {},
              "Replicated control intervals completed")
      .inc();
  if (report.leader < 0)
    reg.counter("nwlb_dist_leaderless_intervals_total", {},
                "Intervals that ended without a committed-lease leader")
        .inc();
  if (report.install_attempted && report.rollout.installed)
    reg.counter("nwlb_dist_installs_total", {},
                "Bundles installed through the fenced gate")
        .inc();
  reg.counter("nwlb_dist_elections_total", {}, "Elections started cluster-wide")
      .inc(report.elections_total - elections_recorded_);
  elections_recorded_ = report.elections_total;
  reg.gauge("nwlb_dist_leader", {}, "Committed-lease leader id (-1 = none)")
      .set(static_cast<double>(report.leader));
  reg.gauge("nwlb_dist_term", {}, "Leader's term in the last interval")
      .set(static_cast<double>(report.term));
  reg.gauge("nwlb_dist_generation", {}, "Data-plane install frontier")
      .set(static_cast<double>(report.generation));
  reg.gauge("nwlb_dist_replicas_alive", {}, "Replicas up in the last interval")
      .set(static_cast<double>(report.replicas_alive));
  reg.gauge("nwlb_dist_replicas_heard", {},
            "Origins in the leader's converged digest")
      .set(static_cast<double>(report.replicas_heard));
  reg.gauge("nwlb_dist_partition", {}, "Active bus partition bitmask")
      .set(static_cast<double>(report.partition));
}

}  // namespace nwlb::online
