#include "dist/replicated_loop.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "util/check.h"

namespace nwlb::dist {

namespace {

/// `options`, checked before any member is built from them.
ReplicatedLoopOptions validated(const ReplicatedLoopOptions& options) {
  options.validate();
  return options;
}

}  // namespace

void ReplicatedLoopOptions::validate() const {
  if (replicas < 1 || replicas > kMaxReplicas)
    throw std::invalid_argument("ReplicatedControlLoop: replicas must be in [1, " +
                                std::to_string(kMaxReplicas) + "], got " +
                                std::to_string(replicas));
  if (consensus_rounds < 1)
    throw std::invalid_argument(
        "ReplicatedControlLoop: consensus_rounds must be >= 1, got " +
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
    std::string message = "ReplicatedControlLoop: '";
    message.append(sim::to_string(e)).append("' names replica ");
    message.append(std::to_string(replica_id)).append(", outside [0, ");
    throw std::invalid_argument(message.append(std::to_string(replicas)).append(")"));
  }
}

ReplicatedControlLoop::ReplicatedControlLoop(
    const topo::Topology& topology, const traffic::TrafficMatrix& initial_tm,
    const core::ControllerOptions& copts, sim::ReplaySimulator& sim,
    shim::ConfigBundle initial, ReplicatedLoopOptions options)
    : sim_(&sim),
      options_(validated(options)),
      rounds_(std::max(options.consensus_rounds, options.replicas + 4)),
      bus_(options.replicas, options.bus),
      gate_(std::move(initial), options.rollout),
      alive_(static_cast<std::size_t>(options.replicas), true) {
  core::ControllerOptions replica_copts = copts;
  replica_copts.metrics = nullptr;  // Telemetry is the loop's job (ctor doc).
  replicas_.reserve(static_cast<std::size_t>(options.replicas));
  for (int r = 0; r < options.replicas; ++r) {
    replicas_.push_back(std::make_unique<Replica>(
        r, options.replicas, topology, initial_tm, replica_copts,
        options.replica));
  }
  const auto& classes = replicas_.front()->controller().scenario().classes();
  class_owner_.reserve(classes.size());
  for (const traffic::TrafficClass& cls : classes)
    class_owner_.push_back(static_cast<int>(cls.ingress) % options.replicas);
}

ReplicatedIntervalReport ReplicatedControlLoop::run_interval(
    std::span<const sim::SessionSpec> sessions,
    const sim::TraceGenerator& generator) {
  const util::RoleGuard control(control_);
  ReplicatedIntervalReport report;
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
  // then the cluster runs the synchronous rounds.
  const std::vector<std::uint64_t>& win_sessions = sim_->window_class_sessions();
  const std::vector<std::uint64_t>& win_bytes = sim_->window_class_bytes();
  NWLB_CHECK_EQ(win_sessions.size(), class_owner_.size(),
                "ReplicatedControlLoop: window counter shape mismatch");
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
    NWLB_CHECK(leader < 0, "ReplicatedControlLoop: replicas ", leader, " and ",
               r, " both hold a committed lease at tick ", tick);
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
      core::EpochRequest request;
      request.tm = &tm;
      request.failures.down_nodes = sim_->down_mirrors();
      report.failures_reported =
          static_cast<int>(request.failures.down_nodes.size());
      report.epoch = lead.controller().run(request);
      report.epoch_run = true;
      if (phase != 1) {  // Phase 1: computed but died before installing.
        // Number from the gate's frontier, not the replica-local counter:
        // replica counters diverge across leadership changes.
        shim::ConfigBundle bundle = report.epoch.bundle;
        bundle.generation = gate_.last_generation() + 1;
        report.rollout = gate_.admit(*sim_, leader, lead.term(),
                                     lead.lease_valid(tick), tick,
                                     std::move(bundle));
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

int ReplicatedControlLoop::crash_phase(int replica, std::uint64_t window_start,
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

void ReplicatedControlLoop::record_interval(
    const ReplicatedIntervalReport& report) {
  if (options_.metrics == nullptr) return;
  obs::Registry& reg = *options_.metrics;
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

}  // namespace nwlb::dist
