#include "workload.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/controller.h"
#include "core/mapper.h"
#include "core/patch.h"
#include "core/validate.h"
#include "nids/node.h"
#include "nids/signature.h"
#include "online/estimator.h"
#include "online/loop.h"
#include "online/rollout.h"
#include "shim/flat_table.h"
#include "shim/hash.h"
#include "shim/stats.h"
#include "shim/tunnel.h"
#include "span_trace.h"
#include "topo/topology.h"
#include "traffic/matrix.h"
#include "traffic/selfsimilar.h"
#include "util/stats.h"

namespace nwlb::bench::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

constexpr core::Architecture kArch = core::Architecture::kPathReplicate;
// Two shard workers: at four, probe_flood read 1.78M, 2.73M and 2.82M
// sessions/s over three runs on a 4-core host; at two, 1.64M, 1.62M, 1.67M.
constexpr int kReplayWorkers = 2;
// setup_s is the median of kSetupBudgetS / (first set-up's time) set-ups,
// clamped to [kMinSetups, kMaxSetups], taken in at most kSetupBursts
// back-to-back bursts spread through the run.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 250;
constexpr int kSetupBursts = 25;
constexpr double kSetupBudgetS = 1.0;
constexpr int kKernelWindows = 20;    // Windows the isolated replays re-run.
constexpr std::size_t kKernelSessions = 4096;  // Sample for per-op kernels.
constexpr int kKernelReps = 5;        // Per-op kernels report the median rep.
constexpr int kTrafficWindows = 1024; // Self-similar windows, reused cyclically.
// Solver budgets: the cold bootstrap solve of NTT takes about 7 s, so it
// gets headroom; every interval's epoch gets the 10 s budget.
constexpr double kBootstrapLpSeconds = 60.0;
constexpr double kIntervalLpSeconds = 10.0;
constexpr std::size_t kMaxMessages = 20;

sim::TraceConfig probe_trace() {
  sim::TraceConfig t;
  t.scanners = 0;
  t.min_payload = 16;
  t.max_payload = 16;
  t.max_packets_per_direction = 1;
  return t;
}

sim::TraceConfig mix_trace(int scanners) {
  sim::TraceConfig t;
  t.scanners = scanners;
  return t;
}

// ---------------------------------------------------------------------------
// Inputs and deployments.

/// Everything a run consumes that is not set-up: topology, the provisioned
/// (gravity) matrix, and the failure schedule.
struct Inputs {
  topo::Topology topology;
  traffic::TrafficMatrix mean;
  sim::FailureSchedule failures;
};

Inputs make_inputs(const Workload& w, int sessions_per_step) {
  topo::Topology topology = topo::topology_by_name(std::string(w.topology));
  traffic::TrafficMatrix mean = traffic::gravity_matrix(
      topology.graph, traffic::paper_total_sessions(topology.graph.num_nodes()));
  Inputs in{std::move(topology), std::move(mean), {}};
  if (w.faults) {
    // In session-index space, so the schedule is the same for any sharding.
    // Both events land early enough that every timed run reaches them.  The
    // datacenter never comes back: the warm re-solve that restores it costs
    // 2-7 s depending on the seed, which would swamp a 10 s run.
    const auto n = static_cast<std::uint64_t>(sessions_per_step);
    const int datacenter = in.topology.graph.num_nodes();
    in.failures.add({.kind = sim::FailureKind::kMirrorBlackhole,
                     .target = datacenter, .begin = 4 * n});
    in.failures.add({.kind = sim::FailureKind::kNodeCrash,
                     .target = 3, .begin = 10 * n, .end = 12 * n});
  }
  return in;
}

core::ControllerOptions controller_options() {
  core::ControllerOptions o;
  o.architecture = kArch;
  o.lp.max_seconds = kBootstrapLpSeconds;
  return o;
}

sim::ReplayOptions replay_options(const Workload& w, const Inputs& in,
                                  std::uint64_t seed, int workers) {
  sim::ReplayOptions o;
  o.num_workers = workers;
  o.seed = seed;
  o.failures = in.failures.empty() ? nullptr : &in.failures;
  o.degrade = w.degrade;
  o.replication_loss = w.replication_loss;
  return o;
}

online::ControlLoopOptions loop_options(const Workload& w, const Inputs& in) {
  online::ControlLoopOptions o;
  o.estimator = std::string(w.estimator);
  o.estimator_options.scale_to_total = in.mean.total();
  o.rollout.drain_sessions = w.drain_sessions;
  o.epoch_max_seconds = kIntervalLpSeconds;
  return o;
}

/// One deployment: controller, bootstrap epoch, data plane and (for loop
/// workloads) the control loop.  Heap-held: the simulator keeps a pointer
/// to `input`.
struct Deployment {
  std::unique_ptr<core::Controller> controller;
  core::EpochResult bootstrap;
  double bootstrap_ms = 0.0;
  core::ProblemInput input;
  std::unique_ptr<sim::ReplaySimulator> sim;
  std::unique_ptr<online::ControlLoop> loop;
};

std::unique_ptr<Deployment> deploy(const Workload& w, const Inputs& in,
                                   std::uint64_t seed) {
  auto d = std::make_unique<Deployment>();
  d->controller = std::make_unique<core::Controller>(in.topology, in.mean,
                                                     controller_options());
  const Clock::time_point epoch_start = Clock::now();
  d->bootstrap = d->controller->run({.tm = &in.mean});
  d->bootstrap_ms = ms_since(epoch_start);
  d->input = d->controller->scenario().problem(kArch);
  d->sim = std::make_unique<sim::ReplaySimulator>(
      d->input, d->bootstrap.bundle, replay_options(w, in, seed, kReplayWorkers));
  if (w.kind == Kind::kLoop)
    d->loop = std::make_unique<online::ControlLoop>(
        *d->controller, *d->sim, d->bootstrap.bundle, loop_options(w, in));
  return d;
}

/// The problem an epoch solved: the controller's current traffic with the
/// reported failures applied.
core::ProblemInput epoch_input(const core::Controller& controller,
                               const std::vector<int>& down_nodes) {
  core::ProblemInput input = controller.scenario().problem(kArch);
  core::apply_failures(input, core::FailureSet{down_nodes, {}});
  return input;
}

/// Per-step session windows, generated from the seed.  Data-plane
/// workloads sample the provisioned class mix; loop workloads take each
/// window's class mix from a SelfSimilarTraffic process.  The session count
/// per step is fixed: under long-range dependence the mean volume of a few
/// dozen windows differs widely between seeds, which would make throughput
/// a property of the seed.  The estimator renormalizes volume anyway
/// (scale_to_total), so the plans see the same bursts either way.
class StepSource {
 public:
  StepSource(const Workload& w, const Inputs& in, const core::ProblemInput& input,
             std::uint64_t seed, int sessions_per_step)
      : classes_(&input.classes),
        generator_(input.classes, w.trace, seed),
        sessions_(sessions_per_step) {
    if (w.kind == Kind::kLoop) {
      traffic::SelfSimilarOptions ss;
      ss.hurst = w.hurst;
      ss.seed = seed;
      process_.emplace(in.mean, kTrafficWindows, ss);
      weights_.resize(input.classes.size());
    }
  }

  std::vector<sim::SessionSpec> next() {
    const int step = step_++;
    if (!process_) return generator_.generate(sessions_);
    const traffic::TrafficMatrix window = process_->window(step % kTrafficWindows);
    for (std::size_t c = 0; c < classes_->size(); ++c)
      weights_[c] = window.volume((*classes_)[c].ingress, (*classes_)[c].egress);
    return generator_.generate_weighted(sessions_, weights_);
  }

  const sim::TraceGenerator& generator() const { return generator_; }

 private:
  const std::vector<traffic::TrafficClass>* classes_;
  sim::TraceGenerator generator_;
  int sessions_;
  std::optional<traffic::SelfSimilarTraffic> process_;
  std::vector<double> weights_;
  int step_ = 0;
};

double payload_bytes(const std::vector<sim::SessionSpec>& sessions) {
  double bytes = 0.0;
  for (const sim::SessionSpec& s : sessions)
    bytes += static_cast<double>(s.payload_bytes) *
             static_cast<double>(s.fwd_packets + s.rev_packets);
  return bytes;
}

// ---------------------------------------------------------------------------
// Correctness gates.

class Gates {
 public:
  void fail(std::string message) {
    ok_ = false;
    if (messages_.size() < kMaxMessages) messages_.push_back(std::move(message));
  }
  bool ok() const { return ok_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  bool ok_ = true;
  std::vector<std::string> messages_;
};

/// An epoch counts as failed when the solver gave up (budget, failure,
/// back-off) or its assignment violates an invariant.  Returns "" when ok.
std::string check_epoch(const core::EpochResult& epoch, const core::ProblemInput& input) {
  for (const core::DegradedReason reason :
       {core::DegradedReason::kLpBudgetExhausted, core::DegradedReason::kLpFailed,
        core::DegradedReason::kResolveBackoff})
    if (epoch.has_reason(reason))
      return std::string("epoch degraded: ") + core::to_string(reason);
  const std::vector<std::string> violations =
      core::validate_assignment(input, epoch.assignment);
  return violations.empty() ? "" : "validate_assignment: " + violations.front();
}

/// Gates every step must pass: rollout conservation, and full coverage on
/// the fault-free workloads.  Returns "" when ok.
std::string check_replay(const Workload& w, const sim::ReplaySimulator& sim) {
  const sim::ReplayStats stats = sim.stats();
  const sim::RolloutStats rollout = sim.rollout_stats();
  if (rollout.sessions_current_generation + rollout.sessions_draining_generation !=
          stats.sessions_replayed ||
      rollout.sessions_unassigned != 0)
    return "rollout conservation violated (current " +
           std::to_string(rollout.sessions_current_generation) + " + draining " +
           std::to_string(rollout.sessions_draining_generation) + " != replayed " +
           std::to_string(stats.sessions_replayed) + ", unassigned " +
           std::to_string(rollout.sessions_unassigned) + ")";
  if (!w.faults && stats.stateful_missed != 0)
    return "coverage " + std::to_string(stats.coverage()) + " != 1";
  return "";
}

bool stats_identical(const sim::ReplayStats& a, const sim::ReplayStats& b) {
  return a.node_work == b.node_work && a.node_packets == b.node_packets &&
         a.link_replicated_bytes == b.link_replicated_bytes &&
         a.sessions_replayed == b.sessions_replayed &&
         a.packets_replayed == b.packets_replayed &&
         a.tunnel_frames_sent == b.tunnel_frames_sent &&
         a.tunnel_frames_dropped == b.tunnel_frames_dropped &&
         a.tunnel_frames_blackholed == b.tunnel_frames_blackholed &&
         a.tunnel_frames_detected_lost == b.tunnel_frames_detected_lost &&
         a.tunnel_frames_malformed == b.tunnel_frames_malformed &&
         a.crash_skipped_packets == b.crash_skipped_packets &&
         a.fail_open_packets == b.fail_open_packets &&
         a.degraded_skipped_packets == b.degraded_skipped_packets &&
         a.stateful_covered == b.stateful_covered &&
         a.stateful_missed == b.stateful_missed &&
         a.signature_matches == b.signature_matches &&
         a.decisions_process == b.decisions_process &&
         a.decisions_replicate == b.decisions_replicate &&
         a.decisions_ignore == b.decisions_ignore && a.mirror_flaps == b.mirror_flaps;
}

/// Every set-up of a run.  Host speed on a shared machine drifts over
/// seconds, so set-ups are spread over the run instead of taken in one
/// burst, whose median would read whichever phase the burst hit.  Short
/// set-ups still come in small bursts: one taken right after a replay step
/// starts with cold caches, which made the data-plane set-up median about
/// 15% slower and more variable between runs.
struct Setups {
  int planned = 1;
  std::vector<double> seconds;
  // Each set-up's bootstrap epoch: the data-plane workloads run no loop,
  // so these are their LP and epoch samples.
  std::vector<double> solve_ms, epoch_ms, iterations;
};

std::unique_ptr<Deployment> timed_deploy(const Workload& w, const Inputs& in,
                                         std::uint64_t seed, Setups& setups,
                                         SpanRecorder& rec, Gates& gates) {
  const int span = rec.begin("setup", -1);
  std::unique_ptr<Deployment> d = deploy(w, in, seed);
  setups.seconds.push_back(rec.end(span) * 1e-3);
  setups.solve_ms.push_back(d->bootstrap.solve_seconds * 1e3);
  setups.epoch_ms.push_back(d->bootstrap_ms);
  setups.iterations.push_back(d->bootstrap.iterations);
  const std::string problem = check_epoch(d->bootstrap, d->input);
  if (!problem.empty()) gates.fail("bootstrap: " + problem);
  return d;
}

// ---------------------------------------------------------------------------
// The timed loop (tracing off).

/// What one loop interval decided; the traced hand-made loop must match it.
struct Interval {
  std::uint64_t generation = 0;
  bool installed = false;
  double churn = 0.0;
  double load_cost = 0.0;
};

struct TimedLoop {
  std::vector<double> step_ms;
  std::vector<Interval> intervals;  // Loop workloads only.
  double sessions = 0.0;
  double payload_bytes = 0.0;
  double gen_ms = 0.0;
  double gen_sessions = 0.0;
  int failed = 0;
};

/// Runs the timed steps.  `after_step(step, loop, progress)` runs after
/// each step, with progress through the run in (0, 1]; its time is not
/// loop time.
TimedLoop run_timed(const Workload& w, const Inputs& in, const RunOptions& options,
                    int sessions_per_step, Deployment& d, Gates& gates,
                    const std::function<void(int, const TimedLoop&, double)>& after_step) {
  TimedLoop out;
  StepSource source(w, in, d.input, options.seed, sessions_per_step);
  const Clock::time_point loop_start = Clock::now();
  double paused_ms = 0.0;
  for (int step = 0; step < options.max_steps; ++step) {
    if (options.seconds > 0.0 && ms_since(loop_start) - paused_ms >= options.seconds * 1e3)
      break;
    const Clock::time_point gen_start = Clock::now();
    const std::vector<sim::SessionSpec> sessions = source.next();
    out.gen_ms += ms_since(gen_start);
    out.gen_sessions += static_cast<double>(sessions.size());

    std::string problem;
    std::optional<online::IntervalReport> report;
    const Clock::time_point step_start = Clock::now();
    try {
      if (d.loop)
        report = d.loop->run_interval(sessions, source.generator());
      else
        d.sim->replay(sessions, source.generator());
    } catch (const std::exception& e) {
      problem = std::string("step threw: ") + e.what();
    }
    out.step_ms.push_back(ms_since(step_start));
    out.sessions += static_cast<double>(sessions.size());
    out.payload_bytes += payload_bytes(sessions);

    if (problem.empty()) problem = check_replay(w, *d.sim);
    if (report) {
      out.intervals.push_back({report->rollout.generation, report->rollout.installed,
                               report->rollout.churn.moved_fraction,
                               report->epoch.assignment.load_cost});
      // Mirror health only moves inside replay(), so down_mirrors() now is
      // the failure set the interval's epoch was given.
      if (problem.empty())
        problem = check_epoch(report->epoch,
                              epoch_input(*d.controller, d.sim->down_mirrors()));
    }
    if (!problem.empty()) {
      ++out.failed;
      gates.fail("step " + std::to_string(step) + ": " + problem);
    }

    const double progress =
        options.seconds > 0.0
            ? (ms_since(loop_start) - paused_ms) / (options.seconds * 1e3)
            : static_cast<double>(step + 1) / options.max_steps;
    const Clock::time_point pause_start = Clock::now();
    after_step(step, out, progress);
    paused_ms += ms_since(pause_start);
  }
  return out;
}

// ---------------------------------------------------------------------------
// The traced run: each timed step again, right after it (so both see the same
// host conditions), on a second deployment with a span around every layer
// call.

struct TracedLoop {
  std::vector<double> step_ms;
  std::vector<double> replay_ms;
  std::vector<double> solve_ms, epoch_ms, nonsolve_ms, iterations;
  std::vector<double> build_bundle_ms, install_ms;
  int epochs = 0, warm = 0, delta = 0, degraded = 0, patched = 0;
  int failed = 0;
  double step_span_coverage_min = 1.0;  // min over steps of children / step.
};

/// Compiles every PoP's flat decide table for `bundle`: the work a shim
/// install does for a changed config.
double compile_bundle_ms(const shim::ConfigBundle& bundle, std::uint64_t& sink) {
  const Clock::time_point start = Clock::now();
  for (const shim::ShimConfig& config : bundle.configs)
    sink += shim::FlatConfig(config).num_segments();
  return ms_since(start);
}

double build_bundle_ms(const core::ProblemInput& input, const core::Assignment& assignment,
                       std::uint64_t& sink) {
  const Clock::time_point start = Clock::now();
  sink += core::build_bundle(input, assignment).configs.size();
  return ms_since(start);
}

/// Loop workloads run a hand-made loop: the calls ControlLoop::run_interval
/// makes, in its order and with its options, which must reach the same
/// decisions as the timed ControlLoop.
class TracedRun {
 public:
  TracedRun(const Workload& w, const Inputs& in, const RunOptions& options,
            int sessions_per_step, Deployment& d, SpanRecorder& rec, Gates& gates,
            std::uint64_t& sink)
      : w_(w),
        d_(d),
        rec_(rec),
        gates_(gates),
        sink_(sink),
        source_(w, in, d.input, options.seed, sessions_per_step),
        options_(loop_options(w, in)) {
    if (w.kind == Kind::kLoop) {
      estimator_ = online::make_estimator(
          options_.estimator, d.controller->scenario().classes(),
          d.controller->scenario().routing().graph().num_nodes(),
          options_.estimator_options);
      rollout_.emplace(d.bootstrap.bundle, options_.rollout);
    }
  }

  /// Traces step `step`; `expected` is the timed loop's interval (loop
  /// workloads only).
  void step(int step, const Interval* expected);

  const TracedLoop& result() const { return out_; }

 private:
  const Workload& w_;
  Deployment& d_;
  SpanRecorder& rec_;
  Gates& gates_;
  std::uint64_t& sink_;
  StepSource source_;
  online::ControlLoopOptions options_;
  std::unique_ptr<online::Estimator> estimator_;
  std::optional<online::RolloutEngine> rollout_;
  TracedLoop out_;
};

void TracedRun::step(int step, const Interval* expected) {
  const int gen = rec_.begin("traffic.generate", step);
  const std::vector<sim::SessionSpec> sessions = source_.next();
  rec_.end(gen);

  std::string problem;
  core::EpochResult epoch;
  online::RolloutReport report;
  std::vector<int> down;
  const int step_span = rec_.begin("step", step);
  double children_ms = 0.0;
  try {
    const int replay = rec_.begin("sim.replay", step);
    d_.sim->replay(sessions, source_.generator());
    out_.replay_ms.push_back(rec_.end(replay));
    children_ms += out_.replay_ms.back();
    if (estimator_) {
      const int estimate = rec_.begin("online.estimate", step);
      estimator_->observe(d_.sim->window_class_sessions(), d_.sim->window_class_bytes());
      const traffic::TrafficMatrix tm = estimator_->estimate();
      children_ms += rec_.end(estimate);
      core::EpochRequest request;
      request.tm = &tm;
      request.max_solve_seconds = options_.epoch_max_seconds;
      request.objective_tolerance = options_.epoch_objective_tolerance;
      down = d_.sim->down_mirrors();
      request.failures.down_nodes = down;
      const int epoch_span = rec_.begin("core.epoch", step);
      epoch = d_.controller->run(request);
      out_.epoch_ms.push_back(rec_.end(epoch_span));
      children_ms += out_.epoch_ms.back();
      const int rollout_span = rec_.begin("online.rollout", step);
      report = rollout_->apply(*d_.sim, epoch.bundle);
      children_ms += rec_.end(rollout_span);
    }
  } catch (const std::exception& e) {
    problem = std::string("traced step threw: ") + e.what();
  }
  out_.step_ms.push_back(rec_.end(step_span));
  out_.step_span_coverage_min =
      std::min(out_.step_span_coverage_min, children_ms / out_.step_ms.back());

  if (problem.empty()) problem = check_replay(w_, *d_.sim);
  if (estimator_ && problem.empty()) {
    const double solve = epoch.solve_seconds * 1e3;
    out_.solve_ms.push_back(solve);
    out_.nonsolve_ms.push_back(out_.epoch_ms.back() - solve);
    out_.iterations.push_back(epoch.iterations);
    ++out_.epochs;
    out_.warm += epoch.warm_started ? 1 : 0;
    out_.delta += epoch.delta_resolve ? 1 : 0;
    out_.degraded += epoch.degraded ? 1 : 0;
    out_.patched += epoch.patched ? 1 : 0;
    if (expected == nullptr || report.generation != expected->generation ||
        report.installed != expected->installed ||
        report.churn.moved_fraction != expected->churn)
      problem = "hand-made loop diverged from ControlLoop at generation " +
                std::to_string(report.generation);
    const core::ProblemInput input = epoch_input(*d_.controller, down);
    if (problem.empty()) problem = check_epoch(epoch, input);
    // Isolated kernels on this epoch's own plan, outside the step span.
    const int kernel = rec_.begin("kernel.build_bundle", step);
    out_.build_bundle_ms.push_back(build_bundle_ms(input, epoch.assignment, sink_));
    rec_.end(kernel);
    const int install = rec_.begin("kernel.shim_install", step);
    out_.install_ms.push_back(compile_bundle_ms(epoch.bundle, sink_));
    rec_.end(install);
  }
  if (!problem.empty()) {
    ++out_.failed;
    gates_.fail("traced step " + std::to_string(step) + ": " + problem);
  }
}

// ---------------------------------------------------------------------------
// Isolated kernels, on the workload's own inputs.

template <typename Body>
double median_rep_ns(Body body) {
  std::vector<double> reps;
  for (int r = 0; r < kKernelReps; ++r) {
    const Clock::time_point start = Clock::now();
    body();
    reps.push_back(ms_since(start) * 1e6);
  }
  return util::median(reps);
}

struct Kernels {
  bool workers_identical = false;  // 1- and 2-worker ReplayStats match.
  double parallel_efficiency = 0.0;
  double overhead_frac = 0.0;
  double packet_into_ns = 0.0;   // Per packet.
  double scan_ns_per_byte = 0.0;
  double tunnel_ns = 0.0;        // Per frame, encapsulate + decapsulate.
  double decide_ns = 0.0;        // Per (session direction, on-path shim).
  double process_ns = 0.0;       // Per packet, full NIDS analysis.
  // Data-plane workloads only: the loop workloads time these per epoch.
  std::vector<double> estimate_ms, rollout_ms, build_bundle_ms, install_ms;
};

Kernels run_kernels(const Workload& w, const Inputs& in, const RunOptions& options,
                    int sessions_per_step, int steps, const Deployment& d,
                    SpanRecorder& rec, std::uint64_t& sink) {
  Kernels k;
  const int windows_n = std::min(kKernelWindows, steps);
  StepSource source(w, in, d.input, options.seed, sessions_per_step);
  std::vector<std::vector<sim::SessionSpec>> windows;
  for (int i = 0; i < windows_n; ++i) windows.push_back(source.next());
  const sim::TraceGenerator& generator = source.generator();

  // Parallel efficiency and the 1-vs-2-worker identity gate.
  sim::ReplaySimulator one(d.input, d.bootstrap.bundle,
                           replay_options(w, in, options.seed, 1));
  sim::ReplaySimulator two(d.input, d.bootstrap.bundle,
                           replay_options(w, in, options.seed, kReplayWorkers));
  std::vector<std::vector<std::uint64_t>> class_sessions, class_bytes;
  double t1_ms = 0.0, t2_ms = 0.0;
  for (const std::vector<sim::SessionSpec>& window : windows) {
    const int span1 = rec.begin("kernel.replay_1_worker", -1);
    one.replay(window, generator);
    t1_ms += rec.end(span1);
    class_sessions.push_back(one.window_class_sessions());
    class_bytes.push_back(one.window_class_bytes());
    const int span2 = rec.begin("kernel.replay_2_workers", -1);
    two.replay(window, generator);
    t2_ms += rec.end(span2);
  }
  k.parallel_efficiency = t1_ms / (kReplayWorkers * t2_ms);
  const sim::ReplayStats stats = one.stats();
  k.workers_identical = stats_identical(stats, two.stats());

  // Per-op kernels on a sample of the first window.
  const std::vector<sim::SessionSpec>& first = windows.front();
  const std::size_t sample_n = std::min(kKernelSessions, first.size());
  std::vector<nids::Packet> packets;
  std::size_t max_payload = 0;
  double sample_bytes = 0.0;
  for (std::size_t i = 0; i < sample_n; ++i) {
    const sim::SessionSpec& s = first[i];
    max_payload = std::max(max_payload, static_cast<std::size_t>(s.payload_bytes));
    for (int p = 0; p < s.fwd_packets; ++p)
      packets.push_back(generator.make_packet(s, p, nids::Direction::kForward));
    for (int p = 0; p < s.rev_packets; ++p)
      packets.push_back(generator.make_packet(s, p, nids::Direction::kReverse));
  }
  for (const nids::Packet& p : packets) sample_bytes += static_cast<double>(p.payload.size());
  const auto num_packets = static_cast<double>(packets.size());

  int span = rec.begin("kernel.packet_into", -1);
  std::vector<char> payload(std::max<std::size_t>(max_payload, 1));
  k.packet_into_ns = median_rep_ns([&] {
    for (std::size_t i = 0; i < sample_n; ++i) {
      const sim::SessionSpec& s = first[i];
      for (int p = 0; p < s.fwd_packets; ++p)
        sink += generator.packet_into(s, p, nids::Direction::kForward, payload).payload.size();
      for (int p = 0; p < s.rev_packets; ++p)
        sink += generator.packet_into(s, p, nids::Direction::kReverse, payload).payload.size();
    }
  }) / num_packets;
  rec.end(span);

  const auto engine = std::make_shared<const nids::SignatureEngine>(
      nids::SignatureEngine::default_rules());
  span = rec.begin("kernel.signature_scan", -1);
  k.scan_ns_per_byte = median_rep_ns([&] {
    for (const nids::Packet& p : packets) sink += engine->count_matches(p.payload);
  }) / sample_bytes;
  rec.end(span);

  span = rec.begin("kernel.nids_process", -1);
  k.process_ns = median_rep_ns([&] {
    nids::NidsNode node("kernel", engine);
    node.reserve(sample_n);
    for (const nids::Packet& p : packets) sink += node.process(p);
  }) / num_packets;
  rec.end(span);

  span = rec.begin("kernel.tunnel", -1);
  std::vector<std::byte> frame(shim::TunnelSender::wire_size(max_payload));
  k.tunnel_ns = median_rep_ns([&] {
    shim::TunnelSender sender(0, 1);
    shim::TunnelReceiver receiver(1);
    for (const nids::Packet& p : packets) {
      const std::size_t bytes = sender.encapsulate_into(nids::PacketView(p), frame);
      if (const auto view = receiver.try_decapsulate_view(
              std::span<const std::byte>(frame.data(), bytes)))
        sink += view->payload.size();
    }
  }) / num_packets;
  rec.end(span);

  // Decide: one canonical hash and one table probe per on-path shim per
  // session direction, as the replay does.
  double decides = 0.0;
  const auto count_decides = [&](const sim::SessionSpec& s) {
    const traffic::TrafficClass& cls = d.input.classes[static_cast<std::size_t>(s.class_index)];
    return (s.fwd_packets > 0 ? cls.fwd_path.size() : 0) +
           (s.rev_packets > 0 ? cls.rev_path.size() : 0);
  };
  for (std::size_t i = 0; i < sample_n; ++i) decides += static_cast<double>(count_decides(first[i]));
  span = rec.begin("kernel.decide", -1);
  k.decide_ns = median_rep_ns([&] {
    std::vector<shim::ShimStats> shim_stats(static_cast<std::size_t>(d.input.num_pops()));
    for (std::size_t i = 0; i < sample_n; ++i) {
      const sim::SessionSpec& s = first[i];
      const traffic::TrafficClass& cls = d.input.classes[static_cast<std::size_t>(s.class_index)];
      for (const nids::Direction dir : {nids::Direction::kForward, nids::Direction::kReverse}) {
        const bool fwd = dir == nids::Direction::kForward;
        const int count = fwd ? s.fwd_packets : s.rev_packets;
        if (count <= 0) continue;
        const std::uint32_t hash = shim::hash_tuple(fwd ? s.tuple : s.tuple.reversed());
        for (const topo::NodeId j : fwd ? cls.fwd_path : cls.rev_path)
          sink += static_cast<std::uint64_t>(
              one.shim(j)
                  .decide_hashed_repeat(s.class_index, dir, hash,
                                        static_cast<std::uint64_t>(count),
                                        shim_stats[static_cast<std::size_t>(j)])
                  .kind);
      }
    }
  }) / decides;
  rec.end(span);

  // Overhead: the share of 1-worker replay time the per-op kernels do not
  // explain (shard setup, merge, coordination, allocation).
  double all_decides = 0.0;
  for (const auto& window : windows)
    for (const sim::SessionSpec& s : window) all_decides += static_cast<double>(count_decides(s));
  double node_packets = 0.0;
  for (const std::uint64_t n : stats.node_packets) node_packets += static_cast<double>(n);
  const double kernel_ns = k.decide_ns * all_decides +
                           k.packet_into_ns * static_cast<double>(stats.packets_replayed) +
                           k.process_ns * node_packets +
                           k.tunnel_ns * static_cast<double>(stats.tunnel_frames_sent);
  k.overhead_frac = 1.0 - kernel_ns / (t1_ms * 1e6);

  if (w.kind == Kind::kDataPlane) {
    // No loop runs here, so the estimator, the rollout engine, the mapper
    // and the shim compile run as kernels on this workload's window
    // counters and bootstrap plan.
    online::EstimatorOptions eopts;
    eopts.scale_to_total = in.mean.total();
    const auto estimator = online::make_estimator(
        "ewma", d.input.classes, d.input.num_pops(), eopts);
    for (std::size_t i = 0; i < class_sessions.size(); ++i) {
      const int est = rec.begin("kernel.estimate", -1);
      estimator->observe(class_sessions[i], class_bytes[i]);
      sink += static_cast<std::uint64_t>(estimator->estimate().total());
      k.estimate_ms.push_back(rec.end(est));
    }
    online::RolloutEngine engine_rollout(d.bootstrap.bundle);
    shim::ConfigBundle next = d.bootstrap.bundle;
    for (int r = 0; r < kKernelReps; ++r) {
      ++next.generation;
      const int roll = rec.begin("kernel.rollout", -1);
      sink += engine_rollout.apply(one, next).installed ? 1 : 0;
      k.rollout_ms.push_back(rec.end(roll));
      k.build_bundle_ms.push_back(build_bundle_ms(d.input, d.bootstrap.assignment, sink));
      k.install_ms.push_back(compile_bundle_ms(d.bootstrap.bundle, sink));
    }
  }
  return k;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

double quantile(const std::vector<double>& xs, double p) {
  return util::quantile_or(xs, p, 0.0);
}

double max_or_zero(const std::vector<double>& xs) {
  return xs.empty() ? 0.0 : util::max_of(xs);
}

std::vector<Metric> layer_metrics(const Workload& w, const Setups& setups,
                                  const TimedLoop& timed, const TracedLoop& tl,
                                  const Kernels& k, const sim::ReplayStats& traced_stats,
                                  const SpanRecorder& rec) {
  const bool loop = w.kind == Kind::kLoop;
  const std::vector<double>& build_ms = loop ? tl.build_bundle_ms : k.build_bundle_ms;
  const std::vector<double>& install_ms = loop ? tl.install_ms : k.install_ms;
  std::vector<double> nonsolve = tl.nonsolve_ms;
  if (!loop)
    for (std::size_t i = 0; i < setups.epoch_ms.size(); ++i)
      nonsolve.push_back(setups.epoch_ms[i] - setups.solve_ms[i]);
  const std::vector<double>& solve = loop ? tl.solve_ms : setups.solve_ms;
  const std::vector<double>& epoch_ms = loop ? tl.epoch_ms : setups.epoch_ms;
  const std::vector<double>& iterations = loop ? tl.iterations : setups.iterations;
  const double epochs = static_cast<double>(loop ? tl.epochs : setups.epoch_ms.size());
  const std::vector<double> estimate_ms =
      loop ? rec.durations_ms("online.estimate") : k.estimate_ms;
  const std::vector<double> rollout_ms =
      loop ? rec.durations_ms("online.rollout") : k.rollout_ms;
  const double work_mean = util::mean(traced_stats.node_work);

  return {
      {"sim.replay_ms_p50", quantile(tl.replay_ms, 0.5), "ms"},
      {"sim.replay_share", util::sum(tl.replay_ms) / util::sum(tl.step_ms), "ratio"},
      {"sim.parallel_efficiency", k.parallel_efficiency, "ratio"},
      {"sim.overhead_frac", k.overhead_frac, "ratio"},
      {"sim.packet_into_ns_per_pkt", k.packet_into_ns, "ns/pkt"},
      {"nids.scan_ns_per_byte", k.scan_ns_per_byte, "ns/B"},
      {"shim.tunnel_ns_per_frame", k.tunnel_ns, "ns/frame"},
      {"shim.decide_ns", k.decide_ns, "ns"},
      {"nids.process_ns_per_pkt", k.process_ns, "ns/pkt"},
      {"lp.solve_ms_p50", quantile(solve, 0.5), "ms"},
      {"lp.solve_ms_p80", quantile(solve, 0.8), "ms"},
      {"lp.iters_mean", util::mean(iterations), "count"},
      {"lp.iters_max", max_or_zero(iterations), "count"},
      {"lp.bootstrap_solve_s", util::median(setups.solve_ms) * 1e-3, "s"},
      {"core.epoch_ms_p50", quantile(epoch_ms, 0.5), "ms"},
      {"core.nonsolve_ms_p50", quantile(nonsolve, 0.5), "ms"},
      {"core.build_bundle_ms_p50", quantile(build_ms, 0.5), "ms"},
      {"core.epochs", epochs, "count"},
      {"core.warm_frac", loop && tl.epochs > 0 ? tl.warm / epochs : 0.0, "ratio"},
      {"core.delta_frac", loop && tl.epochs > 0 ? tl.delta / epochs : 0.0, "ratio"},
      {"core.degraded_epochs", static_cast<double>(tl.degraded), "count"},
      {"core.patched_epochs", static_cast<double>(tl.patched), "count"},
      {"online.rollout_ms_p50", quantile(rollout_ms, 0.5), "ms"},
      {"shim.install_ms", quantile(install_ms, 0.5), "ms"},
      {"online.estimate_ms_p50", quantile(estimate_ms, 0.5), "ms"},
      {"sim.frames_sent", static_cast<double>(traced_stats.tunnel_frames_sent), "count"},
      {"sim.frame_loss_ratio", traced_stats.tunnel_drop_rate(), "ratio"},
      {"sim.work_max_over_mean",
       work_mean > 0.0 ? util::max_of(traced_stats.node_work) / work_mean : 0.0, "ratio"},
      {"traffic.gen_ns_per_session", timed.gen_ms * 1e6 / timed.gen_sessions, "ns"},
      {"trace.overhead_frac",
       quantile(tl.step_ms, 0.5) / quantile(timed.step_ms, 0.5) - 1.0, "ratio"},
  };
}

}  // namespace

std::span<const Workload> workloads() {
  static const std::vector<Workload> all = {
      {.name = "probe_flood", .topology = "Internet2", .kind = Kind::kDataPlane,
       .sessions_per_step = 50000, .trace = probe_trace()},
      {.name = "payload_mix", .topology = "Internet2", .kind = Kind::kDataPlane,
       .sessions_per_step = 5000, .trace = mix_trace(6)},
      {.name = "ntt_loop", .topology = "NTT", .kind = Kind::kLoop,
       .sessions_per_step = 2000, .trace = mix_trace(0), .estimator = "ewma",
       .hurst = 0.8},
      {.name = "faults_sprint", .topology = "Sprint", .kind = Kind::kLoop,
       .sessions_per_step = 20000, .trace = mix_trace(0), .estimator = "var-ewma",
       .hurst = 0.9, .drain_sessions = 2000, .replication_loss = 0.01,
       .degrade = sim::DegradePolicy::kFailOpen, .faults = true},
  };
  return all;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

Result run_workload(const Workload& w, const RunOptions& options) {
  const bool traced = !options.trace_path.empty();
  const int sessions_per_step =
      options.smoke ? std::max(1, w.sessions_per_step / 10) : w.sessions_per_step;
  const Inputs in = make_inputs(w, sessions_per_step);
  Gates gates;
  SpanRecorder rec;
  Result result;

  // setup_s is the median of several set-ups: the first deploys the timed
  // loop, the second (when traced) the traced run, and the rest are spread
  // evenly through the timed loop in bursts and thrown away.
  Setups setups;
  const std::unique_ptr<Deployment> main_ptr =
      timed_deploy(w, in, options.seed, setups, rec, gates);
  Deployment& main = *main_ptr;
  std::unique_ptr<Deployment> second;
  std::optional<TracedRun> traced_run;
  if (traced) {
    second = timed_deploy(w, in, options.seed, setups, rec, gates);
    traced_run.emplace(w, in, options, sessions_per_step, *second, rec, gates,
                       result.checksum);
  }
  if (!options.smoke)
    setups.planned = std::clamp(static_cast<int>(kSetupBudgetS / setups.seconds.front()),
                                kMinSetups, kMaxSetups);
  const int burst = std::max(1, setups.planned / kSetupBursts);
  const auto taken = [&] { return static_cast<int>(setups.seconds.size()); };
  const auto after_step = [&](int step, const TimedLoop& loop, double progress) {
    if (traced_run)
      traced_run->step(step, loop.intervals.empty() ? nullptr : &loop.intervals.back());
    while (taken() < setups.planned && progress * setups.planned >= taken())
      for (int i = 0; i < burst && taken() < setups.planned; ++i)
        timed_deploy(w, in, options.seed, setups, rec, gates);
  };
  const TimedLoop timed =
      run_timed(w, in, options, sessions_per_step, main, gates, after_step);
  while (taken() < setups.planned) timed_deploy(w, in, options.seed, setups, rec, gates);
  result.steps = static_cast<int>(timed.step_ms.size());
  result.attempted = result.steps;
  result.failed = timed.failed;

  const double timed_s = util::sum(timed.step_ms) * 1e-3;
  double plan_load_cost = main.bootstrap.assignment.load_cost;
  double churn_mean = 0.0;
  if (!timed.intervals.empty()) {
    std::vector<double> load, churn;
    for (const Interval& i : timed.intervals) {
      load.push_back(i.load_cost);
      churn.push_back(i.churn);
    }
    plan_load_cost = util::mean(load);
    churn_mean = util::mean(churn);
  }
  const sim::ReplayStats final_stats = main.sim->stats();
  result.end_to_end = {
      {"setup_s", util::median(setups.seconds), "s"},
      {"sessions_per_s", timed.sessions / timed_s, "sessions/s"},
      {"payload_mb_per_s", timed.payload_bytes / timed_s * 1e-6, "MB/s"},
      // p80, not p90: a 15 s run of a loop workload times about 50 steps,
      // and p80 is the highest percentile with ten samples beyond it.
      {"step_p80_ms", quantile(timed.step_ms, 0.8), "ms"},
      {"plan_load_cost", plan_load_cost, "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };

  if (traced) {
    // Two whole-run identity checks: traced vs timed final stats, and 1 vs
    // 2 replay workers.
    const TracedLoop& tl = traced_run->result();
    const sim::ReplayStats traced_stats = second->sim->stats();
    const Kernels k = run_kernels(w, in, options, sessions_per_step, result.steps, main,
                                  rec, result.checksum);
    result.attempted += result.steps + 2;
    result.failed += tl.failed;
    if (!stats_identical(traced_stats, final_stats)) {
      ++result.failed;
      gates.fail("traced run's final ReplayStats differ from the timed run's");
    }
    if (!k.workers_identical) {
      ++result.failed;
      gates.fail("ReplayStats differ between 1 and 2 replay workers");
    }
    result.layers = layer_metrics(w, setups, timed, tl, k, traced_stats, rec);
    result.spans = rec.summarize();
    result.step_span_coverage_min = tl.step_span_coverage_min;
    if (!rec.write_chrome_trace(options.trace_path))
      gates.fail("cannot write trace to " + options.trace_path);
  }

  result.info = {
      {"step_p50_ms", quantile(timed.step_ms, 0.5), "ms"},
      {"miss_rate", final_stats.miss_rate(), "ratio"},
      {"churn_mean", churn_mean, "ratio"},
      {"failed_ops_frac",
       static_cast<double>(result.failed) / std::max(result.attempted, 1), "ratio"},
  };
  result.correct = gates.ok() && result.failed == 0;
  result.failures = gates.messages();
  return result;
}

}  // namespace nwlb::bench::e2e
