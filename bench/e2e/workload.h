// The nwlb_e2e workloads and the measurement of one workload run.
//
// Every workload is a closed loop driven by one caller thread: the next step
// starts when the previous one returns.  A step is one
// ReplaySimulator::replay call (data-plane workloads) or one
// online::ControlLoop::run_interval call (loop workloads).  Replay runs with
// two shard workers and everything else runs on the caller thread, so at
// most three threads are runnable at once; the pools of other deployments
// (set-up samples, the traced run) sit idle.  Session traces are generated
// outside the timed region, from --seed.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/replay.h"
#include "sim/trace.h"
#include "span_trace.h"

namespace nwlb::bench::e2e {

enum class Kind { kDataPlane, kLoop };

struct Workload {
  std::string_view name;
  std::string_view topology;
  Kind kind = Kind::kDataPlane;
  int sessions_per_step = 0;  // Sessions replayed per step.
  sim::TraceConfig trace;

  // Loop workloads only.
  std::string_view estimator;  // online::make_estimator spec.
  double hurst = 0.8;          // SelfSimilarTraffic burst memory.
  std::uint64_t drain_sessions = 0;
  double replication_loss = 0.0;
  sim::DegradePolicy degrade = sim::DegradePolicy::kFailClosed;
  bool faults = false;  // Blackhole the DC mirror, then crash PoP 3.
};

/// The four workloads, in the order `--workload=all` runs them.
std::span<const Workload> workloads();
const Workload* find_workload(std::string_view name);

struct RunOptions {
  std::uint64_t seed = 1;
  int max_steps = 120;
  /// When > 0, the timed loop also stops once this much wall time has
  /// passed (checked before each step).
  double seconds = 0.0;
  /// 6 steps, a tenth of the sessions, one set-up: a quick full pass.
  bool smoke = false;
  /// Chrome trace-event output; non-empty turns on the traced run.
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  int steps = 0;      // Timed steps: the sample count behind every percentile.
  int attempted = 0;  // Timed steps, plus traced steps and checks when traced.
  int failed = 0;
  std::vector<std::string> failures;  // Gate messages (capped).
  std::vector<Metric> end_to_end;
  std::vector<Metric> info;  // Reported but not bounded; see README.md.

  // Traced run only.
  std::vector<Metric> layers;
  std::vector<SpanSummary> spans;
  /// Lowest share of a traced step's time covered by its child spans.
  double step_span_coverage_min = 0.0;
  std::uint64_t checksum = 0;  // Folded kernel results (keeps them live).
};

Result run_workload(const Workload& workload, const RunOptions& options);

}  // namespace nwlb::bench::e2e
