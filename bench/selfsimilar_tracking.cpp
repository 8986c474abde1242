// Estimator tracking under self-similar (long-range-dependent) traffic
// (DESIGN.md §15).
//
// The question this bench answers: when traffic windows are bursty and
// the bursts have memory (Hurst > 0.5), which estimator should drive the
// control loop?  For each Hurst level a seeded SelfSimilarTraffic process
// (per-ingress fGn multipliers on the Internet2 gravity matrix) generates
// the true per-window matrices.  Every estimator arm sees only synthetic
// per-class counters from the true matrix, feeds its estimate to its own
// warm-started controller, and the resulting plan is then *evaluated
// against the truth*: the live assignment's fractions are re-costed under
// the true window matrix (core::refresh_metrics) and compared with an
// oracle controller that solves the true matrix directly.
//
// Plans are priced deploy-then-observe: the assignment installed after
// window w is what serves window w+1, so it is costed against w+1's truth
// (same-window evaluation would erase the whole point of forecasting).
//
//   gap   = live max load / oracle max load − 1, per evaluated window;
//           reported as the mean and as the mean of the worst decile
//           ("tail gap") — headroom is insurance, and insurance is priced
//           on the windows where the fabric actually drops sessions;
//   churn = mean hash-space fraction moved per epoch — how much rollout
//           disruption the estimator's jitter causes.
//
// Under NWLB_BENCH_ENFORCE=1 the burst-aware var-ewma must strictly beat
// plain ewma on the tail oracle gap at Hurst 0.8 and 0.9 (bursty regimes)
// while keeping its churn at Hurst 0.5 (smooth regime) within +10% of
// ewma's — headroom has to pay for itself without thrashing the data
// plane.  Every cell averages over several fGn seeds and all inputs are
// seeded, so the gate is deterministic.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/assignment.h"
#include "core/controller.h"
#include "core/scenario.h"
#include "online/estimator.h"
#include "shim/bundle.h"
#include "traffic/matrix.h"
#include "traffic/selfsimilar.h"

namespace {

using namespace nwlb;

// Synthetic counter scale: sessions_c = volume_c * kCountScale, so the
// 8M-session Internet2 matrix yields a few thousand counter events per
// window — the same order the replay data plane produces.
constexpr double kCountScale = 1e-3;
constexpr double kBytesPerSession = 600.0;
// A fresh plan must beat the incumbent by this much (under the arm's own
// estimate) before it is installed — see the install policy comment below.
constexpr double kReplanTol = 0.05;

struct ArmStats {
  std::vector<double> gaps;  // Per evaluated window: live/oracle − 1.
  double churn_sum = 0.0;
  double err_sum = 0.0;
  int churn_windows = 0;
  double mean_gap() const {
    if (gaps.empty()) return 0.0;
    double sum = 0.0;
    for (const double g : gaps) sum += g;
    return sum / static_cast<double>(gaps.size());
  }
  // Mean of the worst decile of windows: burst headroom is insurance, and
  // insurance is priced on the tail — the windows where the analysis
  // fabric actually drops sessions — not on the average.
  double tail_gap() const {
    if (gaps.empty()) return 0.0;
    std::vector<double> sorted = gaps;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t tail =
        std::max<std::size_t>(1, sorted.size() / 10);
    double sum = 0.0;
    for (std::size_t i = sorted.size() - tail; i < sorted.size(); ++i)
      sum += sorted[i];
    return sum / static_cast<double>(tail);
  }
  double mean_churn() const {
    return churn_windows > 0 ? churn_sum / churn_windows : 0.0;
  }
  double mean_err() const {
    return gaps.empty() ? 0.0
                        : err_sum / static_cast<double>(gaps.size());
  }
};

}  // namespace

int main() {
  const bool fast = util::env_flag("NWLB_FAST");
  // The window count is the same in fast mode — with fewer windows the
  // flash span dominates the evaluated range and the tail statistic
  // degenerates; fast mode trims seeds and Hurst levels instead.
  const int windows = 36;
  // Windows before gap/churn stats start counting: long enough that every
  // arm's level, variance, and headroom steps have settled, so the stats
  // measure steady-state tracking rather than cold-start transients.
  const int warmup = 6;
  const std::vector<double> hursts =
      fast ? std::vector<double>{0.5, 0.8, 0.9}
           : std::vector<double>{0.5, 0.65, 0.8, 0.9};
  const std::vector<std::string> arms = {"ewma", "var-ewma"};
  const topo::Topology topology = topo::topology_by_name("Internet2");

  bench::print_header(
      "Self-similar tracking: estimator arms vs the oracle under fGn bursts",
      "topology=" + topology.name + "  windows=" + std::to_string(windows) +
          " (warmup " + std::to_string(warmup) + ")  hurst={0.5..0.9}  arms=" +
          "ewma|var-ewma  eval=refresh_metrics under true matrix");

  const auto tm = traffic::gravity_matrix(
      topology.graph, traffic::paper_total_sessions(topology.graph.num_nodes()));
  core::ControllerOptions copts;
  copts.architecture = core::Architecture::kPathReplicate;
  copts.lp.max_seconds = 10.0;

  online::EstimatorOptions defaults;
  defaults.window = 6;
  // Slow second-moment window: which classes are bursty changes slowly,
  // and a stable sigma-hat keeps var-ewma's churn at ewma's level.
  defaults.variance_window = 20;
  defaults.scale_to_total = tm.total();

  util::Table table(
      {"Hurst", "Estimator", "MeanGap", "TailGap", "MeanChurn", "EstError"});
  // Keyed (hurst, arm) results for the gate.
  std::map<std::pair<double, std::string>, ArmStats> results;

  // Gap means are tail-dominated (one extreme burst window moves them a
  // lot), so every (hurst, arm) cell averages over independent seeds.
  // The seed set is the same in fast mode — the gated cells must carry
  // identical data in both modes; fast trims the ungated Hurst level.
  const std::vector<std::uint64_t> seeds = {1904, 7, 42, 1337, 271828};

  for (const double hurst : hursts) {
   for (const std::uint64_t seed : seeds) {
    traffic::SelfSimilarOptions ssopts;
    ssopts.hurst = hurst;
    ssopts.sigma = 0.35;
    // Heterogeneous burstiness: calm and bursty ingresses side by side,
    // the regime where learned per-class headroom can actually pay.
    ssopts.sigma_spread = 1.0;
    ssopts.seed = seed;
    // Composed flash crowd: one seed-chosen ingress row surges 3x for a
    // sustained span — the canonical burst a smoothing estimator lags
    // through window after window.  Ingress and onset vary per seed so no
    // arm can be tuned to one event.
    ssopts.shape = traffic::ScenarioShape::kFlashCrowd;
    ssopts.flash_ingress =
        static_cast<int>(seed % static_cast<std::uint64_t>(
                                    topology.graph.num_nodes()));
    ssopts.flash_window =
        warmup + 2 +
        static_cast<int>(seed % static_cast<std::uint64_t>(windows / 3));
    ssopts.flash_duration = 8;
    ssopts.flash_magnitude = 3.5;
    const traffic::SelfSimilarTraffic process(tm, windows, ssopts);

    // The oracle re-solves each true matrix directly (warm-started).
    core::Controller oracle(topology, tm, copts);
    // Re-costing scenario: rebuilt per window with the true matrix so
    // refresh_metrics prices every arm's plan against the truth.
    core::Scenario eval(topology, tm, copts.scenario);
    // Pricing scenario for the install policy below (arm's own estimate).
    core::Scenario est_eval(topology, tm, copts.scenario);

    struct Arm {
      std::string spec;
      core::Controller controller;
      std::unique_ptr<online::Estimator> estimator;
      shim::ConfigBundle prev_bundle;
      core::Assignment prev_assignment;
      traffic::TrafficMatrix prev_estimate;
      bool has_prev = false;
    };
    std::vector<Arm> running;
    running.reserve(arms.size());
    for (const std::string& spec : arms)
      running.push_back({spec,
                         core::Controller(topology, tm, copts),
                         online::make_estimator(spec, oracle.scenario().classes(),
                                                topology.graph.num_nodes(),
                                                defaults),
                         {},
                         {},
                         tm,
                         false});

    const auto& classes = oracle.scenario().classes();
    std::vector<std::uint64_t> sessions(classes.size());
    std::vector<std::uint64_t> bytes(classes.size());

    for (int w = 0; w < windows; ++w) {
      const traffic::TrafficMatrix true_tm = process.window(w);
      const core::EpochResult oracle_res = oracle.run({.tm = &true_tm});
      const double oracle_load = oracle_res.assignment.load_cost;
      eval.set_traffic(true_tm);
      const core::ProblemInput eval_input = eval.problem(copts.architecture);

      for (std::size_t c = 0; c < classes.size(); ++c) {
        const double volume = true_tm.volume(classes[c].ingress, classes[c].egress);
        sessions[c] = static_cast<std::uint64_t>(std::llround(volume * kCountScale));
        bytes[c] = static_cast<std::uint64_t>(
            std::llround(volume * kCountScale * kBytesPerSession));
      }

      for (Arm& arm : running) {
        ArmStats& stats = results[{hurst, arm.spec}];
        // Deploy-then-observe: the plan installed at the end of window
        // w−1 is what actually serves window w, so price *that* plan
        // under this window's true matrix.  Same-window evaluation would
        // erase the whole point of forecasting and headroom.
        if (arm.has_prev && w >= warmup && oracle_load > 0.0) {
          core::Assignment live = arm.prev_assignment;
          core::refresh_metrics(eval_input, live);
          stats.gaps.push_back(live.load_cost / oracle_load - 1.0);
          stats.err_sum += online::estimation_error(arm.prev_estimate, true_tm);
        }

        arm.estimator->observe(sessions, bytes);
        traffic::TrafficMatrix est_tm = arm.estimator->estimate();
        const core::EpochResult res = arm.controller.run({.tm = &est_tm});

        // Install policy: hash-space moves are expensive (the paper's own
        // churn argument), and the max-load LP has many near-degenerate
        // vertices, so a fresh solve replaces the incumbent plan only when
        // it is meaningfully better *under the arm's own estimate*.
        // Without this hysteresis every arm flaps between near-optimal
        // vertices and vertex noise swamps the estimator signal.
        bool install = !arm.has_prev;
        if (!install) {
          est_eval.set_traffic(est_tm);
          const core::ProblemInput est_input =
              est_eval.problem(copts.architecture);
          core::Assignment incumbent = arm.prev_assignment;
          core::refresh_metrics(est_input, incumbent);
          install =
              res.assignment.load_cost < incumbent.load_cost * (1.0 - kReplanTol);
        }
        if (install) {
          if (arm.has_prev && w >= warmup) {
            stats.churn_sum +=
                shim::churn_between(arm.prev_bundle, res.bundle).moved_fraction;
            ++stats.churn_windows;
          }
          arm.prev_bundle = res.bundle;
          arm.prev_assignment = res.assignment;
        } else if (arm.has_prev && w >= warmup) {
          ++stats.churn_windows;  // Kept plan: a zero-churn epoch.
        }
        arm.prev_estimate = std::move(est_tm);
        arm.has_prev = true;
      }
    }
   }

    for (const std::string& spec : arms) {
      const ArmStats& stats = results[{hurst, spec}];
      table.row()
          .cell(hurst, 2)
          .cell(spec)
          .cell(stats.mean_gap(), 4)
          .cell(stats.tail_gap(), 4)
          .cell(stats.mean_churn(), 4)
          .cell(stats.mean_err(), 4);
    }
  }
  bench::print_table(table);

  const auto gap = [&](const std::string& spec, double hurst) {
    return results[{hurst, spec}].tail_gap();
  };
  const auto churn = [&](const std::string& spec, double hurst) {
    return results[{hurst, spec}].mean_churn();
  };

  bench::JsonReport report("selfsimilar_tracking");
  report.scalar("topology", topology.name)
      .scalar("windows", static_cast<long long>(windows))
      .scalar("warmup", static_cast<long long>(warmup))
      .scalar("count_scale", kCountScale)
      .scalar("tail_gap_ewma_h08", gap("ewma", 0.8))
      .scalar("tail_gap_varewma_h08", gap("var-ewma", 0.8))
      .scalar("tail_gap_ewma_h09", gap("ewma", 0.9))
      .scalar("tail_gap_varewma_h09", gap("var-ewma", 0.9))
      .scalar("mean_gap_ewma_h08", results[{0.8, "ewma"}].mean_gap())
      .scalar("mean_gap_varewma_h08", results[{0.8, "var-ewma"}].mean_gap())
      .scalar("churn_ewma_h05", churn("ewma", 0.5))
      .scalar("churn_varewma_h05", churn("var-ewma", 0.5))
      .table("per_arm", table);
  report.write_if_requested();

  // --- Gates (NWLB_BENCH_ENFORCE=1): headroom must pay for itself. ---
  bool ok = true;
  for (const double hurst : {0.8, 0.9}) {
    const double ewma_gap = gap("ewma", hurst);
    const double var_gap = gap("var-ewma", hurst);
    std::cout << "hurst=" << hurst << " tail oracle-gap ewma=" << ewma_gap
              << " var-ewma=" << var_gap << "\n";
    if (var_gap >= ewma_gap) {
      std::cerr << "FAIL: var-ewma does not beat ewma on the tail oracle gap "
                   "at hurst="
                << hurst << " (" << var_gap << " vs " << ewma_gap << ")\n";
      ok = false;
    }
  }
  const double ewma_churn = churn("ewma", 0.5);
  const double var_churn = churn("var-ewma", 0.5);
  std::cout << "hurst=0.5 churn ewma=" << ewma_churn
            << " var-ewma=" << var_churn << " (cap = ewma + 10%)\n";
  if (var_churn > ewma_churn * 1.10 + 1e-12) {
    std::cerr << "FAIL: var-ewma churn at hurst=0.5 exceeds ewma + 10% ("
              << var_churn << " vs " << ewma_churn << ")\n";
    ok = false;
  }
  if (!ok && !util::env_flag("NWLB_BENCH_ENFORCE")) {
    std::cout << "(gates reported only; set NWLB_BENCH_ENFORCE=1 to fail)\n";
    return 0;
  }
  return ok ? 0 : 1;
}
