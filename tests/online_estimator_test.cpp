// The pluggable Estimator API (DESIGN.md §15): the spec factory is the
// only construction path, so these tests drive every registered kind
// through make_estimator() — EWMA convergence and warm-up correction,
// var-ewma's quantized burst headroom and optional burst-onset snap, the
// class-support floor, scale anchoring, the gossip partial hooks, and the
// estimator-error metric.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "online/estimator.h"
#include "topo/topology.h"
#include "traffic/classes.h"
#include "traffic/matrix.h"

namespace nwlb::online {
namespace {

struct EstimatorFixture {
  topo::Topology topology = topo::make_internet2();
  traffic::TrafficMatrix tm;
  core::Scenario scenario;

  EstimatorFixture()
      : tm(traffic::gravity_matrix(topology.graph, traffic::paper_total_sessions(11))),
        scenario(topology, tm) {}

  int num_pops() const { return topology.graph.num_nodes(); }

  std::unique_ptr<Estimator> make(std::string_view spec,
                                  const EstimatorOptions& defaults = {}) const {
    return make_estimator(spec, scenario.classes(), num_pops(), defaults);
  }

  /// One interval's data-plane counters, exactly proportional to the
  /// provisioned per-class volumes (a noiseless static-traffic window).
  std::vector<std::uint64_t> window_sessions(double scale = 1e-3) const {
    std::vector<std::uint64_t> out;
    out.reserve(scenario.classes().size());
    for (const traffic::TrafficClass& cls : scenario.classes())
      out.push_back(static_cast<std::uint64_t>(std::llround(cls.sessions * scale)));
    return out;
  }
  std::vector<std::uint64_t> window_bytes(double scale = 1e-3) const {
    // Derived from the *rounded* session counts so bytes/sessions stays
    // exactly the per-class mean session size.
    std::vector<std::uint64_t> out = window_sessions(scale);
    for (std::size_t c = 0; c < out.size(); ++c)
      out[c] = static_cast<std::uint64_t>(
          static_cast<double>(out[c]) * scenario.classes()[c].bytes_per_session);
    return out;
  }
};

// ---- The factory is the only construction path ----------------------------

TEST(EstimatorFactory, BuildsEveryRegisteredKind) {
  EstimatorFixture f;
  ASSERT_EQ(estimator_kinds().size(), 2u);
  for (std::string_view kind : estimator_kinds()) {
    const std::unique_ptr<Estimator> est = f.make(kind);
    ASSERT_NE(est, nullptr) << kind;
    EXPECT_EQ(est->kind(), kind);
    EXPECT_EQ(est->num_classes(), f.scenario.classes().size());
    EXPECT_EQ(est->intervals_observed(), 0);
  }
}

TEST(EstimatorFactory, SpecOverridesApplyOnTopOfDefaults) {
  EstimatorOptions defaults;
  defaults.window = 9;
  defaults.scale_to_total = 123.0;
  const EstimatorSpec parsed = parse_estimator_spec(
      "var-ewma:headroom=0.5,cap=0.1,burst=3,variance-window=12", defaults);
  EXPECT_EQ(parsed.kind, "var-ewma");
  EXPECT_EQ(parsed.options.window, 9);               // Default survives.
  EXPECT_DOUBLE_EQ(parsed.options.scale_to_total, 123.0);
  EXPECT_DOUBLE_EQ(parsed.options.headroom_sigmas, 0.5);
  EXPECT_DOUBLE_EQ(parsed.options.headroom_cap, 0.1);
  EXPECT_DOUBLE_EQ(parsed.options.burst_sigmas, 3.0);
  EXPECT_EQ(parsed.options.variance_window, 12);
}

TEST(EstimatorFactory, RejectionsCiteTheGrammar) {
  EstimatorFixture f;
  const auto expect_reject = [&](std::string_view spec) {
    try {
      f.make(spec);
      FAIL() << "spec accepted: " << spec;
    } catch (const std::invalid_argument& e) {
      // Every rejection names the offending spec and cites the grammar so
      // a CLI user can fix --estimator without reading the source.
      EXPECT_NE(std::string(e.what()).find("estimator spec grammar"),
                std::string::npos)
          << spec << " -> " << e.what();
    }
  };
  expect_reject("arima");                    // Unknown kind.
  expect_reject("");                         // Empty kind.
  expect_reject("ewma:gamma=1");             // Unknown key.
  expect_reject("ewma:window");              // Malformed pair (no '=').
  expect_reject("ewma:=4");                  // Malformed pair (no key).
  expect_reject("ewma:window=abc");          // Not a number.
  expect_reject("ewma:window=2.5");          // Integer key, fractional value.
  expect_reject("ewma:window=0");            // Out of domain.
  expect_reject("var-ewma:burst=-1");        // Out of domain.
  expect_reject("var-ewma:headroom=-0.1");   // Out of domain.
  expect_reject("ewma:floor=1.5");           // Out of domain.
  // var-ewma's keys change nothing under ewma, so ewma rejects them.
  expect_reject("ewma:headroom=2");
  expect_reject("ewma:cap=0.5");
  expect_reject("ewma:burst=3");
  expect_reject("ewma:variance-window=12");
  expect_reject("var-ewma:trend-window=12");  // Unknown key.
}

TEST(EstimatorFactory, ValidatesOptionDomains) {
  EstimatorOptions bad_window;
  bad_window.window = 0;
  EXPECT_THROW(validate_estimator_options(bad_window), std::invalid_argument);
  EstimatorOptions bad_floor;
  bad_floor.support_floor = 1.0;
  EXPECT_THROW(validate_estimator_options(bad_floor), std::invalid_argument);
  EstimatorOptions bad_variance;
  bad_variance.variance_window = 0;
  EXPECT_THROW(validate_estimator_options(bad_variance), std::invalid_argument);
  EstimatorOptions bad_burst;
  bad_burst.burst_sigmas = -0.5;
  EXPECT_THROW(validate_estimator_options(bad_burst), std::invalid_argument);

  EstimatorFixture f;
  EXPECT_THROW(make_estimator("ewma", f.scenario.classes(), 0),
               std::invalid_argument);
  const std::unique_ptr<Estimator> est = f.make("ewma");
  const std::vector<std::uint64_t> wrong(f.scenario.classes().size() + 1, 1);
  EXPECT_THROW(est->observe(wrong, wrong), std::invalid_argument);
}

// ---- Shared windowed behavior (every kind) --------------------------------

TEST(Estimator, ConvergesToStaticMatrix) {
  EstimatorFixture f;
  EstimatorOptions opts;
  opts.scale_to_total = f.tm.total();
  for (std::string_view kind : estimator_kinds()) {
    const std::unique_ptr<Estimator> est = f.make(kind, opts);
    const auto sessions = f.window_sessions();
    const auto bytes = f.window_bytes();
    for (int i = 0; i < 6; ++i) est->observe(sessions, bytes);
    EXPECT_EQ(est->intervals_observed(), 6);

    const traffic::TrafficMatrix estimate = est->estimate();
    // Scale anchoring: the estimate totals the provisioned volume.  This
    // holds for var-ewma too — a noiseless feed has zero innovation, so
    // no class earns headroom on top of the anchored mass.
    EXPECT_NEAR(estimate.total(), f.tm.total(), 1e-6 * f.tm.total()) << kind;
    // Shape: within rounding noise of the oracle (the ISSUE acceptance
    // tolerance is 10%; a noiseless feed should land far inside it).
    EXPECT_LT(estimation_error(estimate, f.tm), 0.02) << kind;
  }
}

TEST(Estimator, FirstWindowSeedsWithoutWarmupBias) {
  EstimatorFixture f;
  const auto sessions = f.window_sessions();
  const auto bytes = f.window_bytes();
  for (std::string_view kind : estimator_kinds()) {
    const std::unique_ptr<Estimator> est = f.make(kind);
    est->observe(sessions, bytes);
    // No decay toward the all-zero initial state: the first window is
    // taken verbatim, so one interval already reproduces the static shape.
    for (std::size_t c = 0; c < sessions.size(); ++c)
      EXPECT_DOUBLE_EQ(est->class_rate(c), static_cast<double>(sessions[c]))
          << kind << " class " << c;
  }
}

TEST(Estimator, EwmaSmoothsAStepChangeWithWarmupWeight) {
  EstimatorFixture f;
  EstimatorOptions opts;
  opts.window = 4;  // alpha = 0.4, but at t = 1 the warm-up floor 1/2 wins.
  const std::unique_ptr<Estimator> est = f.make("ewma", opts);
  const auto low = f.window_sessions(1e-3);
  const auto high = f.window_sessions(2e-3);
  est->observe(low, f.window_bytes(1e-3));
  est->observe(high, f.window_bytes(2e-3));
  const double expected =
      0.5 * static_cast<double>(high[0]) + 0.5 * static_cast<double>(low[0]);
  EXPECT_NEAR(est->class_rate(0), expected, 1e-9 * expected + 1e-9);
}

TEST(Estimator, FlashCrowdFirstWindowDecaysLikeARunningMean) {
  // Regression for the first-window seeding bias: a long window used to
  // lock an anomalous boot-time flash crowd in as the scale anchor for
  // ~window intervals.  With the warm-up floor max(alpha, 1/(t+1)) the
  // state is exactly the running mean until the floor crosses alpha.
  EstimatorFixture f;
  EstimatorOptions opts;
  opts.window = 16;  // alpha = 2/17 ≈ 0.118 — floor governs through t = 7.
  const std::unique_ptr<Estimator> est = f.make("ewma", opts);
  const auto flash = f.window_sessions(10e-3);  // 10x boot-time spike.
  const auto normal = f.window_sessions(1e-3);
  const auto flash_bytes = f.window_bytes(10e-3);
  const auto normal_bytes = f.window_bytes(1e-3);
  est->observe(flash, flash_bytes);
  for (int i = 0; i < 3; ++i) est->observe(normal, normal_bytes);
  const double mean4 = (static_cast<double>(flash[0]) +
                        3.0 * static_cast<double>(normal[0])) /
                       4.0;
  EXPECT_NEAR(est->class_rate(0), mean4, 1e-9 * mean4);
  // A naive EWMA at alpha = 2/17 would still carry ~69% of the spike:
  // (1 - alpha)^3 ≈ 0.687 — the running mean carries only 25%.
  const double naive = static_cast<double>(flash[0]) *
                       std::pow(1.0 - 2.0 / 17.0, 3);
  EXPECT_LT(est->class_rate(0), 0.5 * naive);
}

TEST(Estimator, SupportFloorKeepsEveryKnownPairPositive) {
  EstimatorFixture f;
  const std::unique_ptr<Estimator> est = f.make("ewma");
  // A window in which class 0 goes completely dark.
  auto sessions = f.window_sessions();
  auto bytes = f.window_bytes();
  sessions[0] = 0;
  bytes[0] = 0;
  for (int i = 0; i < 8; ++i) est->observe(sessions, bytes);

  const traffic::TrafficMatrix estimate = est->estimate();
  const traffic::TrafficClass& dark = f.scenario.classes()[0];
  // The pair must not vanish from the matrix: build_classes() would drop
  // it and the warm-started LP model shape would change between epochs.
  EXPECT_GT(estimate.volume(dark.ingress, dark.egress), 0.0);
  for (const traffic::TrafficClass& cls : f.scenario.classes())
    EXPECT_GT(estimate.volume(cls.ingress, cls.egress), 0.0) << "class " << cls.id;
}

TEST(Estimator, EstimateBeforeAnyObservationIsTheFloorMatrix) {
  EstimatorFixture f;
  const std::unique_ptr<Estimator> est = f.make("ewma");
  const traffic::TrafficMatrix estimate = est->estimate();
  // Flat floor: every known pair positive, every pair equal.
  const traffic::TrafficClass& first = f.scenario.classes().front();
  const double floor = estimate.volume(first.ingress, first.egress);
  EXPECT_GT(floor, 0.0);
  for (const traffic::TrafficClass& cls : f.scenario.classes())
    EXPECT_DOUBLE_EQ(estimate.volume(cls.ingress, cls.egress), floor);
}

TEST(Estimator, BytesPerSessionTracksTheFeed) {
  EstimatorFixture f;
  const std::unique_ptr<Estimator> est = f.make("ewma");
  est->observe(f.window_sessions(), f.window_bytes());
  const traffic::TrafficClass& cls = f.scenario.classes().front();
  // Rounding on both counters, so allow 1% slack.
  EXPECT_NEAR(est->bytes_per_session(0), cls.bytes_per_session,
              0.01 * cls.bytes_per_session);
}

// ---- var-ewma: quantized burst headroom + optional snap -------------------

TEST(VarEwma, SteadyFeedMatchesPlainEwmaExactly) {
  EstimatorFixture f;
  EstimatorOptions opts;
  opts.scale_to_total = f.tm.total();
  const std::unique_ptr<Estimator> ve = f.make("var-ewma", opts);
  const std::unique_ptr<Estimator> ewma = f.make("ewma", opts);
  const auto sessions = f.window_sessions();
  const auto bytes = f.window_bytes();
  for (int i = 0; i < 8; ++i) {
    ve->observe(sessions, bytes);
    ewma->observe(sessions, bytes);
  }
  // Zero innovations -> zero sigma-hat -> zero headroom: on calm traffic
  // the burst-aware estimator produces the *same plan inputs* as plain
  // ewma, which is why its rollout churn matches on Hurst-0.5 traffic.
  for (std::size_t c = 0; c < sessions.size(); ++c)
    EXPECT_NEAR(ve->class_rate(c), ewma->class_rate(c),
                1e-9 * (ewma->class_rate(c) + 1.0))
        << "class " << c;
  EXPECT_NEAR(estimation_error(ve->estimate(), ewma->estimate()), 0.0, 1e-9);
}

TEST(VarEwma, VolatileClassGetsQuantizedCappedHeadroom) {
  EstimatorFixture f;
  EstimatorOptions opts;
  opts.window = 4;
  opts.variance_window = 6;
  opts.headroom_sigmas = 1.0;
  opts.headroom_cap = 0.2;
  // No scale anchoring: volumes stay in raw counter units so the
  // inflation is directly readable off the estimate.
  const std::unique_ptr<Estimator> ve = f.make("var-ewma", opts);
  const std::unique_ptr<Estimator> ewma = f.make("ewma", opts);
  // Class 0 alternates 0.5x / 1.5x around the mean; every other class is
  // steady — only the volatile class should earn a hedge.
  for (int t = 0; t < 12; ++t) {
    auto sessions = f.window_sessions();
    auto bytes = f.window_bytes();
    const double swing = (t % 2 == 0) ? 0.5 : 1.5;
    sessions[0] = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(sessions[0]) * swing));
    ve->observe(sessions, bytes);
    ewma->observe(sessions, bytes);
  }
  const traffic::TrafficMatrix est_ve = ve->estimate();
  const traffic::TrafficMatrix est_ew = ewma->estimate();
  const traffic::TrafficClass& volatile_cls = f.scenario.classes()[0];
  const traffic::TrafficClass& steady_cls = f.scenario.classes()[1];
  // The tracked levels agree (same smoothing recursion)...
  EXPECT_NEAR(ve->class_rate(0), ewma->class_rate(0),
              1e-9 * ewma->class_rate(0));
  // ...so any volume difference is pure headroom.  It must be present,
  // a multiple of the 0.05 quantization step, and at most the cap.
  const double inflation =
      est_ve.volume(volatile_cls.ingress, volatile_cls.egress) /
          est_ew.volume(volatile_cls.ingress, volatile_cls.egress) -
      1.0;
  EXPECT_GT(inflation, 0.0);
  EXPECT_LE(inflation, opts.headroom_cap + 1e-9);
  const double steps = inflation / 0.05;
  EXPECT_NEAR(steps, std::round(steps), 1e-6)
      << "headroom " << inflation << " is not a 0.05-step multiple";
  // The steady class earned no hedge.
  EXPECT_NEAR(est_ve.volume(steady_cls.ingress, steady_cls.egress),
              est_ew.volume(steady_cls.ingress, steady_cls.egress),
              1e-9 * est_ew.volume(steady_cls.ingress, steady_cls.egress));
}

TEST(VarEwma, BurstTriggerSnapsUpButSmoothsDown) {
  EstimatorFixture f;
  EstimatorOptions opts;
  opts.window = 4;  // alpha = 0.4 once warmed up.
  opts.burst_sigmas = 2.0;
  const std::unique_ptr<Estimator> snap = f.make("var-ewma", opts);
  EstimatorOptions no_burst = opts;
  no_burst.burst_sigmas = 0.0;  // The default: trigger disabled.
  const std::unique_ptr<Estimator> plain = f.make("var-ewma", no_burst);

  const auto calm = f.window_sessions(1e-3);
  const auto calm_bytes = f.window_bytes(1e-3);
  for (int i = 0; i < 4; ++i) {
    snap->observe(calm, calm_bytes);
    plain->observe(calm, calm_bytes);
  }
  // Flash onset: 10x.  Sigma-hat is ~0 after a constant feed, so the
  // jump clears any positive threshold -> the level snaps to the
  // observation instead of lagging through the crowd at alpha.
  const auto flash = f.window_sessions(10e-3);
  const auto flash_bytes = f.window_bytes(10e-3);
  snap->observe(flash, flash_bytes);
  plain->observe(flash, flash_bytes);
  EXPECT_DOUBLE_EQ(snap->class_rate(0), static_cast<double>(flash[0]));
  EXPECT_LT(plain->class_rate(0), static_cast<double>(flash[0]));

  // The way *down* always smooths — briefly over-provisioning after a
  // burst ends is the safe direction, so no symmetric down-snap.
  snap->observe(calm, calm_bytes);
  EXPECT_GT(snap->class_rate(0), static_cast<double>(calm[0]));
}

// ---- Gossip partial hooks --------------------------------------------------

TEST(Estimator, MergedPartialsEqualDirectObservation) {
  EstimatorFixture f;
  for (std::string_view kind : estimator_kinds()) {
    const std::unique_ptr<Estimator> merged = f.make(kind);
    const std::unique_ptr<Estimator> direct = f.make(kind);
    // Three origins each contribute a disjoint slice of the window.
    const auto third = f.window_sessions(1e-3);
    const auto third_bytes = f.window_bytes(1e-3);
    std::vector<std::uint64_t> sum(third.size(), 0);
    std::vector<std::uint64_t> sum_bytes(third.size(), 0);
    merged->begin_partials();
    for (int origin = 0; origin < 3; ++origin) {
      merged->merge_partial(third, third_bytes);
      for (std::size_t c = 0; c < third.size(); ++c) {
        sum[c] += third[c];
        sum_bytes[c] += third_bytes[c];
      }
    }
    merged->commit_partials();
    direct->observe(sum, sum_bytes);
    for (std::size_t c = 0; c < sum.size(); ++c)
      EXPECT_DOUBLE_EQ(merged->class_rate(c), direct->class_rate(c))
          << kind << " class " << c;
    EXPECT_EQ(merged->merged_sessions(), sum) << kind;

    const std::vector<std::uint64_t> wrong(third.size() + 1, 1);
    EXPECT_THROW(merged->merge_partial(wrong, wrong), std::invalid_argument);
  }
}

// ---- estimation_error ------------------------------------------------------

TEST(EstimationError, IdenticalMatricesScoreZero) {
  EstimatorFixture f;
  EXPECT_DOUBLE_EQ(estimation_error(f.tm, f.tm), 0.0);
  // Scale-invariant: TV distance compares normalized shapes.
  traffic::TrafficMatrix scaled = f.tm;
  scaled.scale(7.5);
  EXPECT_NEAR(estimation_error(scaled, f.tm), 0.0, 1e-12);
}

TEST(EstimationError, DisjointSupportScoresOne) {
  traffic::TrafficMatrix a(4);
  traffic::TrafficMatrix b(4);
  a.set_volume(0, 1, 10.0);
  b.set_volume(2, 3, 3.0);
  EXPECT_NEAR(estimation_error(a, b), 1.0, 1e-12);
}

TEST(EstimationError, RejectsSizeMismatch) {
  traffic::TrafficMatrix a(4);
  traffic::TrafficMatrix b(5);
  EXPECT_THROW(estimation_error(a, b), std::invalid_argument);
}

}  // namespace
}  // namespace nwlb::online
