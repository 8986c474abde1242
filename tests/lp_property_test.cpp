// Property-based cross-validation: random LPs solved by both the dense
// tableau oracle and the sparse revised simplex must agree on status and,
// when optimal, on the objective value.  Parameterized over seeds so each
// seed is an independent ctest case.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "lp/dense_simplex.h"
#include "lp/revised_simplex.h"
#include "lp/validate.h"
#include "lp_shaped.h"
#include "util/rng.h"

namespace nwlb::lp {
namespace {

using nwlb::util::Rng;

struct GeneratedLp {
  Model model;
  bool feasible_by_construction = false;
};

// Generates a random LP. With probability ~0.8 it is feasible by
// construction (rhs derived from a random interior point); otherwise the
// rhs is random and any status can occur.  Each column is fixed (lb == ub,
// at a value in [-1, 1]) with probability `fixed_share`; at 0 the generator
// draws nothing extra, so a seed's LP does not depend on that branch.
GeneratedLp generate(std::uint64_t seed, double fixed_share) {
  Rng rng(seed);
  GeneratedLp g;
  const int n = 2 + static_cast<int>(rng.below(18));
  const int m = 1 + static_cast<int>(rng.below(12));
  std::vector<VarId> vars;
  std::vector<double> point;
  for (int j = 0; j < n; ++j) {
    double lo = 0.0, hi = kInf;
    const double kind = rng.uniform();
    if (fixed_share > 0.0 && rng.bernoulli(fixed_share)) {
      lo = hi = rng.uniform(-1, 1);
    } else if (kind < 0.25) {
      lo = rng.uniform(-3, 0);
      hi = lo + rng.uniform(0.5, 4.0);
    } else if (kind < 0.5) {
      lo = 0.0;
      hi = rng.uniform(0.5, 4.0);
    } else if (kind < 0.6) {
      lo = -kInf;
      hi = rng.uniform(-1, 3);
    }  // Else [0, inf).
    const double cost = rng.uniform(-2, 2);
    vars.push_back(g.model.add_variable(lo, hi, cost));
    // An interior-ish reference point within bounds.
    double p = 0.0;
    if (std::isfinite(lo) && std::isfinite(hi)) {
      p = lo + 0.5 * (hi - lo);
    } else if (std::isfinite(lo)) {
      p = lo + rng.uniform(0.0, 2.0);
    } else if (std::isfinite(hi)) {
      p = hi - rng.uniform(0.0, 2.0);
    }
    point.push_back(p);
  }
  g.feasible_by_construction = rng.bernoulli(0.8);
  for (int i = 0; i < m; ++i) {
    std::vector<std::pair<int, double>> entries;
    double activity = 0.0;
    for (int j = 0; j < n; ++j) {
      if (!rng.bernoulli(0.4)) continue;
      const double a = rng.uniform(-2, 2);
      if (a == 0.0) continue;
      entries.emplace_back(j, a);
      activity += a * point[static_cast<std::size_t>(j)];
    }
    const double pick = rng.uniform();
    const Sense sense = pick < 0.4   ? Sense::kLessEqual
                        : pick < 0.8 ? Sense::kGreaterEqual
                                     : Sense::kEqual;
    double rhs;
    if (g.feasible_by_construction) {
      // Keep the reference point feasible.
      switch (sense) {
        case Sense::kLessEqual: rhs = activity + rng.uniform(0.0, 2.0); break;
        case Sense::kGreaterEqual: rhs = activity - rng.uniform(0.0, 2.0); break;
        default: rhs = activity; break;
      }
    } else {
      rhs = rng.uniform(-4, 4);
    }
    const RowId r = g.model.add_row(sense, rhs);
    for (auto [j, a] : entries) g.model.add_coefficient(r, vars[static_cast<std::size_t>(j)], a);
  }
  return g;
}

void expect_agreement(const GeneratedLp& g) {
  const Solution dense = solve_dense(g.model);

  // Every revised-simplex configuration must agree with the dense oracle:
  // with and without the crash basis, and with Bland's rule forced from the
  // first degenerate step (stall_limit = 0), from either starting basis.
  struct Config {
    const char* name;
    bool crash;
    int stall_limit;
  };
  const Config configs[] = {
      {"steepest+crash", true, 2000},
      {"steepest-no-crash", false, 2000},
      {"steepest-bland", true, 0},
      {"steepest-no-crash-bland", false, 0},
  };
  for (const Config& config : configs) {
    Options opt;
    opt.crash = config.crash;
    opt.stall_limit = config.stall_limit;
    const Solution revised = solve_revised(g.model, opt);

    if (g.feasible_by_construction) {
      EXPECT_NE(dense.status, Status::kInfeasible);
      EXPECT_NE(revised.status, Status::kInfeasible) << config.name;
    }
    // Statuses must agree (both solvers are exact on these sizes).
    ASSERT_EQ(dense.status, revised.status)
        << config.name << ": dense=" << to_string(dense.status)
        << " revised=" << to_string(revised.status);
    if (dense.status == Status::kOptimal) {
      const double scale = std::max({1.0, std::abs(dense.objective)});
      EXPECT_NEAR(dense.objective, revised.objective, 1e-5 * scale) << config.name;
      EXPECT_LE(g.model.max_violation(revised.x), 1e-6) << config.name;
      EXPECT_LE(g.model.max_violation(dense.x), 1e-6);
    }
  }
}

class LpAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpAgreement, DenseAndRevisedAgree) { expect_agreement(generate(GetParam(), 0.0)); }

INSTANTIATE_TEST_SUITE_P(RandomLps, LpAgreement,
                         ::testing::Range<std::uint64_t>(1, 161));

// The same LPs with about a fifth of the columns fixed, mostly at a nonzero
// value, which LpAgreement never generates.  Every configuration must
// still agree with the oracle.
class LpFixedColumns : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpFixedColumns, DenseAndRevisedAgree) { expect_agreement(generate(GetParam(), 0.2)); }

INSTANTIATE_TEST_SUITE_P(RandomLps, LpFixedColumns, ::testing::Range<std::uint64_t>(1, 41));

class LpMinMax : public ::testing::TestWithParam<std::uint64_t> {};

// Random instances with the exact structure of the replication LP (Fig. 7):
// coverage equalities + min-max load rows + capacity-style link rows.  The
// optimum from the revised simplex must match the dense oracle and respect
// all structural invariants the formulation in src/core relies on.
TEST_P(LpMinMax, ReplicationShapedInstances) {
  Rng rng(GetParam() * 7919);
  const int classes = 2 + static_cast<int>(rng.below(8));
  const int nodes = 2 + static_cast<int>(rng.below(5));
  Model m;
  const VarId load = m.add_variable(0, kInf, 1.0, "LoadCost");
  std::vector<std::vector<VarId>> p(static_cast<std::size_t>(classes));
  for (int c = 0; c < classes; ++c)
    for (int j = 0; j < nodes; ++j)
      p[static_cast<std::size_t>(c)].push_back(m.add_variable(0, 1, 0));
  // Coverage.
  for (int c = 0; c < classes; ++c) {
    const RowId r = m.add_row(Sense::kEqual, 1);
    for (int j = 0; j < nodes; ++j)
      m.add_coefficient(r, p[static_cast<std::size_t>(c)][static_cast<std::size_t>(j)], 1);
  }
  // Load rows: sum_c w_c * p_cj - LoadCost <= 0.
  std::vector<double> weight(static_cast<std::size_t>(classes));
  for (auto& w : weight) w = rng.uniform(0.5, 3.0);
  for (int j = 0; j < nodes; ++j) {
    const RowId r = m.add_row(Sense::kLessEqual, 0);
    for (int c = 0; c < classes; ++c)
      m.add_coefficient(r, p[static_cast<std::size_t>(c)][static_cast<std::size_t>(j)],
                        weight[static_cast<std::size_t>(c)]);
    m.add_coefficient(r, load, -1);
  }
  const Solution dense = solve_dense(m);
  const Solution revised = solve_revised(m);
  ASSERT_EQ(dense.status, Status::kOptimal);
  ASSERT_EQ(revised.status, Status::kOptimal);
  EXPECT_NEAR(dense.objective, revised.objective, 1e-6);
  // The balanced optimum equals total weight / nodes.
  double total = 0.0;
  for (double w : weight) total += w;
  EXPECT_NEAR(revised.objective, total / nodes, 1e-6);
  // Coverage invariant on the revised solution.
  for (int c = 0; c < classes; ++c) {
    double sum = 0.0;
    for (int j = 0; j < nodes; ++j)
      sum += revised.value(p[static_cast<std::size_t>(c)][static_cast<std::size_t>(j)]);
    EXPECT_NEAR(sum, 1.0, 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(MinMaxShapes, LpMinMax, ::testing::Range<std::uint64_t>(1, 41));

// Warm re-solves across edit sequences.  Each seed solves a random LP, then
// edits it a step at a time and re-solves warm from the last optimal basis
// after every edit: rhs moves, pins of a column to (v, v) and releases of
// those pins, positive column scalings (the shape of a demand drift) and
// one cost change.  A basis the edit left primal infeasible goes to the
// dual simplex.  Every solve must match the dense oracle on status and
// objective, and every optimum must pass validate_solution.

/// Scales every coefficient of column `var` by `factor`.
void scale_column(Model& model, VarId var, double factor) {
  for (int r = 0; r < model.num_rows(); ++r) {
    const std::vector<Entry> entries = model.row_entries(RowId{r});  // add_coefficient appends.
    for (const Entry& e : entries)
      if (e.var == var.value) model.add_coefficient(RowId{r}, var, (factor - 1.0) * e.coef);
  }
  model.normalize();
}

void expect_oracle_optimum(const Model& model, const Solution& s, const std::string& what) {
  const Solution dense = solve_dense(model);
  ASSERT_EQ(s.status, dense.status)
      << what << ": dense=" << to_string(dense.status) << " revised=" << to_string(s.status);
  if (dense.status != Status::kOptimal) return;
  EXPECT_NEAR(s.objective, dense.objective, 1e-6 * std::max(1.0, std::abs(dense.objective)))
      << what;
  const auto report = validate_solution(model, s);
  EXPECT_TRUE(report.ok()) << what << ": " << report.to_string();
}

class LpWarmEdits : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpWarmEdits, WarmResolvesMatchTheOracle) {
  constexpr int kSteps = 10;
  GeneratedLp g = generate(GetParam(), 0.0);
  Model& model = g.model;
  Rng rng(GetParam() ^ 0x3d17ull);
  const int n = model.num_variables();
  Solution last = solve_revised(model);
  expect_oracle_optimum(model, last, "cold");
  Basis basis = last.basis;

  struct Pin {
    VarId var;
    double lower, upper;  // The bounds the pin replaced.
  };
  std::vector<Pin> pins;
  auto random_var = [&] { return VarId{static_cast<int>(rng.below(static_cast<std::uint64_t>(n)))}; };
  // One edit; returns its name.
  auto edit = [&](std::uint64_t kind) -> std::string {
    if (kind == 4) {
      model.set_cost(random_var(), rng.uniform(-2, 2));
      return "cost";
    }
    if (kind == 0) {
      const RowId row{static_cast<int>(rng.below(static_cast<std::uint64_t>(model.num_rows())))};
      model.set_rhs(row, model.rhs(row) + rng.uniform(-1, 1));
      return "rhs";
    }
    if (kind == 1 && !pins.empty()) {
      const auto k = static_cast<std::ptrdiff_t>(rng.below(pins.size()));
      const Pin pin = pins[static_cast<std::size_t>(k)];
      pins.erase(pins.begin() + k);
      model.set_bounds(pin.var, pin.lower, pin.upper);
      return "release";
    }
    if (kind == 2) {
      // A drift: every column of a random third moves by its own factor.
      for (int j = 0; j < n; ++j)
        if (rng.bernoulli(0.3)) scale_column(model, VarId{j}, rng.uniform(0.5, 2.0));
      return "scale";
    }
    const VarId var = random_var();
    if (std::any_of(pins.begin(), pins.end(), [var](const Pin& p) { return p.var == var; }))
      return "none";
    const double lo = model.lower(var);
    const double hi = model.upper(var);
    double v = rng.uniform(-1, 1);
    if (std::isfinite(lo) && std::isfinite(hi)) {
      v = lo + rng.uniform() * (hi - lo);
    } else if (std::isfinite(lo)) {
      v = lo + rng.uniform(0.0, 2.0);
    } else if (std::isfinite(hi)) {
      v = hi - rng.uniform(0.0, 2.0);
    }
    pins.push_back({var, lo, hi});
    model.set_bounds(var, v, v);
    return "pin";
  };

  // Each step makes one or two edits, so that a primal and a dual
  // infeasibility can meet in one re-solve.  One step changes a cost and
  // moves an rhs or pins a column with it.
  const int cost_step = static_cast<int>(rng.below(kSteps));
  for (int step = 0; step < kSteps; ++step) {
    std::string what;
    if (step == cost_step) {
      what = edit(4) + "+" + edit(rng.bernoulli(0.5) ? 0 : 3);
    } else {
      what = edit(rng.below(4));
      if (rng.bernoulli(0.5)) {
        what += '+';
        what += edit(rng.below(4));
      }
    }
    last = solve_revised(model, {}, basis.empty() ? nullptr : &basis);
    expect_oracle_optimum(model, last, "step " + std::to_string(step) + " (" + what + ")");
    if (last.solved()) basis = last.basis;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLps, LpWarmEdits, ::testing::Range<std::uint64_t>(1, 41));

// Options::stall_limit = 0 stops the dual at its first zero-length step, and
// primal phase 1 takes over from the basis it reached.  The solve must
// still reach the oracle's optimum.
TEST(LpWarmEdits, ZeroStallLimitHandsOverToPhase1) {
  const ShapedLp base = make_shaped(30, 6, 0x57a11);
  const Solution start = solve_revised(base.model);
  ASSERT_EQ(start.status, Status::kOptimal);
  const ShapedLp epoch = make_shaped(30, 6, 0x57a11, 0.1);
  Options opt;
  opt.stall_limit = 0;
  const Solution warm = solve_revised(epoch.model, opt, &start.basis);
  EXPECT_GT(warm.phase1_iterations, 0);
  expect_oracle_optimum(epoch.model, warm, "stall limit 0");
}

}  // namespace
}  // namespace nwlb::lp
