// Property-based cross-validation: random LPs solved by both the dense
// tableau oracle and the sparse revised simplex must agree on status and,
// when optimal, on the objective value.  Parameterized over seeds so each
// seed is an independent ctest case.
#include <gtest/gtest.h>

#include <cmath>

#include "lp/dense_simplex.h"
#include "lp/revised_simplex.h"
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

}  // namespace
}  // namespace nwlb::lp
