// Column blocks never change a solve.  The revised simplex may split its
// pivot-row walk and dual refresh into column blocks run on a thread team;
// every block count must make the same pivots and return the same bits.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "core/replication_lp.h"
#include "core/scenario.h"
#include "lp/revised_simplex.h"
#include "lp_shaped.h"
#include "topo/topology.h"
#include "traffic/matrix.h"

namespace nwlb::lp {
namespace {

constexpr int kBlockCounts[] = {1, 2, 3};

struct PivotCounts {
  int iterations;
  int phase1_iterations;
  int refactorizations;
};

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_same_values(const std::vector<double>& want, const std::vector<double>& got,
                        const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (!same_bits(got[i], want[i])) {
      ADD_FAILURE() << what << "[" << i << "] differs: " << got[i] << " vs " << want[i];
      return;
    }
  }
}

/// Bit-for-bit equality of everything a solve returns except its timings.
void expect_identical(const Solution& want, const Solution& got) {
  EXPECT_EQ(got.status, want.status);
  EXPECT_TRUE(same_bits(got.objective, want.objective))
      << got.objective << " vs " << want.objective;
  expect_same_values(want.x, got.x, "x");
  expect_same_values(want.duals, got.duals, "duals");
  EXPECT_EQ(got.basis.basic, want.basis.basic);
  EXPECT_TRUE(got.basis.nonbasic_state == want.basis.nonbasic_state);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.phase1_iterations, want.phase1_iterations);
  EXPECT_EQ(got.refactorizations, want.refactorizations);
}

/// One solve scenario run entirely at a given block count.
using BlockedSolve = std::function<Solution(int blocks)>;

Solution solve_in(int blocks, const Model& model, const Options& options = {},
                  const Basis* warm = nullptr) {
  return detail::solve_revised_in_blocks(model, options, warm, blocks);
}

/// Runs `scenario` at every block count: the one-block solve must hit the
/// pinned counts (recorded before the solver had blocks), and every other
/// block count must reproduce it bit for bit.
void expect_block_invariant(const BlockedSolve& scenario, PivotCounts pinned) {
  const Solution reference = scenario(1);
  ASSERT_TRUE(reference.optimal()) << to_string(reference.status);
  EXPECT_EQ(reference.iterations, pinned.iterations);
  EXPECT_EQ(reference.phase1_iterations, pinned.phase1_iterations);
  EXPECT_EQ(reference.refactorizations, pinned.refactorizations);
  for (const int blocks : kBlockCounts) {
    SCOPED_TRACE(testing::Message() << blocks << " blocks");
    expect_identical(reference, scenario(blocks));
  }
}

// The PivotIdentity scenarios of lp_steepest_test, at 1, 2 and 3 blocks.
TEST(ColumnBlocks, ColdShapedSolve) {
  const ShapedLp shaped = make_shaped(150, 12, 0x90d1);
  expect_block_invariant([&](int blocks) { return solve_in(blocks, shaped.model); },
                         {1228, 158, 14});
}

TEST(ColumnBlocks, WarmResolveAfterLoadRowDrift) {
  const ShapedLp base = make_shaped(150, 12, 0x90d1);
  const ShapedLp epoch = make_shaped(150, 12, 0x90d1, 0.1);
  expect_block_invariant(
      [&](int blocks) {
        const Solution start = solve_in(blocks, base.model);
        return solve_in(blocks, epoch.model, {}, &start.basis);
      },
      {46, 0, 1});
}

TEST(ColumnBlocks, DegenerateBlandSolve) {
  const ShapedLp shaped = make_shaped(80, 8, 0xb1a4d);
  Options bland_opt;
  bland_opt.stall_limit = 2;
  expect_block_invariant([&](int blocks) { return solve_in(blocks, shaped.model, bland_opt); },
                         {2011, 94, 22});
}

// A real ISP-size replication LP, large enough that the solver splits it on
// its own: the controller's steady state, a warm re-solve after demand
// drifted, must not depend on the block count either.
TEST(ColumnBlocks, SprintWarmResolveAfterLoadDrift) {
  const topo::Topology sprint = topo::topology_by_name("Sprint");
  const auto tm = traffic::gravity_matrix(
      sprint.graph, traffic::paper_total_sessions(sprint.graph.num_nodes()));
  const core::Scenario scenario(sprint, tm);
  const core::ReplicationLp base(scenario.problem(core::Architecture::kPathReplicate));
  const Solution cold = solve_revised(base.model());
  ASSERT_TRUE(cold.optimal()) << to_string(cold.status);

  // Every 7th class gains 10% demand: its load-row coefficients move.
  auto drifted_tm = tm;
  int positive = 0;
  for (int src = 0; src < drifted_tm.num_nodes(); ++src) {
    for (int dst = 0; dst < drifted_tm.num_nodes(); ++dst) {
      const double v = drifted_tm.volume(src, dst);
      if (v > 0.0 && positive++ % 7 == 0) drifted_tm.set_volume(src, dst, v * 1.1);
    }
  }
  const core::Scenario drifted(sprint, drifted_tm);
  const core::ReplicationLp lp(drifted.problem(core::Architecture::kPathReplicate));

  const Solution reference = solve_in(1, lp.model(), {}, &cold.basis);
  ASSERT_TRUE(reference.optimal()) << to_string(reference.status);
  EXPECT_GT(reference.iterations + reference.phase1_iterations, 0);
  for (const int blocks : kBlockCounts) {
    SCOPED_TRACE(testing::Message() << blocks << " blocks");
    expect_identical(reference, solve_in(blocks, lp.model(), {}, &cold.basis));
  }
  // The solver's own choice matches too.
  expect_identical(reference, solve_revised(lp.model(), {}, &cold.basis));
}

// Eight blocks over a dozen columns leave some blocks empty.
TEST(ColumnBlocks, EmptyBlocksStillSolve) {
  const ShapedLp tiny = make_shaped(2, 2, 0x7117);
  const Solution reference = solve_in(1, tiny.model);
  ASSERT_EQ(reference.status, Status::kOptimal);
  expect_identical(reference, solve_in(8, tiny.model));
}

}  // namespace
}  // namespace nwlb::lp
