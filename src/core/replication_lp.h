// The replication formulation (§4, Fig. 7).
//
// Decision variables: p_{c,j} (fraction of class c processed on-path at j)
// and o_{c,j,j'} (fraction replicated from on-path j to mirror j').
// Objective: minimize LoadCost = max_{r,j} Load_j^r, subject to full
// coverage per class and the MaxLinkLoad cap on replication traffic.
//
// The §4 "Extensions" piecewise link-cost model is available as an option:
// instead of a hard per-link cap, exceeding utilization is permitted at an
// increasing objective penalty (Fortz–Thorup style).
#pragma once

#include "core/assignment.h"
#include "core/problem.h"
#include "lp/model.h"
#include "lp/revised_simplex.h"

namespace nwlb::core {

enum class LinkCostModel {
  kHardCap,    // Eq. (5): LinkLoad_l <= max(MaxLinkLoad, BG_l).
  kPiecewise,  // Soft cap with piecewise-linear overload penalties.
};

struct ReplicationOptions {
  LinkCostModel link_cost = LinkCostModel::kHardCap;
  // Piecewise mode: utilization above MaxLinkLoad costs `penalty_low` per
  // unit up to `knee`, and `penalty_high` per unit beyond.
  double knee = 0.8;
  double penalty_low = 0.05;
  double penalty_high = 0.5;
};

class ReplicationLp {
 public:
  /// Builds the LP; `input` must outlive this object and already be
  /// validated consistent (validate() is called here).
  explicit ReplicationLp(const ProblemInput& input, ReplicationOptions options = {});

  /// Solves and decodes the assignment.  Throws std::runtime_error unless
  /// the solver returns a deployable solution — kOptimal, or kGoodEnough
  /// when Options::objective_tolerance allows a certified approximation.
  /// (The formulation is always feasible: processing everything locally
  /// satisfies every constraint, and under a failure mask per-class
  /// coverage slack keeps it so.)
  Assignment solve(const lp::Options& lp_options = {},
                   const lp::Basis* warm = nullptr) const;

  /// Non-throwing variant for callers with a fallback path (the degraded
  /// control loop): `status` reports the solver outcome and `assignment`
  /// is decoded only when lp::solved(status) holds.
  struct SolveResult {
    lp::Status status = lp::Status::kIterationLimit;
    Assignment assignment;
  };
  SolveResult try_solve(const lp::Options& lp_options = {},
                        const lp::Basis* warm = nullptr) const;

  /// Structural column indices owned by `class_indices` (their p/o and
  /// coverage-slack variables) plus the shared LoadCost column — the
  /// Options::priority_columns set for a per-class delta re-solve when only
  /// those classes' demands changed since the warm basis was taken.
  std::vector<int> priority_columns_for(const std::vector<int>& class_indices) const;

  const lp::Model& model() const { return model_; }
  int num_process_vars() const { return static_cast<int>(p_vars_.size()); }
  int num_offload_vars() const { return static_cast<int>(o_vars_.size()); }

 private:
  void build();

  struct PVar {
    int class_index;
    int node;
    lp::VarId var;
  };
  struct OVar {
    int class_index;
    int from;
    int to;
    lp::VarId var;
  };

  const ProblemInput* input_;
  ReplicationOptions options_;
  lp::Model model_;
  lp::VarId load_cost_var_;
  std::vector<PVar> p_vars_;
  std::vector<OVar> o_vars_;
  std::vector<lp::VarId> slack_vars_;  // One coverage slack per class.
};

}  // namespace nwlb::core
