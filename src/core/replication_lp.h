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

#include "core/formulation.h"
#include "lp/revised_simplex.h"

namespace nwlb::core {

enum class LinkCostModel {
  kHardCap,    // Eq. (5): LinkLoad_l <= max(MaxLinkLoad, BG_l).
  kPiecewise,  // Soft cap with piecewise-linear overload penalties.
};

struct ReplicationOptions {
  LinkCostModel link_cost = LinkCostModel::kHardCap;
  // Piecewise mode: utilization above MaxLinkLoad costs `penalty_low` per
  // unit up to `knee`, and `penalty_high` per unit beyond.  The constructor
  // rejects non-finite values and anything but 0 <= penalty_low <=
  // penalty_high: the slabs must stay convex to model the cost.
  double knee = 0.8;
  double penalty_low = 0.05;
  double penalty_high = 0.5;
};

class ReplicationLp {
 public:
  /// Builds the LP; `input` must outlive this object and already be
  /// validated consistent (validate() is called here).  Throws
  /// std::invalid_argument on malformed piecewise options.
  explicit ReplicationLp(const ProblemInput& input, ReplicationOptions options = {});

  /// Solves and decodes the assignment.  Throws std::runtime_error unless
  /// the solver returns kOptimal.  (The formulation is always feasible:
  /// processing everything locally satisfies every constraint, and under a
  /// failure mask per-class coverage slack keeps it so.)
  Assignment solve(const lp::Options& lp_options = {},
                   const lp::Basis* warm = nullptr) const;

  /// Non-throwing variant for callers with a fallback path (the degraded
  /// control loop): `status` reports the solver outcome and `assignment`
  /// is decoded only when status is kOptimal.
  struct SolveResult {
    lp::Status status = lp::Status::kIterationLimit;
    Assignment assignment;
  };
  SolveResult try_solve(const lp::Options& lp_options = {},
                        const lp::Basis* warm = nullptr) const;

  const lp::Model& model() const { return model_; }
  /// Process (p) and offload (o) columns together.
  int num_share_columns() const { return static_cast<int>(columns_.size()); }

 private:
  void build();

  const ProblemInput* input_;
  ReplicationOptions options_;
  lp::Model model_;
  std::vector<Column> columns_;
};

}  // namespace nwlb::core
