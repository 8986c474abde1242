// Joint replication + aggregation formulation (the paper's §9 future work:
// "a unified formulation that combines both opportunities").
//
// Two analyses share every node's capacity:
//   * Signature — session-granularity, self-contained; may run at any
//     on-path node or be replicated to the datacenter (the §4 machinery).
//   * Scan — source-granularity, aggregatable; runs at on-path nodes and
//     ships intermediate reports to the class ingress (the §6 machinery).
// The LP couples them through the shared load rows:
//   minimize LoadCost + beta * CommCost, full coverage for both analyses,
//   MaxLinkLoad caps on the replication traffic.
// The ablation bench (bench/ablation_joint.cpp) compares this against
// optimizing the two analyses independently.
#pragma once

#include "core/formulation.h"
#include "lp/revised_simplex.h"

namespace nwlb::core {

struct JointOptions {
  double beta = 0.05;          // CommCost weight (normalized units).
  double record_bytes = 8.0;   // Scan report row size.
  double signature_share = 0.8;  // Fraction of F_c spent on Signature.
  double scan_share = 0.2;       // Fraction spent on Scan (sums need not be 1).
};

struct JointResult {
  // Each analysis's decisions; both carry the joint solve as `lp`.
  Assignment signature;  // p/o decisions of the session-level analysis.
  Assignment scan;       // q decisions of the aggregatable analysis.
  std::vector<std::array<double, nids::kNumResources>> combined_load;
  double load_cost = 0.0;  // max over nodes/resources of the combined load.
  double comm_cost = 0.0;  // Byte-hops of scan reports.
  lp::Solution lp;
};

class JointLp {
 public:
  JointLp(const ProblemInput& input, JointOptions options = {});

  /// Throws std::runtime_error unless the solver returns kOptimal.  Both
  /// analyses need full coverage and there is no coverage slack, so a
  /// class whose every column the failure mask pins to zero makes the LP
  /// infeasible.
  JointResult solve(const lp::Options& lp_options = {},
                    const lp::Basis* warm = nullptr) const;

  const lp::Model& model() const { return model_; }

 private:
  void build();

  const ProblemInput* input_;
  JointOptions options_;
  lp::Model model_;
  std::vector<Column> signature_;  // p and o columns.
  std::vector<Column> scan_;       // q columns, on-path only.
};

}  // namespace nwlb::core
