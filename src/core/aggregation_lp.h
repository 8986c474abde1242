// The aggregation formulation (§6, Fig. 9).
//
// An aggregatable analysis (Scan detection with a source-level split) is
// distributed across on-path nodes; each node ships intermediate reports
// of Rec_c bytes per assigned session to the class's aggregation point
// D_{c,j} hops away.  Objective: LoadCost + beta * CommCost, where
// CommCost is measured in byte-hops.  There are no link-cap rows — report
// traffic is negligible next to data traffic (§6).
#pragma once

#include "core/formulation.h"
#include "lp/revised_simplex.h"

namespace nwlb::core {

struct AggregationOptions {
  double beta = 1.0;

  /// Bytes of intermediate report per assigned session (Rec_c); the
  /// source-level split costs 8 bytes per row (shim/aggregation.h).
  double record_bytes = 8.0;

  /// Aggregation point: the class ingress when -1 (the host's gateway is
  /// best placed to alert, §6); otherwise a fixed PoP.
  topo::NodeId fixed_aggregation_point = -1;
};

class AggregationLp {
 public:
  /// Throws std::invalid_argument on a negative beta, a non-positive
  /// record_bytes or a fixed_aggregation_point that is neither -1 nor a PoP.
  AggregationLp(const ProblemInput& input, AggregationOptions options = {});

  /// Throws std::runtime_error unless the solver returns kOptimal.  Every
  /// class needs full coverage and there is no coverage slack, so a class
  /// whose every on-path node is down makes the LP infeasible.
  Assignment solve(const lp::Options& lp_options = {},
                   const lp::Basis* warm = nullptr) const;

  const lp::Model& model() const { return model_; }

  /// D_{c,j}: hops from node j to class c's aggregation point.
  int report_distance(int class_index, topo::NodeId node) const;

 private:
  void build();

  const ProblemInput* input_;
  AggregationOptions options_;
  lp::Model model_;
  std::vector<Column> columns_;
};

}  // namespace nwlb::core
