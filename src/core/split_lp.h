// The split-traffic formulation (§5): asymmetric forward/reverse routes.
//
// Coverage of a class is only meaningful when both directions are observed
// by a consistent set of nodes: cov_c = min(cov_fwd, cov_rev, 1), where
// common-path nodes contribute to both directions and per-direction
// offloads to the single datacenter contribute to one.  Full coverage may
// be infeasible, so the objective trades LoadCost against the
// session-weighted MissRate with weight gamma (Eq. 11).
#pragma once

#include "core/formulation.h"
#include "lp/revised_simplex.h"

namespace nwlb::core {

/// Which vantage points may process traffic (the Fig. 16/17 architectures).
enum class SplitMode {
  kIngressOnly,     // Only the forward-path ingress, and only if common.
  kOnPathOnly,      // Any common-path node ("Path, no replicate").
  kWithDatacenter,  // Common-path nodes plus per-direction DC replication.
};

struct SplitOptions {
  SplitMode mode = SplitMode::kWithDatacenter;
  double gamma = 100.0;  // Miss-rate weight; large => misses dominate.

  /// §5 "Extensions": when true the objective uses the worst class's miss
  /// fraction (max_c (1 - cov_c)) instead of the traffic-weighted mean.
  bool max_class_miss = false;
};

class SplitTrafficLp {
 public:
  /// `input.datacenter` must be set when mode == kWithDatacenter.
  SplitTrafficLp(const ProblemInput& input, SplitOptions options = {});

  /// Solves and decodes; always feasible (coverage may simply fall short,
  /// also when the failure mask leaves a class no vantage point).
  Assignment solve(const lp::Options& lp_options = {},
                   const lp::Basis* warm = nullptr) const;

  const lp::Model& model() const { return model_; }

 private:
  void build();

  const ProblemInput* input_;
  SplitOptions options_;
  lp::Model model_;
  std::vector<Column> columns_;
};

}  // namespace nwlb::core
