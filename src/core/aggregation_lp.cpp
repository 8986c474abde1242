#include "core/aggregation_lp.h"

#include <stdexcept>
#include <string>

namespace nwlb::core {

AggregationLp::AggregationLp(const ProblemInput& input, AggregationOptions options)
    : input_(&input), options_(options) {
  input.validate();
  if (options_.beta < 0.0) throw std::invalid_argument("AggregationLp: negative beta");
  if (options_.record_bytes <= 0.0)
    throw std::invalid_argument("AggregationLp: record_bytes must be positive");
  build();
}

int AggregationLp::report_distance(int class_index, topo::NodeId node) const {
  const auto& cls = input_->classes.at(static_cast<std::size_t>(class_index));
  const topo::NodeId point = options_.fixed_aggregation_point >= 0
                                 ? options_.fixed_aggregation_point
                                 : cls.ingress;
  return input_->routing->distance(node, point);
}

void AggregationLp::build() {
  const ProblemInput& in = *input_;

  // Normalize the communication term so the LP's objective coefficients
  // stay O(1) regardless of traffic volume; raw byte-hops are restored in
  // the decoded Assignment.
  comm_normalizer_ = 0.0;
  for (const auto& cls : in.classes)
    comm_normalizer_ += cls.sessions * options_.record_bytes;
  if (comm_normalizer_ <= 0.0) comm_normalizer_ = 1.0;

  load_cost_var_ = model_.add_variable(0.0, lp::kInf, 1.0, "LoadCost");

  for (std::size_t c = 0; c < in.classes.size(); ++c) {
    const auto& cls = in.classes[c];
    const lp::RowId coverage =
        model_.add_row(lp::Sense::kEqual, 1.0, "cov_c" + std::to_string(c));
    for (topo::NodeId j : cls.fwd_nodes()) {
      const double comm =
          cls.sessions * options_.record_bytes *
          static_cast<double>(report_distance(static_cast<int>(c), j));
      const lp::VarId p =
          model_.add_variable(0.0, 1.0, options_.beta * comm / comm_normalizer_);
      model_.add_coefficient(coverage, p, 1.0);
      p_vars_.push_back(PVar{static_cast<int>(c), j, p});
    }
  }

  for (int node = 0; node < in.num_processing_nodes(); ++node) {
    for (int r = 0; r < nids::kNumResources; ++r) {
      const auto res = static_cast<nids::Resource>(r);
      if (in.footprint.on(res) <= 0.0) continue;
      const double cap = in.capacities.of(node, res);
      const lp::RowId row = model_.add_row(lp::Sense::kLessEqual, 0.0);
      bool any = false;
      for (const PVar& pv : p_vars_) {
        if (pv.node != node) continue;
        const auto& cls = in.classes[static_cast<std::size_t>(pv.class_index)];
        model_.add_coefficient(row, pv.var,
                               in.footprint_of(pv.class_index, res) * cls.sessions / cap);
        any = true;
      }
      if (any) model_.add_coefficient(row, load_cost_var_, -1.0);
    }
  }
}

Assignment AggregationLp::solve(const lp::Options& lp_options, const lp::Basis* warm) const {
  const lp::Solution solution = lp::solve_revised(model_, lp_options, warm);
  if (!solution.optimal())
    throw std::runtime_error("AggregationLp::solve: solver returned " +
                             lp::to_string(solution.status));
  const ProblemInput& in = *input_;
  Assignment a;
  a.process.assign(in.classes.size(), {});
  a.offloads.assign(in.classes.size(), {});
  constexpr double kEps = 1e-9;
  double comm = 0.0;
  for (const PVar& pv : p_vars_) {
    const double v = solution.value(pv.var);
    if (v <= kEps) continue;
    a.process[static_cast<std::size_t>(pv.class_index)].push_back(ProcessShare{pv.node, v});
    const auto& cls = in.classes[static_cast<std::size_t>(pv.class_index)];
    comm += cls.sessions * v * options_.record_bytes *
            static_cast<double>(report_distance(pv.class_index, pv.node));
  }
  refresh_metrics(in, a);
  a.comm_cost = comm;
  a.lp = solution;
  return a;
}

}  // namespace nwlb::core
