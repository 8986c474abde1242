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
  const topo::NodeId point = options_.fixed_aggregation_point;
  if (point < -1 || point >= input.num_pops()) {
    std::string message(
        "AggregationLp: fixed_aggregation_point must be -1 (the class ingress) or a PoP in [0, ");
    message += std::to_string(input.num_pops()) + "), got " + std::to_string(point);
    throw std::invalid_argument(message);
  }
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
  double comm_normalizer = 0.0;
  for (const auto& cls : in.classes) comm_normalizer += cls.sessions * options_.record_bytes;
  if (comm_normalizer <= 0.0) comm_normalizer = 1.0;

  const lp::VarId load_cost = model_.add_variable(0.0, lp::kInf, 1.0, "LoadCost");
  SharedRows rows(in, model_);
  for (std::size_t c = 0; c < in.classes.size(); ++c) {
    const auto& cls = in.classes[c];
    const int k = static_cast<int>(c);
    const lp::RowId coverage =
        model_.add_row(lp::Sense::kEqual, 1.0, "cov_c" + std::to_string(c));
    for (topo::NodeId j : cls.fwd_nodes()) {
      const double comm =
          cls.sessions * options_.record_bytes * static_cast<double>(report_distance(k, j));
      const Column p =
          rows.add({.class_index = k, .node = j}, 1.0, options_.beta * comm / comm_normalizer);
      model_.add_coefficient(coverage, p.var, 1.0);
      columns_.push_back(p);
    }
  }
  rows.finish(load_cost);
}

Assignment AggregationLp::solve(const lp::Options& lp_options, const lp::Basis* warm) const {
  Assignment a =
      decode(*input_, columns_, solve_or_throw(model_, "AggregationLp", lp_options, warm));
  for (std::size_t c = 0; c < a.process.size(); ++c) {
    const auto& cls = input_->classes[c];
    for (const ProcessShare& share : a.process[c])
      a.comm_cost += cls.sessions * share.fraction * options_.record_bytes *
                     static_cast<double>(report_distance(static_cast<int>(c), share.node));
  }
  return a;
}

}  // namespace nwlb::core
