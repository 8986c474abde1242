#include "core/joint_lp.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace nwlb::core {

JointLp::JointLp(const ProblemInput& input, JointOptions options)
    : input_(&input), options_(options) {
  input.validate();
  if (options_.beta < 0.0 || options_.record_bytes <= 0.0 ||
      options_.signature_share < 0.0 || options_.scan_share < 0.0)
    throw std::invalid_argument("JointLp: malformed options");
  build();
}

void JointLp::build() {
  const ProblemInput& in = *input_;
  const auto& routing = *in.routing;

  double comm_normalizer = 0.0;
  for (const auto& cls : in.classes) comm_normalizer += cls.sessions * options_.record_bytes;
  if (comm_normalizer <= 0.0) comm_normalizer = 1.0;

  const lp::VarId load_cost = model_.add_variable(0.0, lp::kInf, 1.0, "LoadCost");
  // Shared load rows: both analyses stress the same nodes.
  SharedRows rows(in, model_);

  for (std::size_t c = 0; c < in.classes.size(); ++c) {
    const auto& cls = in.classes[c];
    const auto path_nodes = cls.fwd_nodes();
    const int k = static_cast<int>(c);

    // Signature: session-level coverage with optional DC replication.
    const lp::RowId sig_cov =
        model_.add_row(lp::Sense::kEqual, 1.0, "sig_cov_c" + std::to_string(c));
    const auto cover = [&](const Column& column) {
      model_.add_coefficient(sig_cov, column.var, 1.0);
      signature_.push_back(column);
    };
    for (topo::NodeId j : path_nodes) {
      cover(rows.add({.class_index = k, .node = j}, options_.signature_share));
      if (in.mirror_sets.empty()) continue;
      for (int mirror : in.mirror_sets[static_cast<std::size_t>(j)]) {
        if (mirror < in.num_pops() &&
            std::binary_search(path_nodes.begin(), path_nodes.end(), mirror))
          continue;
        cover(rows.add({.class_index = k, .node = mirror, .from = j}, options_.signature_share));
      }
    }

    // Scan: source-level split over on-path nodes, reports to the ingress.
    const lp::RowId scan_cov =
        model_.add_row(lp::Sense::kEqual, 1.0, "scan_cov_c" + std::to_string(c));
    for (topo::NodeId j : path_nodes) {
      const double comm = cls.sessions * options_.record_bytes *
                          static_cast<double>(routing.distance(j, cls.ingress));
      const Column q = rows.add({.class_index = k, .node = j}, options_.scan_share,
                                options_.beta * comm / comm_normalizer);
      model_.add_coefficient(scan_cov, q.var, 1.0);
      scan_.push_back(q);
    }
  }
  rows.finish(load_cost);
}

JointResult JointLp::solve(const lp::Options& lp_options, const lp::Basis* warm) const {
  const ProblemInput& in = *input_;
  JointResult result;
  result.lp = solve_or_throw(model_, "JointLp", lp_options, warm);
  result.signature = decode(in, signature_, result.lp);
  result.scan = decode(in, scan_, result.lp);
  for (std::size_t c = 0; c < in.classes.size(); ++c) {
    const auto& cls = in.classes[c];
    for (const ProcessShare& share : result.scan.process[c])
      result.comm_cost += cls.sessions * share.fraction * options_.record_bytes *
                          static_cast<double>(in.routing->distance(share.node, cls.ingress));
  }

  // Combined load: scale each analysis's loads by its footprint share.
  const int nodes = in.num_processing_nodes();
  result.combined_load.assign(static_cast<std::size_t>(nodes), {});
  for (int j = 0; j < nodes; ++j) {
    for (int r = 0; r < nids::kNumResources; ++r) {
      const double combined =
          options_.signature_share *
              result.signature.node_load[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)] +
          options_.scan_share *
              result.scan.node_load[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)];
      result.combined_load[static_cast<std::size_t>(j)][static_cast<std::size_t>(r)] = combined;
      result.load_cost = std::max(result.load_cost, combined);
    }
  }
  return result;
}

}  // namespace nwlb::core
