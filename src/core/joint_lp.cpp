#include "core/joint_lp.h"

#include <algorithm>
#include <map>
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

  comm_normalizer_ = 0.0;
  for (const auto& cls : in.classes)
    comm_normalizer_ += cls.sessions * options_.record_bytes;
  if (comm_normalizer_ <= 0.0) comm_normalizer_ = 1.0;

  load_cost_var_ = model_.add_variable(0.0, lp::kInf, 1.0, "LoadCost");

  std::map<topo::LinkId, std::vector<std::pair<lp::VarId, double>>> link_terms;

  for (std::size_t c = 0; c < in.classes.size(); ++c) {
    const auto& cls = in.classes[c];
    const auto path_nodes = cls.fwd_nodes();

    // Signature: session-level coverage with optional DC replication.
    const lp::RowId sig_cov =
        model_.add_row(lp::Sense::kEqual, 1.0, "sig_cov_c" + std::to_string(c));
    for (topo::NodeId j : path_nodes) {
      const lp::VarId p = model_.add_variable(0.0, 1.0, 0.0);
      model_.add_coefficient(sig_cov, p, 1.0);
      sig_p_.push_back(Var{static_cast<int>(c), j, -1, p});
      if (!in.mirror_sets.empty()) {
        for (int mirror : in.mirror_sets[static_cast<std::size_t>(j)]) {
          if (mirror < in.num_pops() &&
              std::binary_search(path_nodes.begin(), path_nodes.end(), mirror))
            continue;
          const lp::VarId o = model_.add_variable(0.0, 1.0, 0.0);
          model_.add_coefficient(sig_cov, o, 1.0);
          sig_o_.push_back(Var{static_cast<int>(c), j, mirror, o});
          const topo::NodeId target_pop = in.attach_pop_of(mirror);
          if (target_pop != j) {
            const double bytes = cls.sessions * cls.bytes_per_session;
            for (topo::LinkId l : routing.links_on_path(j, target_pop))
              link_terms[l].emplace_back(o, bytes);
          }
        }
      }
    }

    // Scan: source-level split over on-path nodes, reports to the ingress.
    const lp::RowId scan_cov =
        model_.add_row(lp::Sense::kEqual, 1.0, "scan_cov_c" + std::to_string(c));
    for (topo::NodeId j : path_nodes) {
      const double comm = cls.sessions * options_.record_bytes *
                          static_cast<double>(routing.distance(j, cls.ingress));
      const lp::VarId q =
          model_.add_variable(0.0, 1.0, options_.beta * comm / comm_normalizer_);
      model_.add_coefficient(scan_cov, q, 1.0);
      scan_p_.push_back(Var{static_cast<int>(c), j, -1, q});
    }
  }

  // Shared load rows: both analyses stress the same nodes.
  for (int node = 0; node < in.num_processing_nodes(); ++node) {
    for (int r = 0; r < nids::kNumResources; ++r) {
      const auto res = static_cast<nids::Resource>(r);
      if (in.footprint.on(res) <= 0.0) continue;
      const double cap = in.capacities.of(node, res);
      const lp::RowId row = model_.add_row(lp::Sense::kLessEqual, 0.0);
      bool any = false;
      auto add = [&](const std::vector<Var>& vars, double share, bool by_target) {
        for (const Var& v : vars) {
          const int loaded_node = by_target ? v.target : v.node;
          if (loaded_node != node) continue;
          const auto& cls = in.classes[static_cast<std::size_t>(v.class_index)];
          model_.add_coefficient(
              row, v.var,
              share * in.footprint_of(v.class_index, res) * cls.sessions / cap);
          any = true;
        }
      };
      add(sig_p_, options_.signature_share, false);
      add(sig_o_, options_.signature_share, true);
      add(scan_p_, options_.scan_share, false);
      if (any) model_.add_coefficient(row, load_cost_var_, -1.0);
    }
  }

  // DC access link for replicated signature traffic.
  if (in.has_datacenter() && in.dc_access_capacity > 0.0) {
    const lp::RowId row =
        model_.add_row(lp::Sense::kLessEqual, in.max_link_load, "dc_access");
    for (const Var& v : sig_o_) {
      if (v.target != in.datacenter_id()) continue;
      const auto& cls = in.classes[static_cast<std::size_t>(v.class_index)];
      model_.add_coefficient(row, v.var,
                             cls.sessions * cls.bytes_per_session / in.dc_access_capacity);
    }
  }

  // MaxLinkLoad rows for the replication traffic.
  for (const auto& [link, terms] : link_terms) {
    const double cap = in.link_capacity[static_cast<std::size_t>(link)];
    const double bg_util = in.background_bytes[static_cast<std::size_t>(link)] / cap;
    const double budget = std::max(in.max_link_load, bg_util) - bg_util;
    const lp::RowId row = model_.add_row(lp::Sense::kLessEqual, budget);
    for (const auto& [var, bytes] : terms) model_.add_coefficient(row, var, bytes / cap);
  }
}

JointResult JointLp::solve(const lp::Options& lp_options, const lp::Basis* warm) const {
  const lp::Solution solution = lp::solve_revised(model_, lp_options, warm);
  if (!solution.solved())
    throw std::runtime_error("JointLp::solve: solver returned " +
                             lp::to_string(solution.status));
  const ProblemInput& in = *input_;
  JointResult result;
  result.lp = solution;
  result.signature.process.assign(in.classes.size(), {});
  result.signature.offloads.assign(in.classes.size(), {});
  result.scan.process.assign(in.classes.size(), {});
  result.scan.offloads.assign(in.classes.size(), {});
  constexpr double kEps = 1e-9;
  for (const Var& v : sig_p_) {
    const double value = solution.value(v.var);
    if (value > kEps)
      result.signature.process[static_cast<std::size_t>(v.class_index)].push_back(
          ProcessShare{v.node, value});
  }
  for (const Var& v : sig_o_) {
    const double value = solution.value(v.var);
    if (value > kEps) {
      auto& dest = result.signature.offloads[static_cast<std::size_t>(v.class_index)];
      dest.push_back(Offload{v.node, v.target, value, nids::Direction::kForward});
      dest.push_back(Offload{v.node, v.target, value, nids::Direction::kReverse});
    }
  }
  for (const Var& v : scan_p_) {
    const double value = solution.value(v.var);
    if (value > kEps) {
      result.scan.process[static_cast<std::size_t>(v.class_index)].push_back(
          ProcessShare{v.node, value});
      const auto& cls = in.classes[static_cast<std::size_t>(v.class_index)];
      result.comm_cost += cls.sessions * value * options_.record_bytes *
                          static_cast<double>(in.routing->distance(v.node, cls.ingress));
    }
  }

  // Combined load: scale each analysis's refresh by its footprint share.
  refresh_metrics(in, result.signature);
  refresh_metrics(in, result.scan);
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
