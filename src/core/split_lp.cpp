#include "core/split_lp.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace nwlb::core {

SplitTrafficLp::SplitTrafficLp(const ProblemInput& input, SplitOptions options)
    : input_(&input), options_(options) {
  input.validate();
  if (options_.mode == SplitMode::kWithDatacenter && !input.has_datacenter())
    throw std::invalid_argument("SplitTrafficLp: kWithDatacenter needs a datacenter");
  if (options_.gamma <= 0.0)
    throw std::invalid_argument("SplitTrafficLp: gamma must be positive");
  build();
}

void SplitTrafficLp::build() {
  const ProblemInput& in = *input_;
  const auto& routing = *in.routing;
  const double total = traffic::total_sessions(in.classes);

  load_cost_var_ = model_.add_variable(0.0, lp::kInf, 1.0, "LoadCost");
  lp::VarId worst_miss{};
  if (options_.max_class_miss)
    worst_miss = model_.add_variable(0.0, 1.0, options_.gamma, "WorstMiss");

  // Per-link accumulation for the MaxLinkLoad rows.
  std::vector<std::vector<std::pair<lp::VarId, double>>> link_terms(
      static_cast<std::size_t>(routing.graph().num_directed_links()));

  for (std::size_t c = 0; c < in.classes.size(); ++c) {
    const auto& cls = in.classes[c];
    const auto common = cls.common_nodes();

    // cov_c with its share of the MissRate objective.
    const double weight =
        options_.max_class_miss ? 0.0 : options_.gamma * cls.sessions / total;
    const lp::VarId cov =
        model_.add_variable(0.0, 1.0, -weight, "cov_c" + std::to_string(c));
    cov_vars_.push_back(cov);

    // cov_fwd / cov_rev as bounded expression variables.
    const lp::VarId cov_fwd = model_.add_variable(0.0, 1.0, 0.0);
    const lp::VarId cov_rev = model_.add_variable(0.0, 1.0, 0.0);
    const lp::RowId def_fwd = model_.add_row(lp::Sense::kEqual, 0.0);
    const lp::RowId def_rev = model_.add_row(lp::Sense::kEqual, 0.0);
    model_.add_coefficient(def_fwd, cov_fwd, -1.0);
    model_.add_coefficient(def_rev, cov_rev, -1.0);

    // Eligible processing nodes (always common-path nodes).
    std::vector<topo::NodeId> eligible;
    if (options_.mode == SplitMode::kIngressOnly) {
      if (std::binary_search(common.begin(), common.end(), cls.ingress))
        eligible.push_back(cls.ingress);
    } else {
      eligible = common;
    }
    for (topo::NodeId j : eligible) {
      const lp::VarId p = model_.add_variable(0.0, 1.0, 0.0);
      model_.add_coefficient(def_fwd, p, 1.0);
      model_.add_coefficient(def_rev, p, 1.0);
      p_vars_.push_back(PVar{static_cast<int>(c), j, p});
    }

    if (options_.mode == SplitMode::kWithDatacenter) {
      const topo::NodeId attach = in.datacenter.attach_pop;
      auto add_offloads = [&](const std::vector<topo::NodeId>& nodes,
                              nids::Direction dir, lp::RowId def_row) {
        for (topo::NodeId j : nodes) {
          const lp::VarId o = model_.add_variable(0.0, 1.0, 0.0);
          model_.add_coefficient(def_row, o, 1.0);
          o_vars_.push_back(OVar{static_cast<int>(c), j, dir, o});
          if (j != attach) {
            const double bytes = 0.5 * cls.sessions * cls.bytes_per_session;
            for (topo::LinkId l : routing.links_on_path(j, attach))
              link_terms[static_cast<std::size_t>(l)].emplace_back(o, bytes);
          }
        }
      };
      add_offloads(cls.fwd_nodes(), nids::Direction::kForward, def_fwd);
      add_offloads(cls.rev_nodes(), nids::Direction::kReverse, def_rev);
    }

    // cov <= cov_fwd, cov <= cov_rev.
    const lp::RowId bound_f = model_.add_row(lp::Sense::kLessEqual, 0.0);
    model_.add_coefficient(bound_f, cov, 1.0);
    model_.add_coefficient(bound_f, cov_fwd, -1.0);
    const lp::RowId bound_r = model_.add_row(lp::Sense::kLessEqual, 0.0);
    model_.add_coefficient(bound_r, cov, 1.0);
    model_.add_coefficient(bound_r, cov_rev, -1.0);

    if (options_.max_class_miss) {
      // worst_miss >= 1 - cov_c.
      const lp::RowId wm = model_.add_row(lp::Sense::kGreaterEqual, 1.0);
      model_.add_coefficient(wm, worst_miss, 1.0);
      model_.add_coefficient(wm, cov, 1.0);
    }
  }

  // Load rows.
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
      if (in.has_datacenter() && node == in.datacenter_id()) {
        for (const OVar& ov : o_vars_) {
          const auto& cls = in.classes[static_cast<std::size_t>(ov.class_index)];
          model_.add_coefficient(
              row, ov.var,
              0.5 * in.footprint_of(ov.class_index, res) * cls.sessions / cap);
          any = true;
        }
      }
      if (any) model_.add_coefficient(row, load_cost_var_, -1.0);
    }
  }

  // DC access link: every per-direction offload crosses the cluster uplink.
  if (in.has_datacenter() && in.dc_access_capacity > 0.0 && !o_vars_.empty()) {
    const lp::RowId row =
        model_.add_row(lp::Sense::kLessEqual, in.max_link_load, "dc_access");
    for (const OVar& ov : o_vars_) {
      const auto& cls = in.classes[static_cast<std::size_t>(ov.class_index)];
      model_.add_coefficient(
          row, ov.var,
          0.5 * cls.sessions * cls.bytes_per_session / in.dc_access_capacity);
    }
  }

  // Link rows.
  for (std::size_t l = 0; l < link_terms.size(); ++l) {
    if (link_terms[l].empty()) continue;
    const double cap = in.link_capacity[l];
    const double bg_util = in.background_bytes[l] / cap;
    const double budget = std::max(in.max_link_load, bg_util) - bg_util;
    const lp::RowId row = model_.add_row(lp::Sense::kLessEqual, budget);
    for (const auto& [var, bytes] : link_terms[l])
      model_.add_coefficient(row, var, bytes / cap);
  }
}

Assignment SplitTrafficLp::solve(const lp::Options& lp_options, const lp::Basis* warm) const {
  const lp::Solution solution = lp::solve_revised(model_, lp_options, warm);
  if (!solution.solved())
    throw std::runtime_error("SplitTrafficLp::solve: solver returned " +
                             lp::to_string(solution.status));
  const ProblemInput& in = *input_;
  Assignment a;
  a.process.assign(in.classes.size(), {});
  a.offloads.assign(in.classes.size(), {});
  constexpr double kEps = 1e-9;
  for (const PVar& pv : p_vars_) {
    const double v = solution.value(pv.var);
    if (v > kEps)
      a.process[static_cast<std::size_t>(pv.class_index)].push_back(ProcessShare{pv.node, v});
  }
  for (const OVar& ov : o_vars_) {
    const double v = solution.value(ov.var);
    if (v > kEps)
      a.offloads[static_cast<std::size_t>(ov.class_index)].push_back(
          Offload{ov.from, in.datacenter_id(), v, ov.direction});
  }
  refresh_metrics(in, a);
  a.lp = solution;
  return a;
}

}  // namespace nwlb::core
