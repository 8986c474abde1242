#include "core/replication_lp.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace nwlb::core {

namespace {

// Objective cost per unit of uncovered class fraction when nodes are down.
// Far above any achievable LoadCost, so coverage is sacrificed only when
// the surviving topology truly cannot supply it.
constexpr double kCoverageSlackPenalty = 32.0;

}  // namespace

ReplicationLp::ReplicationLp(const ProblemInput& input, ReplicationOptions options)
    : input_(&input), options_(options) {
  input.validate();
  build();
}

void ReplicationLp::build() {
  const ProblemInput& in = *input_;
  const auto& routing = *in.routing;

  load_cost_var_ = model_.add_variable(0.0, lp::kInf, 1.0, "LoadCost");

  // Decision variables + coverage rows (Eq. 2).  Variables of a failed
  // node are created with (0,0) bounds instead of being removed: the model
  // shape is then independent of the failure mask, so a warm basis from a
  // healthy epoch stays structurally valid across failure transitions.
  // Each class also carries a coverage-slack variable, enabled (bounds
  // (0,1)) only while nodes are down, so a crash that strands a class —
  // e.g. a single-PoP path with no surviving mirror — degrades coverage at
  // a steep objective penalty instead of making Eq. 2 infeasible.
  const bool degraded = in.any_down();
  for (std::size_t c = 0; c < in.classes.size(); ++c) {
    const auto& cls = in.classes[c];
    const auto path_nodes = cls.fwd_nodes();
    const lp::RowId coverage =
        model_.add_row(lp::Sense::kEqual, 1.0, "cov_c" + std::to_string(c));
    for (topo::NodeId j : path_nodes) {
      const double p_ub = in.is_down(j) ? 0.0 : 1.0;
      const lp::VarId p = model_.add_variable(0.0, p_ub, 0.0);
      model_.add_coefficient(coverage, p, 1.0);
      p_vars_.push_back(PVar{static_cast<int>(c), j, p});
      if (in.mirror_sets.empty()) continue;
      for (int mirror : in.mirror_sets[static_cast<std::size_t>(j)]) {
        // Never replicate to a node already on the path (Fig. 7 note).
        if (mirror < in.num_pops() &&
            std::binary_search(path_nodes.begin(), path_nodes.end(), mirror))
          continue;
        // A down source cannot tunnel, a down mirror cannot analyze.
        const double o_ub = (in.is_down(j) || in.is_down(mirror)) ? 0.0 : 1.0;
        const lp::VarId o = model_.add_variable(0.0, o_ub, 0.0);
        model_.add_coefficient(coverage, o, 1.0);
        o_vars_.push_back(OVar{static_cast<int>(c), j, mirror, o});
      }
    }
    const lp::VarId slack = model_.add_variable(0.0, degraded ? 1.0 : 0.0,
                                                kCoverageSlackPenalty);
    model_.add_coefficient(coverage, slack, 1.0);
  }

  // Each processing node's p and o variables in creation order, bucketed in
  // one pass so every load row reads its own bucket instead of scanning all
  // variables; the rows' entry order, and so the model, is unchanged.
  const int num_nodes = in.num_processing_nodes();
  std::vector<std::vector<const PVar*>> p_at(static_cast<std::size_t>(num_nodes));
  std::vector<std::vector<const OVar*>> o_at(static_cast<std::size_t>(num_nodes));
  for (const PVar& pv : p_vars_)
    if (pv.node >= 0 && pv.node < num_nodes) p_at[static_cast<std::size_t>(pv.node)].push_back(&pv);
  for (const OVar& ov : o_vars_)
    if (ov.to >= 0 && ov.to < num_nodes) o_at[static_cast<std::size_t>(ov.to)].push_back(&ov);

  // Load rows (Eq. 3 folded into Eq. 1's epigraph form):
  //   sum_c F_c |T_c| x / Cap_j^r - LoadCost <= 0.
  for (int node = 0; node < num_nodes; ++node) {
    for (int r = 0; r < nids::kNumResources; ++r) {
      const auto res = static_cast<nids::Resource>(r);
      if (in.footprint.on(res) <= 0.0) continue;  // Unused resource kind.
      const lp::RowId row = model_.add_row(
          lp::Sense::kLessEqual, 0.0, "load_n" + std::to_string(node) + "_r" + std::to_string(r));
      const double cap = in.capacities.of(node, res);
      bool any = false;
      for (const PVar* pv : p_at[static_cast<std::size_t>(node)]) {
        const auto& cls = in.classes[static_cast<std::size_t>(pv->class_index)];
        model_.add_coefficient(row, pv->var,
                               in.footprint_of(pv->class_index, res) * cls.sessions / cap);
        any = true;
      }
      for (const OVar* ov : o_at[static_cast<std::size_t>(node)]) {
        const auto& cls = in.classes[static_cast<std::size_t>(ov->class_index)];
        model_.add_coefficient(row, ov->var,
                               in.footprint_of(ov->class_index, res) * cls.sessions / cap);
        any = true;
      }
      if (!any) continue;  // Row would be vacuous; Model drops no rows, so
                           // we only attach LoadCost when something loads it.
      model_.add_coefficient(row, load_cost_var_, -1.0);
    }
  }

  // Link rows (Eq. 4-5), only for links actually crossed by some offload.
  std::map<topo::LinkId, std::vector<std::pair<lp::VarId, double>>> link_terms;
  for (const OVar& ov : o_vars_) {
    const auto& cls = in.classes[static_cast<std::size_t>(ov.class_index)];
    const topo::NodeId target_pop = in.attach_pop_of(ov.to);
    if (target_pop == ov.from) continue;  // Local cluster: no WAN link used.
    const double bytes = cls.sessions * cls.bytes_per_session;
    for (topo::LinkId l : routing.links_on_path(ov.from, target_pop))
      link_terms[l].emplace_back(ov.var, bytes);
  }
  // DC access link (Eq. 5 applied to the cluster's uplink): every byte
  // replicated into the DC crosses it, including the attach PoP's own.
  if (in.has_datacenter() && in.dc_access_capacity > 0.0) {
    const lp::RowId row =
        model_.add_row(lp::Sense::kLessEqual, in.max_link_load, "dc_access");
    for (const OVar* ov : o_at[static_cast<std::size_t>(in.datacenter_id())]) {
      const auto& cls = in.classes[static_cast<std::size_t>(ov->class_index)];
      model_.add_coefficient(row, ov->var,
                             cls.sessions * cls.bytes_per_session / in.dc_access_capacity);
    }
  }

  for (const auto& [link, terms] : link_terms) {
    const double cap = in.link_capacity[static_cast<std::size_t>(link)];
    const double bg_util = in.background_bytes[static_cast<std::size_t>(link)] / cap;
    const double budget = std::max(in.max_link_load, bg_util) - bg_util;
    const lp::RowId row =
        model_.add_row(lp::Sense::kLessEqual, budget, "link_" + std::to_string(link));
    for (const auto& [var, bytes] : terms)
      model_.add_coefficient(row, var, bytes / cap);
    if (options_.link_cost == LinkCostModel::kPiecewise) {
      // Soft cap: overload slabs with increasing unit penalties.
      const double slab1 = std::max(0.0, options_.knee - std::max(in.max_link_load, bg_util));
      const lp::VarId s1 = model_.add_variable(0.0, slab1, options_.penalty_low);
      const lp::VarId s2 = model_.add_variable(0.0, lp::kInf, options_.penalty_high);
      model_.add_coefficient(row, s1, -1.0);
      model_.add_coefficient(row, s2, -1.0);
    }
  }
}

Assignment ReplicationLp::solve(const lp::Options& lp_options, const lp::Basis* warm) const {
  SolveResult result = try_solve(lp_options, warm);
  if (result.status != lp::Status::kOptimal)
    throw std::runtime_error("ReplicationLp::solve: solver returned " +
                             lp::to_string(result.status));
  return std::move(result.assignment);
}

ReplicationLp::SolveResult ReplicationLp::try_solve(const lp::Options& lp_options,
                                                    const lp::Basis* warm) const {
  SolveResult result;
  const lp::Solution solution = lp::solve_revised(model_, lp_options, warm);
  result.status = solution.status;
  if (!solution.optimal()) {
    result.assignment.lp = solution;
    return result;
  }
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
    if (v > kEps) {
      auto& dest = a.offloads[static_cast<std::size_t>(ov.class_index)];
      // Per-direction bookkeeping: the symmetric formulation replicates the
      // whole session, i.e. both directions at fraction v.
      dest.push_back(Offload{ov.from, ov.to, v, nids::Direction::kForward});
      dest.push_back(Offload{ov.from, ov.to, v, nids::Direction::kReverse});
    }
  }
  refresh_metrics(in, a);
  a.lp = solution;
  result.assignment = std::move(a);
  return result;
}

}  // namespace nwlb::core
