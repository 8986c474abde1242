#include "core/formulation.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "lp/revised_simplex.h"

namespace nwlb::core {

SharedRows::SharedRows(const ProblemInput& input, lp::Model& model)
    : in_(input),
      model_(model),
      load_at_(static_cast<std::size_t>(input.num_processing_nodes())),
      link_terms_(static_cast<std::size_t>(input.routing->graph().num_directed_links())) {}

Column SharedRows::add(Column column, double share, double cost) {
  const bool replicated = column.from != Column::kOnPath;
  const bool down = in_.is_down(column.node) || (replicated && in_.is_down(column.from));
  column.var = model_.add_variable(0.0, down ? 0.0 : 1.0, cost);

  const double half = column.carries == Carries::kBoth ? 1.0 : 0.5;
  load_at_[static_cast<std::size_t>(column.node)].push_back(
      LoadTerm{column.var, column.class_index, half * share});
  if (!replicated) return column;

  const auto& cls = in_.classes[static_cast<std::size_t>(column.class_index)];
  const double bytes = half * cls.sessions * cls.bytes_per_session;
  const topo::NodeId target_pop = in_.attach_pop_of(column.node);
  if (target_pop != column.from)  // A local cluster uses no WAN link.
    for (topo::LinkId l : in_.routing->links_on_path(column.from, target_pop))
      link_terms_[static_cast<std::size_t>(l)].push_back(ByteTerm{column.var, bytes});
  // Every byte replicated into the DC crosses its uplink, the attach PoP's
  // own included.
  if (in_.has_datacenter() && column.node == in_.datacenter_id())
    dc_terms_.push_back(ByteTerm{column.var, bytes});
  return column;
}

std::vector<LinkRow> SharedRows::finish(lp::VarId load_cost) {
  // Load rows (Eq. 3 folded into Eq. 1's epigraph form):
  //   sum_c share F_c |T_c| x / Cap_j^r - LoadCost <= 0.
  for (int node = 0; node < in_.num_processing_nodes(); ++node) {
    for (int r = 0; r < nids::kNumResources; ++r) {
      const auto res = static_cast<nids::Resource>(r);
      if (in_.footprint.on(res) <= 0.0) continue;  // Unused resource kind.
      const lp::RowId row = model_.add_row(
          lp::Sense::kLessEqual, 0.0, "load_n" + std::to_string(node) + "_r" + std::to_string(r));
      const double cap = in_.capacities.of(node, res);
      const auto& terms = load_at_[static_cast<std::size_t>(node)];
      for (const LoadTerm& t : terms) {
        const auto& cls = in_.classes[static_cast<std::size_t>(t.class_index)];
        model_.add_coefficient(row, t.var,
                               t.weight * in_.footprint_of(t.class_index, res) * cls.sessions / cap);
      }
      // The model drops no rows, so a vacuous row stays but loads nothing.
      if (!terms.empty()) model_.add_coefficient(row, load_cost, -1.0);
    }
  }

  // DC access link (Eq. 5 applied to the cluster's uplink).
  if (in_.dc_access_capacity > 0.0 && !dc_terms_.empty()) {
    const lp::RowId row = model_.add_row(lp::Sense::kLessEqual, in_.max_link_load, "dc_access");
    for (const ByteTerm& t : dc_terms_)
      model_.add_coefficient(row, t.var, t.bytes / in_.dc_access_capacity);
  }

  // Link rows (Eq. 4-5): LinkLoad_l <= max(MaxLinkLoad, BG_l).
  std::vector<LinkRow> links;
  for (std::size_t l = 0; l < link_terms_.size(); ++l) {
    if (link_terms_[l].empty()) continue;
    const double cap = in_.link_capacity[l];
    const double bg_util = in_.background_bytes[l] / cap;
    const double limit = std::max(in_.max_link_load, bg_util);
    const lp::RowId row =
        model_.add_row(lp::Sense::kLessEqual, limit - bg_util, "link_" + std::to_string(l));
    for (const ByteTerm& t : link_terms_[l]) model_.add_coefficient(row, t.var, t.bytes / cap);
    links.push_back(LinkRow{row, limit});
  }
  return links;
}

Assignment decode(const ProblemInput& input, const std::vector<Column>& columns,
                  const lp::Solution& solution) {
  constexpr double kEps = 1e-9;
  Assignment a;
  a.process.assign(input.classes.size(), {});
  a.offloads.assign(input.classes.size(), {});
  for (const Column& column : columns) {
    const double v = solution.value(column.var);
    if (v <= kEps) continue;
    const auto c = static_cast<std::size_t>(column.class_index);
    if (column.from == Column::kOnPath) {
      a.process[c].push_back(ProcessShare{column.node, v});
      continue;
    }
    // Offloads are per direction: a column carrying both directions
    // replicates the whole session, i.e. each direction at fraction v.
    if (column.carries != Carries::kReverse)
      a.offloads[c].push_back(Offload{column.from, column.node, v, nids::Direction::kForward});
    if (column.carries != Carries::kForward)
      a.offloads[c].push_back(Offload{column.from, column.node, v, nids::Direction::kReverse});
  }
  refresh_metrics(input, a);
  a.lp = solution;
  return a;
}

lp::Solution solve_or_throw(const lp::Model& model, const char* formulation,
                            const lp::Options& lp_options, const lp::Basis* warm) {
  lp::Solution solution = lp::solve_revised(model, lp_options, warm);
  if (!solution.optimal())
    throw std::runtime_error(std::string(formulation) + "::solve: solver returned " +
                             lp::to_string(solution.status));
  return solution;
}

}  // namespace nwlb::core
