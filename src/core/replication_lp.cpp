#include "core/replication_lp.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
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
  if (options_.link_cost == LinkCostModel::kPiecewise &&
      !(std::isfinite(options_.knee) && std::isfinite(options_.penalty_high) &&
        options_.penalty_low >= 0.0 && options_.penalty_high >= options_.penalty_low))
    throw std::invalid_argument(
        "ReplicationLp: piecewise options need a finite knee and finite penalties with "
        "0 <= penalty_low <= penalty_high");
  build();
}

void ReplicationLp::build() {
  const ProblemInput& in = *input_;
  const lp::VarId load_cost = model_.add_variable(0.0, lp::kInf, 1.0, "LoadCost");
  SharedRows rows(in, model_);

  // Decision columns + coverage rows (Eq. 2).  Each class also carries a
  // coverage-slack variable, enabled (bounds (0,1)) only while nodes are
  // down, so a crash that strands a class — e.g. a single-PoP path with no
  // surviving mirror — degrades coverage at a steep objective penalty
  // instead of making Eq. 2 infeasible.
  const bool degraded = in.any_down();
  for (std::size_t c = 0; c < in.classes.size(); ++c) {
    const auto path_nodes = in.classes[c].fwd_nodes();
    const lp::RowId coverage =
        model_.add_row(lp::Sense::kEqual, 1.0, "cov_c" + std::to_string(c));
    const auto cover = [&](const Column& column) {
      model_.add_coefficient(coverage, column.var, 1.0);
      columns_.push_back(column);
    };
    const int k = static_cast<int>(c);
    for (topo::NodeId j : path_nodes) {
      cover(rows.add({.class_index = k, .node = j}));
      if (in.mirror_sets.empty()) continue;
      for (int mirror : in.mirror_sets[static_cast<std::size_t>(j)]) {
        // Never replicate to a node already on the path (Fig. 7 note).
        if (mirror < in.num_pops() &&
            std::binary_search(path_nodes.begin(), path_nodes.end(), mirror))
          continue;
        cover(rows.add({.class_index = k, .node = mirror, .from = j}));
      }
    }
    const lp::VarId slack = model_.add_variable(0.0, degraded ? 1.0 : 0.0,
                                                kCoverageSlackPenalty);
    model_.add_coefficient(coverage, slack, 1.0);
  }

  const std::vector<LinkRow> links = rows.finish(load_cost);
  if (options_.link_cost != LinkCostModel::kPiecewise) return;
  // Soft cap: overload slabs with increasing unit penalties.
  for (const LinkRow& link : links) {
    const double slab1 = std::max(0.0, options_.knee - link.limit);
    const lp::VarId s1 = model_.add_variable(0.0, slab1, options_.penalty_low);
    const lp::VarId s2 = model_.add_variable(0.0, lp::kInf, options_.penalty_high);
    model_.add_coefficient(link.row, s1, -1.0);
    model_.add_coefficient(link.row, s2, -1.0);
  }
}

Assignment ReplicationLp::solve(const lp::Options& lp_options, const lp::Basis* warm) const {
  return decode(*input_, columns_, solve_or_throw(model_, "ReplicationLp", lp_options, warm));
}

ReplicationLp::SolveResult ReplicationLp::try_solve(const lp::Options& lp_options,
                                                    const lp::Basis* warm) const {
  const lp::Solution solution = lp::solve_revised(model_, lp_options, warm);
  SolveResult result;
  result.status = solution.status;
  if (solution.optimal()) {
    result.assignment = decode(*input_, columns_, solution);
  } else {
    result.assignment.lp = solution;
  }
  return result;
}

}  // namespace nwlb::core
