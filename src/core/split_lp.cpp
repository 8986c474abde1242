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
  const double total = traffic::total_sessions(in.classes);

  const lp::VarId load_cost = model_.add_variable(0.0, lp::kInf, 1.0, "LoadCost");
  lp::VarId worst_miss{};
  if (options_.max_class_miss)
    worst_miss = model_.add_variable(0.0, 1.0, options_.gamma, "WorstMiss");
  SharedRows rows(in, model_);

  for (std::size_t c = 0; c < in.classes.size(); ++c) {
    const auto& cls = in.classes[c];
    const auto common = cls.common_nodes();
    const int k = static_cast<int>(c);

    // cov_c with its share of the MissRate objective (none when no class
    // carries traffic, as refresh_metrics reads a zero miss rate then).
    const double weight = (options_.max_class_miss || total <= 0.0)
                              ? 0.0
                              : options_.gamma * cls.sessions / total;
    const lp::VarId cov =
        model_.add_variable(0.0, 1.0, -weight, "cov_c" + std::to_string(c));

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
      const Column p = rows.add({.class_index = k, .node = j});
      model_.add_coefficient(def_fwd, p.var, 1.0);
      model_.add_coefficient(def_rev, p.var, 1.0);
      columns_.push_back(p);
    }

    if (options_.mode == SplitMode::kWithDatacenter) {
      // Per-direction offloads from every node on that direction's path.
      const auto add_offloads = [&](const std::vector<topo::NodeId>& nodes, Carries carries,
                                    lp::RowId def_row) {
        for (topo::NodeId j : nodes) {
          const Column o = rows.add(
              {.class_index = k, .node = in.datacenter_id(), .from = j, .carries = carries});
          model_.add_coefficient(def_row, o.var, 1.0);
          columns_.push_back(o);
        }
      };
      add_offloads(cls.fwd_nodes(), Carries::kForward, def_fwd);
      add_offloads(cls.rev_nodes(), Carries::kReverse, def_rev);
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
  rows.finish(load_cost);
}

Assignment SplitTrafficLp::solve(const lp::Options& lp_options, const lp::Basis* warm) const {
  return decode(*input_, columns_, solve_or_throw(model_, "SplitTrafficLp", lp_options, warm));
}

}  // namespace nwlb::core
