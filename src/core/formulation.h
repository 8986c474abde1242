// The rows and decode every formulation shares.
//
// The four LPs (Fig. 7 replication, §5 split traffic, Fig. 9 aggregation
// and the §9 joint LP) all minimize the epigraph LoadCost (Eq. 1 and 3)
// under the MaxLinkLoad and DC-uplink caps (Eq. 4-5).  Each states its own
// coverage structure and hands every decision column to SharedRows, which
// writes the load, dc_access and link rows once; decode() turns the solved
// columns back into an Assignment.
#pragma once

#include <vector>

#include "core/assignment.h"
#include "core/problem.h"
#include "lp/model.h"
#include "lp/solution.h"

namespace nwlb::core {

/// The directions of a session a column's fraction covers.
enum class Carries { kBoth, kForward, kReverse };

/// One decision column: a fraction of class `class_index` analyzed at
/// processing node `node`, observed there on-path or replicated to it from
/// PoP `from`.  A one-direction column carries half the session's
/// footprint and bytes.
struct Column {
  static constexpr int kOnPath = -1;

  lp::VarId var;
  int class_index = -1;
  int node = -1;
  int from = kOnPath;
  Carries carries = Carries::kBoth;
};

/// A MaxLinkLoad row (Eq. 5) and its cap max(MaxLinkLoad, BG_l).
struct LinkRow {
  lp::RowId row;
  double limit = 0.0;
};

class SharedRows {
 public:
  SharedRows(const ProblemInput& input, lp::Model& model);

  /// Adds `column`'s variable with objective `cost` and returns the column
  /// with `var` set.  The variable is bounded by [0, 1], or pinned to
  /// [0, 0] while its node or source PoP is down, so the model's shape
  /// never depends on the failure mask.  Its load, scaled by the
  /// analysis's `share` of the footprint, is filed under its node, and its
  /// replicated bytes under the links and the DC uplink they cross.
  Column add(Column column, double share = 1.0, double cost = 0.0);

  /// Appends the load rows (sum of load - LoadCost <= 0 per node and used
  /// resource), then dc_access when some column replicates into a capped
  /// DC, then one row per link some replication crosses, ascending.
  /// Returns the link rows.
  std::vector<LinkRow> finish(lp::VarId load_cost);

 private:
  struct LoadTerm {
    lp::VarId var;
    int class_index;
    double weight;  // Direction factor x analysis share.
  };
  struct ByteTerm {
    lp::VarId var;
    double bytes;
  };

  const ProblemInput& in_;
  lp::Model& model_;
  std::vector<std::vector<LoadTerm>> load_at_;     // Per processing node.
  std::vector<std::vector<ByteTerm>> link_terms_;  // Per directed link.
  std::vector<ByteTerm> dc_terms_;
};

/// The solved columns above 1e-9 as process shares and offloads (a column
/// carrying both directions is one Offload per direction), with metrics
/// refreshed and `solution` attached.
Assignment decode(const ProblemInput& input, const std::vector<Column>& columns,
                  const lp::Solution& solution);

/// Solves `model`; throws std::runtime_error naming `formulation` unless
/// the solver returns kOptimal.
lp::Solution solve_or_throw(const lp::Model& model, const char* formulation,
                            const lp::Options& lp_options, const lp::Basis* warm);

}  // namespace nwlb::core
