// A TiNet-shaped replication LP for solver tests: per-class coverage
// equalities, min-max load rows, and loose capacity-style side rows.
#pragma once

#include <cstdint>
#include <vector>

#include "lp/model.h"
#include "util/rng.h"

namespace nwlb::lp {

/// A TiNet-shaped instance: per-class coverage equalities (GUB block),
/// min-max load rows coupling every class through a shared epigraph
/// variable, and a handful of capacity-style side rows.  `columns_of`
/// returns each class's structural columns for focus-pricing tests.
struct ShapedLp {
  Model model;
  VarId load;
  std::vector<std::vector<VarId>> p;  // [class][node].

  std::vector<int> columns_of(const std::vector<int>& class_indices) const {
    std::vector<int> columns;
    columns.push_back(load.value);
    for (const int c : class_indices)
      for (const VarId v : p[static_cast<std::size_t>(c)]) columns.push_back(v.value);
    return columns;
  }
};

/// `epoch_drift` > 0 additionally scales every load-row coefficient by an
/// independent factor in [1 - drift, 1 + drift]: the shape of an nwlb
/// epoch, where every class's demand moves a little.
inline ShapedLp make_shaped(int classes, int nodes, std::uint64_t seed,
                     double perturb_class_weight = 1.0, int perturbed_class = 0,
                     double epoch_drift = 0.0) {
  util::Rng rng(seed);
  util::Rng drift(seed ^ 0xd21f7ull);
  ShapedLp lp;
  lp.load = lp.model.add_variable(0, kInf, 1.0, "LoadCost");
  lp.p.resize(static_cast<std::size_t>(classes));
  for (int c = 0; c < classes; ++c)
    for (int j = 0; j < nodes; ++j)
      lp.p[static_cast<std::size_t>(c)].push_back(lp.model.add_variable(0, 1, 0));
  for (int c = 0; c < classes; ++c) {
    const RowId r = lp.model.add_row(Sense::kEqual, 1);
    for (int j = 0; j < nodes; ++j)
      lp.model.add_coefficient(r, lp.p[static_cast<std::size_t>(c)][static_cast<std::size_t>(j)], 1);
  }
  for (int j = 0; j < nodes; ++j) {
    const RowId r = lp.model.add_row(Sense::kLessEqual, 0);
    for (int c = 0; c < classes; ++c) {
      double w = 0.5 + 2.5 * rng.uniform();
      if (c == perturbed_class) w *= perturb_class_weight;
      if (epoch_drift > 0.0) w *= 1.0 + epoch_drift * (2.0 * drift.uniform() - 1.0);
      lp.model.add_coefficient(r, lp.p[static_cast<std::size_t>(c)][static_cast<std::size_t>(j)], w);
    }
    lp.model.add_coefficient(r, lp.load, -1);
  }
  // Capacity-style rows: random subsets capped loosely (never binding the
  // reference point, keeping the instance feasible by construction).
  for (int k = 0; k < nodes; ++k) {
    const RowId r = lp.model.add_row(Sense::kLessEqual, 4.0 + rng.uniform());
    for (int c = 0; c < classes; ++c) {
      if (!rng.bernoulli(0.3)) continue;
      lp.model.add_coefficient(
          r, lp.p[static_cast<std::size_t>(c)][static_cast<std::size_t>(k % nodes)],
          0.5 + rng.uniform());
    }
  }
  return lp;
}

}  // namespace nwlb::lp
