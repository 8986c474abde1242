#include "lp/dense_simplex.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace nwlb::lp {
namespace {

// How an original model variable maps into standard-form columns:
//   x = offset + scale * x'[col]                        (single column), or
//   x = x'[col] - x'[neg_col]                            (free, split).
struct VarMap {
  double offset = 0.0;
  double scale = 1.0;
  int col = -1;
  int neg_col = -1;  // Only for free variables.
};

class DenseTableau {
 public:
  DenseTableau(const Model& model, const Options& opt) : model_(model), opt_(opt) {}

  Solution solve() {
    const auto t0 = std::chrono::steady_clock::now();
    if (opt_.max_seconds > 0.0)
      deadline_ = t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                           std::chrono::duration<double>(opt_.max_seconds));
    Solution sol;
    build_standard_form();
    add_slacks_and_artificials();

    // Phase 1: minimize the sum of artificials.
    std::vector<double> phase1_cost(num_cols_, 0.0);
    for (int a : artificial_cols_) phase1_cost[a] = 1.0;
    set_costs(phase1_cost);
    const Status s1 = run(sol.phase1_iterations);
    if (s1 != Status::kOptimal) {
      sol.status = s1 == Status::kUnbounded ? Status::kNumericalFailure : s1;
      return finish(sol, t0);
    }
    if (objective_row_value() > 1e2 * kFeasibilityTol) {
      sol.status = Status::kInfeasible;
      return finish(sol, t0);
    }
    drive_out_artificials();

    // Phase 2: original costs; artificials are pinned out of the basis.
    set_costs(phase2_cost_);
    const Status s2 = run(sol.iterations);
    sol.status = s2;
    if (s2 == Status::kOptimal) {
      extract_solution(sol);
    }
    return finish(sol, t0);
  }

 private:
  // ---- Standard-form construction ------------------------------------
  void build_standard_form() {
    const int n = model_.num_variables();
    var_map_.resize(static_cast<std::size_t>(n));
    int next_col = 0;
    for (int j = 0; j < n; ++j) {
      const double lo = model_.lower(VarId{j});
      const double hi = model_.upper(VarId{j});
      VarMap& vm = var_map_[static_cast<std::size_t>(j)];
      if (std::isfinite(lo)) {
        vm.offset = lo;
        vm.scale = 1.0;
        vm.col = next_col++;
        if (std::isfinite(hi) && hi > lo) {
          upper_rows_.push_back({vm.col, hi - lo});
        } else if (std::isfinite(hi)) {
          upper_rows_.push_back({vm.col, 0.0});  // Fixed variable.
        }
      } else if (std::isfinite(hi)) {
        vm.offset = hi;
        vm.scale = -1.0;
        vm.col = next_col++;
      } else {
        vm.col = next_col++;
        vm.neg_col = next_col++;
      }
    }
    num_structural_cols_ = next_col;

    // Row data in primed variables: activity + row_const (from offsets).
    const int m_model = model_.num_rows();
    num_rows_ = m_model + static_cast<int>(upper_rows_.size());
    dense_rows_.assign(static_cast<std::size_t>(num_rows_),
                       std::vector<double>(static_cast<std::size_t>(num_structural_cols_), 0.0));
    rhs_.assign(static_cast<std::size_t>(num_rows_), 0.0);
    sense_.assign(static_cast<std::size_t>(num_rows_), Sense::kEqual);

    for (int r = 0; r < m_model; ++r) {
      double shift = 0.0;
      for (const Entry& e : model_.row_entries(RowId{r})) {
        const VarMap& vm = var_map_[static_cast<std::size_t>(e.var)];
        shift += e.coef * vm.offset;
        dense_rows_[static_cast<std::size_t>(r)][static_cast<std::size_t>(vm.col)] +=
            e.coef * vm.scale;
        if (vm.neg_col >= 0)
          dense_rows_[static_cast<std::size_t>(r)][static_cast<std::size_t>(vm.neg_col)] -= e.coef;
      }
      rhs_[static_cast<std::size_t>(r)] = model_.rhs(RowId{r}) - shift;
      sense_[static_cast<std::size_t>(r)] = model_.sense(RowId{r});
    }
    for (std::size_t k = 0; k < upper_rows_.size(); ++k) {
      const std::size_t r = static_cast<std::size_t>(m_model) + k;
      dense_rows_[r][static_cast<std::size_t>(upper_rows_[k].col)] = 1.0;
      rhs_[r] = upper_rows_[k].bound;
      sense_[r] = Sense::kLessEqual;
    }

    // Objective in primed variables (the constant from offsets is re-added
    // at extraction via model_.objective_value()).
    phase2_cost_structural_.assign(static_cast<std::size_t>(num_structural_cols_), 0.0);
    for (int j = 0; j < n; ++j) {
      const VarMap& vm = var_map_[static_cast<std::size_t>(j)];
      const double c = model_.cost(VarId{j});
      phase2_cost_structural_[static_cast<std::size_t>(vm.col)] += c * vm.scale;
      if (vm.neg_col >= 0) phase2_cost_structural_[static_cast<std::size_t>(vm.neg_col)] -= c;
    }
  }

  void add_slacks_and_artificials() {
    // Count extra columns: one slack/surplus per inequality + one artificial
    // per row (uniform; keeps the initial basis trivially the identity).
    int extra = 0;
    for (Sense s : sense_)
      if (s != Sense::kEqual) ++extra;
    const int slack_base = num_structural_cols_;
    const int artificial_base = slack_base + extra;
    num_cols_ = artificial_base + num_rows_;

    tableau_.assign(static_cast<std::size_t>(num_rows_),
                    std::vector<double>(static_cast<std::size_t>(num_cols_) + 1, 0.0));
    basis_.assign(static_cast<std::size_t>(num_rows_), -1);
    artificial_cols_.clear();

    int next_slack = slack_base;
    for (int r = 0; r < num_rows_; ++r) {
      const auto ur = static_cast<std::size_t>(r);
      for (int c = 0; c < num_structural_cols_; ++c)
        tableau_[ur][static_cast<std::size_t>(c)] = dense_rows_[ur][static_cast<std::size_t>(c)];
      tableau_[ur][static_cast<std::size_t>(num_cols_)] = rhs_[ur];
      if (sense_[ur] == Sense::kLessEqual) {
        tableau_[ur][static_cast<std::size_t>(next_slack++)] = 1.0;
      } else if (sense_[ur] == Sense::kGreaterEqual) {
        tableau_[ur][static_cast<std::size_t>(next_slack++)] = -1.0;
      }
      // Make rhs non-negative before installing the artificial.
      if (tableau_[ur][static_cast<std::size_t>(num_cols_)] < 0.0) {
        for (auto& cell : tableau_[ur]) cell = -cell;
        row_negated_.push_back(true);
      } else {
        row_negated_.push_back(false);
      }
      const int art = artificial_base + r;
      tableau_[ur][static_cast<std::size_t>(art)] = 1.0;
      basis_[ur] = art;
      artificial_cols_.push_back(art);
    }
    artificial_base_ = artificial_base;
    blocked_.assign(static_cast<std::size_t>(num_cols_), false);

    phase2_cost_.assign(static_cast<std::size_t>(num_cols_), 0.0);
    for (int c = 0; c < num_structural_cols_; ++c)
      phase2_cost_[static_cast<std::size_t>(c)] = phase2_cost_structural_[static_cast<std::size_t>(c)];
    dense_rows_.clear();
  }

  // ---- Simplex machinery ----------------------------------------------
  void set_costs(const std::vector<double>& cost) {
    cost_ = cost;
    // Rebuild the objective row: z_j - c_j via the current basis.
    obj_row_.assign(static_cast<std::size_t>(num_cols_) + 1, 0.0);
    for (int c = 0; c <= num_cols_; ++c) {
      double value = (c < num_cols_) ? -cost_[static_cast<std::size_t>(c)] : 0.0;
      for (int r = 0; r < num_rows_; ++r) {
        const double cb = cost_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])];
        if (cb != 0.0)
          value += cb * tableau_[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)];
      }
      obj_row_[static_cast<std::size_t>(c)] = value;
    }
  }

  double objective_row_value() const { return obj_row_[static_cast<std::size_t>(num_cols_)]; }

  // Returns the reduced cost c_j - z_j; entering requires it < -tol.
  double reduced_cost(int col) const {
    return -obj_row_[static_cast<std::size_t>(col)];
  }

  Status run(int& iteration_counter) {
    for (;;) {
      if (iteration_counter >= opt_.max_iterations) return Status::kIterationLimit;
      // Same wall-clock budget contract as the revised simplex: both
      // backends report kTimeLimit for the same exhausted Options::max_seconds.
      if (deadline_ != std::chrono::steady_clock::time_point{} &&
          (iteration_counter & 15) == 0 &&
          std::chrono::steady_clock::now() >= deadline_)
        return Status::kTimeLimit;
      // Bland's rule: smallest-index eligible column.
      int entering = -1;
      for (int c = 0; c < num_cols_; ++c) {
        if (blocked_[static_cast<std::size_t>(c)]) continue;
        if (reduced_cost(c) < -kOptimalityTol) {
          entering = c;
          break;
        }
      }
      if (entering < 0) return Status::kOptimal;

      // Ratio test, Bland tie-break by basis variable index.
      int leaving = -1;
      double best_ratio = kInf;
      for (int r = 0; r < num_rows_; ++r) {
        const double a =
            tableau_[static_cast<std::size_t>(r)][static_cast<std::size_t>(entering)];
        if (a <= kPivotTol) continue;
        const double ratio =
            tableau_[static_cast<std::size_t>(r)][static_cast<std::size_t>(num_cols_)] / a;
        if (ratio < best_ratio - 1e-12 ||
            (ratio < best_ratio + 1e-12 &&
             (leaving < 0 || basis_[static_cast<std::size_t>(r)] <
                                 basis_[static_cast<std::size_t>(leaving)]))) {
          best_ratio = ratio;
          leaving = r;
        }
      }
      if (leaving < 0) return Status::kUnbounded;
      pivot(leaving, entering);
      ++iteration_counter;
    }
  }

  void pivot(int row, int col) {
    const auto ur = static_cast<std::size_t>(row);
    const double p = tableau_[ur][static_cast<std::size_t>(col)];
    for (auto& cell : tableau_[ur]) cell /= p;
    for (int r = 0; r < num_rows_; ++r) {
      if (r == row) continue;
      const auto vr = static_cast<std::size_t>(r);
      const double factor = tableau_[vr][static_cast<std::size_t>(col)];
      if (factor == 0.0) continue;
      for (int c = 0; c <= num_cols_; ++c)
        tableau_[vr][static_cast<std::size_t>(c)] -=
            factor * tableau_[ur][static_cast<std::size_t>(c)];
    }
    const double obj_factor = obj_row_[static_cast<std::size_t>(col)];
    if (obj_factor != 0.0) {
      for (int c = 0; c <= num_cols_; ++c)
        obj_row_[static_cast<std::size_t>(c)] -=
            obj_factor * tableau_[ur][static_cast<std::size_t>(c)];
    }
    basis_[ur] = col;
  }

  void drive_out_artificials() {
    // Prevent artificials from re-entering in phase 2.
    blocked_.assign(static_cast<std::size_t>(num_cols_), false);
    for (int a : artificial_cols_) blocked_[static_cast<std::size_t>(a)] = true;
    for (int r = 0; r < num_rows_; ++r) {
      const int b = basis_[static_cast<std::size_t>(r)];
      if (b < artificial_base_) continue;
      // Pivot the artificial out on any usable non-artificial column.
      int col = -1;
      for (int c = 0; c < artificial_base_; ++c) {
        if (std::abs(tableau_[static_cast<std::size_t>(r)][static_cast<std::size_t>(c)]) >
            1e-8) {
          col = c;
          break;
        }
      }
      if (col >= 0) pivot(r, col);
      // Else: redundant row; the artificial stays basic at (near) zero,
      // which is harmless because it is blocked from moving.
    }
  }

  void extract_solution(Solution& sol) const {
    std::vector<double> primed(static_cast<std::size_t>(num_cols_), 0.0);
    for (int r = 0; r < num_rows_; ++r)
      primed[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])] =
          tableau_[static_cast<std::size_t>(r)][static_cast<std::size_t>(num_cols_)];
    sol.x.assign(static_cast<std::size_t>(model_.num_variables()), 0.0);
    for (int j = 0; j < model_.num_variables(); ++j) {
      const VarMap& vm = var_map_[static_cast<std::size_t>(j)];
      double value = vm.offset + vm.scale * primed[static_cast<std::size_t>(vm.col)];
      if (vm.neg_col >= 0) value -= primed[static_cast<std::size_t>(vm.neg_col)];
      sol.x[static_cast<std::size_t>(j)] = value;
    }
    sol.objective = model_.objective_value(sol.x);
    // Duals: y_i = -reduced_cost(artificial_i), adjusted for row negation.
    // Only the first num_model_rows entries map to model rows.
    sol.duals.assign(static_cast<std::size_t>(model_.num_rows()), 0.0);
    for (int r = 0; r < model_.num_rows(); ++r) {
      const int art = artificial_base_ + r;
      double y = -reduced_cost(art);
      if (row_negated_[static_cast<std::size_t>(r)]) y = -y;
      sol.duals[static_cast<std::size_t>(r)] = y;
    }
  }

  Solution finish(Solution sol, std::chrono::steady_clock::time_point t0) const {
    sol.solve_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return sol;
  }

  struct UpperRow {
    int col;
    double bound;
  };

  const Model& model_;
  const Options& opt_;
  std::chrono::steady_clock::time_point deadline_{};  // Zero = no budget.

  std::vector<VarMap> var_map_;
  std::vector<UpperRow> upper_rows_;
  std::vector<std::vector<double>> dense_rows_;
  std::vector<double> rhs_;
  std::vector<Sense> sense_;
  std::vector<double> phase2_cost_structural_;
  std::vector<double> phase2_cost_;

  int num_structural_cols_ = 0;
  int num_rows_ = 0;
  int num_cols_ = 0;
  int artificial_base_ = 0;

  std::vector<std::vector<double>> tableau_;  // num_rows x (num_cols + 1).
  std::vector<double> obj_row_;               // z_j - c_j row, + objective value.
  std::vector<double> cost_;
  std::vector<int> basis_;
  std::vector<int> artificial_cols_;
  std::vector<bool> row_negated_;
  std::vector<bool> blocked_ = {};
};

}  // namespace

// Status rendering lives in solution.h next to the enum (exhaustive switch);
// the dense oracle no longer owns it.

Solution solve_dense(const Model& model, const Options& options) {
  Model copy = model;
  copy.normalize();
  DenseTableau tableau(copy, options);
  return tableau.solve();
}

}  // namespace nwlb::lp
