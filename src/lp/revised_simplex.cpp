#include "lp/revised_simplex.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "lp/basis.h"
#include "util/check.h"
#include "util/cpus.h"
#include "util/fork_join.h"

namespace nwlb::lp {
namespace {

enum class VStat : unsigned char { kBasic, kAtLower, kAtUpper, kFree };

constexpr double kTiny = 1e-12;
// Pivot-row entries below this are treated as exact zeros during the
// steepest-edge update pass (they cannot carry meaningful weight updates).
constexpr double kAlphaDrop = 1e-12;
// Devex reference weights beyond this trigger a reference-framework reset.
constexpr double kWeightResetLimit = 1e8;
// Basis updates (eta-file entries) between refactorizations.
constexpr int kRefactorInterval = 96;
// A dual pivot whose FTRAN and pivot-row values differ by more than this,
// relatively, refactorizes and chooses again.
constexpr double kPivotMismatch = 1e-6;
// Relative slack on the candidate pass's gap sum before the bounded-accuracy
// test reads the full scan's.  Sums of the same k nonnegative terms in two
// orders differ by at most ~2k*eps relatively, far below this.
constexpr double kGapSumSlack = 1e-6;

// Column blocks (DESIGN.md §14).  A model with fewer nonzeros in [A | I]
// than this walks its pivot rows and refreshes its duals on the caller's
// thread alone: Geant and Enterprise (~12k) solved no faster in blocks,
// TiNet (~41k) solved cold 21% faster in three.  Above it the solve uses
// one block per CPU the process may run on, up to kMaxColumnBlocks: on a
// 4-vCPU host, NTT's cold solve was slower in four blocks than in three.
constexpr std::size_t kMinParallelNonzeros = 30'000;
constexpr int kMaxColumnBlocks = 3;

using Clock = std::chrono::steady_clock;

/// The solver's own block count for a model with `nonzeros` entries in
/// [A | I].
int column_blocks(std::size_t nonzeros) {
  if (nonzeros < kMinParallelNonzeros) return 1;
  return std::clamp(util::usable_cpus(/*fallback=*/1), 1, kMaxColumnBlocks);
}

/// Adds the wall time of its scope to one KernelSeconds slot.  Scopes never
/// nest, so the slots add up to the timed part of the solve.
class KernelTimer {
 public:
  explicit KernelTimer(double& slot) : slot_(slot), start_(Clock::now()) {}
  ~KernelTimer() { slot_ += std::chrono::duration<double>(Clock::now() - start_).count(); }
  KernelTimer(const KernelTimer&) = delete;
  KernelTimer& operator=(const KernelTimer&) = delete;

 private:
  double& slot_;
  Clock::time_point start_;
};

class Simplex {
 public:
  /// `blocks` > 0 forces the column-block count; 0 lets the solver choose.
  Simplex(const Model& model, const Options& opt, int blocks)
      : model_(model), opt_(opt), forced_blocks_(blocks) {}

  Solution solve(const Basis* warm) {
    const auto t0 = Clock::now();
    if (opt_.max_seconds > 0.0)
      deadline_ = t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opt_.max_seconds));
    Solution sol;
    bool warm_started = false;
    {
      KernelTimer timer(kernels_.build);
      build();
      // An incompatible warm start falls back to the cold-start basis.
      warm_started = warm != nullptr && install_warm(*warm);
      if (!warm_started) install_cold();
    }
    if (!refactorize()) {
      sol.status = Status::kNumericalFailure;
      return finish(sol, t0);
    }

    Status status = Status::kOptimal;
    if (warm_started) {
      status = warm_dual(sol);
      if (status != Status::kOptimal) {
        sol.status = status;
        return finish(sol, t0);
      }
    }

    // Phase 1: drive basic infeasibilities to zero.
    if (infeasibility() > kFeasibilityTol) {
      status = loop(/*phase1=*/true, sol);
      if (status == Status::kOptimal && infeasibility() > 1e2 * kFeasibilityTol) {
        sol.status = Status::kInfeasible;
        return finish(sol, t0);
      }
      if (status != Status::kOptimal) {
        sol.status = status == Status::kUnbounded ? Status::kNumericalFailure : status;
        return finish(sol, t0);
      }
    }

    // Phase 2: optimize the true objective.
    status = loop(/*phase1=*/false, sol);
    sol.status = status;
    if (status == Status::kOptimal || status == Status::kGoodEnough) {
      extract(sol);
      sol.objective_bound =
          status == Status::kGoodEnough ? certified_bound_ : sol.objective;
    }
    return finish(sol, t0);
  }

 private:
  // ---- Setup ----------------------------------------------------------
  void build() {
    const int n = model_.num_variables();
    const int m = model_.num_rows();
    num_cols_ = n + m;

    // Row-wise structural matrix, each row normalized on a scratch copy
    // (the model itself, names and all, is never copied) and so sorted by
    // column.  The steepest-edge update walks the pivot row
    // (alpha_j = a_j' B^-T e_r) through it without touching every column,
    // which is what keeps the per-iteration cost near the nonzeros of the
    // rows the BTRAN image actually hits.
    std::vector<int> row_ptr(static_cast<std::size_t>(m) + 1, 0);
    row_col_.clear();
    row_val_.clear();
    row_col_.reserve(model_.num_nonzeros());
    row_val_.reserve(model_.num_nonzeros());
    std::vector<Entry> row;
    for (int r = 0; r < m; ++r) {
      row = model_.row_entries(RowId{r});
      Model::normalize_entries(row);
      for (const Entry& e : row) {
        row_col_.push_back(e.var);
        row_val_.push_back(e.coef);
      }
      row_ptr[static_cast<std::size_t>(r) + 1] = static_cast<int>(row_col_.size());
    }

    // Column counts then CSC fill from the row-wise arrays.
    matrix_.num_rows = m;
    matrix_.num_structural = n;
    matrix_.col_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
    for (const int j : row_col_) ++matrix_.col_ptr[static_cast<std::size_t>(j) + 1];
    for (int j = 0; j < n; ++j)
      matrix_.col_ptr[static_cast<std::size_t>(j) + 1] +=
          matrix_.col_ptr[static_cast<std::size_t>(j)];
    matrix_.row_idx.assign(row_col_.size(), 0);
    matrix_.value.assign(row_col_.size(), 0.0);
    std::vector<int> cursor(matrix_.col_ptr.begin(), matrix_.col_ptr.end() - 1);
    for (int r = 0; r < m; ++r) {
      for (int q = row_ptr[static_cast<std::size_t>(r)];
           q < row_ptr[static_cast<std::size_t>(r) + 1]; ++q) {
        const int p = cursor[static_cast<std::size_t>(row_col_[static_cast<std::size_t>(q)])]++;
        matrix_.row_idx[static_cast<std::size_t>(p)] = r;
        matrix_.value[static_cast<std::size_t>(p)] = row_val_[static_cast<std::size_t>(q)];
      }
    }

    lb_.assign(static_cast<std::size_t>(num_cols_), 0.0);
    ub_.assign(static_cast<std::size_t>(num_cols_), 0.0);
    cost_.assign(static_cast<std::size_t>(num_cols_), 0.0);
    for (int j = 0; j < n; ++j) {
      lb_[static_cast<std::size_t>(j)] = model_.lower(VarId{j});
      ub_[static_cast<std::size_t>(j)] = model_.upper(VarId{j});
      cost_[static_cast<std::size_t>(j)] = model_.cost(VarId{j});
    }
    rhs_.assign(static_cast<std::size_t>(m), 0.0);
    for (int r = 0; r < m; ++r) {
      rhs_[static_cast<std::size_t>(r)] = model_.rhs(RowId{r});
      const std::size_t logical = static_cast<std::size_t>(n + r);
      switch (model_.sense(RowId{r})) {
        case Sense::kLessEqual:
          lb_[logical] = 0.0;
          ub_[logical] = kInf;
          break;
        case Sense::kGreaterEqual:
          lb_[logical] = -kInf;
          ub_[logical] = 0.0;
          break;
        case Sense::kEqual:
          lb_[logical] = 0.0;
          ub_[logical] = 0.0;
          break;
      }
    }
    x_.assign(static_cast<std::size_t>(num_cols_), 0.0);
    stat_.assign(static_cast<std::size_t>(num_cols_), VStat::kAtLower);
    work_.assign(static_cast<std::size_t>(matrix_.num_rows), 0.0);
    entering_col_.assign(static_cast<std::size_t>(matrix_.num_rows), 0.0);

    d_.assign(static_cast<std::size_t>(num_cols_), 0.0);
    ref_weight_.assign(static_cast<std::size_t>(num_cols_), 1.0);
    alpha_.assign(static_cast<std::size_t>(num_cols_), 0.0);
    pivot_row_.assign(static_cast<std::size_t>(m), 0.0);
    in_candidates_.assign(static_cast<std::size_t>(num_cols_), 0);
    candidates_.reserve(static_cast<std::size_t>(num_cols_));
    num_blocks_ = forced_blocks_ > 0
                      ? forced_blocks_
                      : column_blocks(row_col_.size() + static_cast<std::size_t>(m));
    split_blocks(row_ptr);
    if (num_blocks_ > 1) team_ = std::make_unique<util::ForkJoinTeam>(num_blocks_);
  }

  /// Splits the columns (structural, then logical) into num_blocks_
  /// contiguous ranges of about equal nonzeros in [A | I], and cuts every
  /// row of the row-wise matrix at the range boundaries: block b's entries
  /// of row r are [row_cut_[r*(P+1) + b], row_cut_[r*(P+1) + b + 1]).
  void split_blocks(const std::vector<int>& row_ptr) {
    const int m = matrix_.num_rows;
    const auto blocks = static_cast<std::size_t>(num_blocks_);
    const std::size_t total = row_col_.size() + static_cast<std::size_t>(m);
    block_begin_.assign(blocks + 1, num_cols_);
    block_begin_[0] = 0;
    std::size_t b = 1;
    std::size_t weight_before = 0;  // Nonzeros of the columns left of j.
    for (int j = 0; j < num_cols_ && b < blocks; ++j) {
      while (b < blocks && weight_before * blocks >= b * total) block_begin_[b++] = j;
      const auto uj = static_cast<std::size_t>(j);
      weight_before += matrix_.is_logical(j)
                           ? 1
                           : static_cast<std::size_t>(matrix_.col_ptr[uj + 1] - matrix_.col_ptr[uj]);
    }
    blocks_.assign(blocks, BlockScratch{});
    for (std::size_t k = 0; k < blocks; ++k) {
      const auto width = static_cast<std::size_t>(block_begin_[k + 1] - block_begin_[k]);
      blocks_[k].touched.reserve(width);
      blocks_[k].entered.reserve(width);
    }

    const std::size_t stride = blocks + 1;
    row_cut_.assign(static_cast<std::size_t>(m) * stride, 0);
    for (int r = 0; r < m; ++r) {
      int* cut = &row_cut_[static_cast<std::size_t>(r) * stride];
      cut[0] = row_ptr[static_cast<std::size_t>(r)];
      cut[blocks] = row_ptr[static_cast<std::size_t>(r) + 1];
      for (std::size_t k = 1; k < blocks; ++k)
        cut[k] = static_cast<int>(std::lower_bound(row_col_.begin() + cut[k - 1],
                                                   row_col_.begin() + cut[blocks],
                                                   block_begin_[k]) -
                                  row_col_.begin());
    }
  }

  /// Runs fn(b) for every column block: inline for one block, else on the
  /// team.  Blocks write only their own columns and BlockScratch.
  template <typename Fn>
  void for_each_block(const Fn& fn) {
    if (team_ != nullptr) {
      team_->run(fn);
    } else {
      fn(0);
    }
  }

  /// Appends every block's newly eligible columns to the candidate set, in
  /// block order.
  void merge_entered() {
    for (const BlockScratch& block : blocks_)
      candidates_.insert(candidates_.end(), block.entered.begin(), block.entered.end());
  }

  /// Places every column where `warm` records it.  False, with nothing
  /// usable installed, when the basis does not fit this model.
  bool install_warm(const Basis& warm) {
    const int m = matrix_.num_rows;
    if (static_cast<int>(warm.basic.size()) != m ||
        static_cast<int>(warm.nonbasic_state.size()) != num_cols_)
      return false;
    basic_.assign(static_cast<std::size_t>(m), -1);
    std::vector<bool> seen(static_cast<std::size_t>(num_cols_), false);
    for (int i = 0; i < m; ++i) {
      const int col = warm.basic[static_cast<std::size_t>(i)];
      if (col < 0 || col >= num_cols_ || seen[static_cast<std::size_t>(col)]) return false;
      seen[static_cast<std::size_t>(col)] = true;
      basic_[static_cast<std::size_t>(i)] = col;
    }
    for (int j = 0; j < num_cols_; ++j) {
      if (seen[static_cast<std::size_t>(j)]) {
        stat_[static_cast<std::size_t>(j)] = VStat::kBasic;
        continue;
      }
      set_nonbasic(j, warm.nonbasic_state[static_cast<std::size_t>(j)]);
    }
    return true;
  }

  /// The all-logical basis, crashed when Options::crash is set.
  void install_cold() {
    const int m = matrix_.num_rows;
    const int n = matrix_.num_structural;
    basic_.assign(static_cast<std::size_t>(m), -1);
    for (int i = 0; i < m; ++i) {
      basic_[static_cast<std::size_t>(i)] = n + i;
      stat_[static_cast<std::size_t>(n + i)] = VStat::kBasic;
    }
    for (int j = 0; j < n; ++j) set_nonbasic(j, NonbasicState::kAtLower);
    if (opt_.crash) crash_equality_rows();
  }

  /// Cold-start crash: every equality row's logical is fixed at (0,0), so
  /// the all-logical basis starts phase 1 with one infeasibility per
  /// equality row — for the nwlb formulations that is one per traffic
  /// class, and phase 1 once took hundreds of thousands of degenerate
  /// pivots to clear them (the "TiNet blowup").  Instead, seat in each
  /// equality row a structural column whose only equality-row nonzero is
  /// that row: the chosen block is diagonal across equality rows, hence
  /// trivially nonsingular together with the remaining logicals, and the
  /// crash removes the whole equality block from phase 1 up front.
  void crash_equality_rows() {
    const int n = matrix_.num_structural;
    const int m = matrix_.num_rows;
    std::vector<char> is_eq(static_cast<std::size_t>(m), 0);
    bool any_eq = false;
    for (int r = 0; r < m; ++r) {
      const std::size_t logical = static_cast<std::size_t>(n + r);
      if (lb_[logical] == 0.0 && ub_[logical] == 0.0) {
        is_eq[static_cast<std::size_t>(r)] = 1;
        any_eq = true;
      }
    }
    if (!any_eq) return;

    // For each structural column: how many equality rows it hits, and the
    // coefficient it carries in the last one seen.
    std::vector<int> eq_hits(static_cast<std::size_t>(n), 0);
    std::vector<int> eq_row(static_cast<std::size_t>(n), -1);
    std::vector<double> eq_coef(static_cast<std::size_t>(n), 0.0);
    for (int j = 0; j < n; ++j) {
      for (int p = matrix_.col_ptr[static_cast<std::size_t>(j)];
           p < matrix_.col_ptr[static_cast<std::size_t>(j) + 1]; ++p) {
        const int r = matrix_.row_idx[static_cast<std::size_t>(p)];
        if (!is_eq[static_cast<std::size_t>(r)]) continue;
        ++eq_hits[static_cast<std::size_t>(j)];
        eq_row[static_cast<std::size_t>(j)] = r;
        eq_coef[static_cast<std::size_t>(j)] = matrix_.value[static_cast<std::size_t>(p)];
      }
    }
    // Best candidate per equality row: largest |coef| among columns whose
    // sole equality-row nonzero is this row (and that can actually move).
    std::vector<int> pick(static_cast<std::size_t>(m), -1);
    for (int j = 0; j < n; ++j) {
      if (eq_hits[static_cast<std::size_t>(j)] != 1) continue;
      if (ub_[static_cast<std::size_t>(j)] <= lb_[static_cast<std::size_t>(j)]) continue;
      const int r = eq_row[static_cast<std::size_t>(j)];
      const int cur = pick[static_cast<std::size_t>(r)];
      if (cur < 0 || std::abs(eq_coef[static_cast<std::size_t>(j)]) >
                         std::abs(eq_coef[static_cast<std::size_t>(cur)]))
        pick[static_cast<std::size_t>(r)] = j;
    }
    for (int r = 0; r < m; ++r) {
      const int j = pick[static_cast<std::size_t>(r)];
      if (j < 0) continue;
      const int displaced = basic_[static_cast<std::size_t>(r)];
      set_nonbasic(displaced, NonbasicState::kAtLower);
      basic_[static_cast<std::size_t>(r)] = j;
      stat_[static_cast<std::size_t>(j)] = VStat::kBasic;
    }
  }

  void set_nonbasic(int col, NonbasicState hint) {
    const std::size_t j = static_cast<std::size_t>(col);
    const bool lower_finite = std::isfinite(lb_[j]);
    const bool upper_finite = std::isfinite(ub_[j]);
    if (hint == NonbasicState::kAtUpper && upper_finite) {
      stat_[j] = VStat::kAtUpper;
      x_[j] = ub_[j];
    } else if (lower_finite) {
      stat_[j] = VStat::kAtLower;
      x_[j] = lb_[j];
    } else if (upper_finite) {
      stat_[j] = VStat::kAtUpper;
      x_[j] = ub_[j];
    } else {
      stat_[j] = VStat::kFree;
      x_[j] = 0.0;
    }
  }

  // Factorizes the current basis and recomputes basic values.  Returns
  // false only on unrecoverable failure.
  bool refactorize() {
    {
      KernelTimer timer(kernels_.factorize);
      auto result = factor_.factorize(matrix_, basic_, kPivotTol);
      if (!result.ok) return false;
      for (std::size_t k = 0; k < result.defective_positions.size(); ++k) {
        // The factorization replaced a defective column by a logical; mirror
        // that repair in the basis bookkeeping.
        const int pos = result.defective_positions[k];
        const int displaced = basic_[static_cast<std::size_t>(pos)];
        const int logical = matrix_.num_structural + result.unpivoted_rows[k];
        set_nonbasic(displaced, NonbasicState::kAtLower);
        basic_[static_cast<std::size_t>(pos)] = logical;
        stat_[static_cast<std::size_t>(logical)] = VStat::kBasic;
      }
    }
    ++refactor_count_;
    recompute_basic_values();
    // Periodic refresh: the maintained reduced costs are recomputed from
    // the fresh factors on the next pricing pass, clearing drift.
    duals_fresh_ = false;
    return true;
  }

  void recompute_basic_values() {
    const int m = matrix_.num_rows;
    {
      KernelTimer timer(kernels_.factorize);
      std::fill(work_.begin(), work_.end(), 0.0);
      for (int i = 0; i < m; ++i)
        work_[static_cast<std::size_t>(i)] = rhs_[static_cast<std::size_t>(i)];
      for (int j = 0; j < num_cols_; ++j) {
        if (stat_[static_cast<std::size_t>(j)] == VStat::kBasic) continue;
        const double v = x_[static_cast<std::size_t>(j)];
        if (v != 0.0) matrix_.scatter(j, -v, work_);
      }
    }
    ftran(work_);
    KernelTimer timer(kernels_.factorize);
    for (int i = 0; i < m; ++i)
      x_[static_cast<std::size_t>(basic_[static_cast<std::size_t>(i)])] =
          work_[static_cast<std::size_t>(i)];
  }

  // Timed FTRAN / BTRAN of a dense vector.
  void ftran(std::vector<double>& v) {
    KernelTimer timer(kernels_.ftran);
    factor_.ftran(v);
  }
  void btran(std::vector<double>& v) {
    KernelTimer timer(kernels_.btran);
    factor_.btran(v);
  }

  double infeasibility() {
    KernelTimer timer(kernels_.update);
    double total = 0.0;
    for (int col : basic_) {
      const std::size_t j = static_cast<std::size_t>(col);
      if (x_[j] < lb_[j]) total += lb_[j] - x_[j];
      if (x_[j] > ub_[j]) total += x_[j] - ub_[j];
    }
    return total;
  }

  double basic_cost(int pos, bool phase1) const {
    const std::size_t j = static_cast<std::size_t>(basic_[static_cast<std::size_t>(pos)]);
    if (!phase1) return cost_[j];
    if (x_[j] > ub_[j] + kFeasibilityTol) return 1.0;
    if (x_[j] < lb_[j] - kFeasibilityTol) return -1.0;
    return 0.0;
  }

  double column_cost(int col, bool phase1) const {
    return phase1 ? 0.0 : cost_[static_cast<std::size_t>(col)];
  }

  /// Phase-2 objective of the current iterate, accumulated in long double
  /// (part of the pivot hygiene: the certificate must not inherit rounding
  /// from a few hundred thousand incremental updates).
  double current_objective() {
    KernelTimer timer(kernels_.pricing);
    long double z = 0.0L;
    for (int j = 0; j < matrix_.num_structural; ++j) {
      const double c = cost_[static_cast<std::size_t>(j)];
      if (c != 0.0) z += static_cast<long double>(c) * x_[static_cast<std::size_t>(j)];
    }
    return static_cast<double>(z);
  }

  // ---- Steepest-edge (Devex reference framework) machinery -------------

  /// Recomputes every nonbasic reduced cost exactly from a fresh BTRAN of
  /// the basic cost vector, rebuilding the pricing candidate set on the way.
  /// Called at phase entry, after every refactorization, and whenever the
  /// maintained values fail the entering-column hygiene check.
  void refresh_duals(bool phase1) {
    {
      KernelTimer timer(kernels_.dual_refresh);
      const int m = matrix_.num_rows;
      y_.assign(static_cast<std::size_t>(m), 0.0);
      for (int i = 0; i < m; ++i) y_[static_cast<std::size_t>(i)] = basic_cost(i, phase1);
    }
    btran(y_);
    KernelTimer timer(kernels_.dual_refresh);
    for_each_block([this, phase1](int b) {
      BlockScratch& block = blocks_[static_cast<std::size_t>(b)];
      block.entered.clear();
      for (int j = block_begin_[static_cast<std::size_t>(b)];
           j < block_begin_[static_cast<std::size_t>(b) + 1]; ++j) {
        const std::size_t uj = static_cast<std::size_t>(j);
        d_[uj] = stat_[uj] == VStat::kBasic ? 0.0 : column_cost(j, phase1) - matrix_.dot(j, y_);
        reseat_candidate(uj, block.entered);
      }
    });
    // Blocks are contiguous, so the merged set is in index order.
    candidates_.clear();
    merge_entered();
    duals_fresh_ = true;
  }

  // ---- Pricing candidate set (hyper-sparse CHUZC) -----------------------
  //
  // Only a few percent of the columns are dual infeasible at any iteration,
  // so pricing walks `candidates_`, a superset of them, instead of every
  // column.  refresh_duals rebuilds the set; between rebuilds every write
  // to d_ or stat_ goes through note_candidate (inlined in the pivot-row
  // walk) — except the entering column's hygiene writes, as it is already
  // a member; the pricing pass drops the members that went stale.  The
  // selection rules below do not depend on the order columns are visited
  // in, so the pivots match a full scan's exactly — whatever order the
  // column blocks append in — and optimality is only declared after one.

  /// How far a column at status `s` with reduced cost `dj` violates dual
  /// feasibility; 0 when it is basic or dual feasible.
  double violation_of(VStat s, double dj) const {
    switch (s) {
      case VStat::kAtLower: return dj < -kOptimalityTol ? -dj : 0.0;
      case VStat::kAtUpper: return dj > kOptimalityTol ? dj : 0.0;
      case VStat::kFree: return std::abs(dj) > kOptimalityTol ? std::abs(dj) : 0.0;
      case VStat::kBasic: break;
    }
    return 0.0;
  }
  double dual_violation(std::size_t uj) const { return violation_of(stat_[uj], d_[uj]); }

  /// Decides column j's membership from scratch (set rebuilds only),
  /// appending it to `members` when it is eligible.
  void reseat_candidate(std::size_t uj, std::vector<int>& members) {
    const bool eligible = dual_violation(uj) > 0.0;
    in_candidates_[uj] = eligible ? 1 : 0;
    if (eligible) members.push_back(static_cast<int>(uj));
  }

  void rebuild_candidates() {
    candidates_.clear();
    for (int j = 0; j < num_cols_; ++j) reseat_candidate(static_cast<std::size_t>(j), candidates_);
  }

  /// Adds column j if its reduced cost or status just made it eligible.
  void note_candidate(int j) {
    const std::size_t uj = static_cast<std::size_t>(j);
    if (in_candidates_[uj] == 0 && dual_violation(uj) > 0.0) {
      in_candidates_[uj] = 1;
      candidates_.push_back(j);
    }
  }

  void reset_reference_framework() {
    std::fill(ref_weight_.begin(), ref_weight_.end(), 1.0);
  }

  struct PriceResult {
    int entering = -1;
    double d_enter = 0.0;
    double gap = 0.0;              // Sum over eligible of |d_j| * range_j.
    bool gap_unbounded = false;    // An eligible column has infinite range.
  };

  /// Folds an eligible column into a Devex pricing pass: keeps the column
  /// maximizing d_j^2 / ref_weight_j, ties to the smallest index, or in
  /// Bland mode the smallest index.
  void consider(std::size_t uj, double violation, bool bland, PriceResult& pr,
                double& best_score) const {
    const double range = ub_[uj] - lb_[uj];
    if (std::isfinite(range)) {
      pr.gap += violation * range;
    } else {
      pr.gap_unbounded = true;
    }
    const int j = static_cast<int>(uj);
    const double dj = d_[uj];
    if (bland) {
      if (pr.entering < 0 || j < pr.entering) {
        pr.entering = j;
        pr.d_enter = dj;
      }
      return;
    }
    const double score = dj * dj / ref_weight_[uj];
    if (score > best_score || (score == best_score && pr.entering >= 0 && j < pr.entering)) {
      best_score = score;
      pr.entering = j;
      pr.d_enter = dj;
    }
  }

  /// Devex pricing over the candidate set, dropping stale members.
  PriceResult price_candidates(bool bland) {
    KernelTimer timer(kernels_.pricing);
    PriceResult pr;
    double best_score = 0.0;
    std::size_t kept = 0;
    for (std::size_t k = 0; k < candidates_.size(); ++k) {
      const int j = candidates_[k];
      const std::size_t uj = static_cast<std::size_t>(j);
      const double violation = dual_violation(uj);
      if (violation == 0.0) {
        in_candidates_[uj] = 0;
        continue;
      }
      candidates_[kept++] = j;
      consider(uj, violation, bland, pr, best_score);
    }
    candidates_.resize(kept);
    return pr;
  }

  /// Devex pricing over every column in index order: certifies optimality
  /// and supplies the index-order gap sum the bounded-accuracy test reads.
  PriceResult price_full(bool bland) {
    KernelTimer timer(kernels_.pricing);
    PriceResult pr;
    double best_score = 0.0;
    for (int j = 0; j < num_cols_; ++j) {
      const std::size_t uj = static_cast<std::size_t>(j);
      const double violation = dual_violation(uj);
      if (violation > 0.0) consider(uj, violation, bland, pr, best_score);
    }
    return pr;
  }

  /// pivot_row_ = B^-T e_pos, the row of basis position `pos` in B^-1.
  void btran_pivot_row(int pos) {
    KernelTimer timer(kernels_.btran);
    std::fill(pivot_row_.begin(), pivot_row_.end(), 0.0);
    pivot_row_[static_cast<std::size_t>(pos)] = 1.0;
    factor_.btran(pivot_row_);
  }

  /// The values every block of one pivot-row walk shares.
  struct PivotStep {
    int entering;
    bool phase1;
    double gamma_q;  // Devex weight of the entering column (>= 1).
    double inv_aq;   // 1 / alpha_q.
    double rho;      // d_q / alpha_q.
  };

  /// Computes the pivot row alpha_j = a_j' (B^-T e_r) for the columns it
  /// touches, updates the Devex reference weights, and (phase 2) applies
  /// the rank-one reduced-cost update.  Must run before the basis exchange
  /// is recorded.  `w` is the FTRAN image of the entering column.
  void pivot_row_update(int entering, int leaving_pos, double d_enter, bool phase1,
                        const std::vector<double>& w) {
    btran_pivot_row(leaving_pos);

    KernelTimer timer(kernels_.pivot_row);
    const double alpha_q = w[static_cast<std::size_t>(leaving_pos)];
    const double gamma_q =
        std::max(ref_weight_[static_cast<std::size_t>(entering)], 1.0);
    const double inv_aq = 1.0 / alpha_q;
    const double rho = d_enter * inv_aq;
    const int leaving_var = basic_[static_cast<std::size_t>(leaving_pos)];
    const PivotStep step{entering, phase1, gamma_q, inv_aq, rho};
    for_each_block([this, &step](int b) { walk_pivot_row(b, step); });
    merge_entered();

    // The leaving variable becomes nonbasic with reduced cost -rho and the
    // entering one turns basic (zero by definition).
    ref_weight_[static_cast<std::size_t>(leaving_var)] =
        std::max(gamma_q * inv_aq * inv_aq, 1.0);
    if (!phase1) {
      d_[static_cast<std::size_t>(leaving_var)] = -rho;
      d_[static_cast<std::size_t>(entering)] = 0.0;
    }
    if (gamma_q > kWeightResetLimit) reset_reference_framework();
    // Phase 1 recomputes duals every iteration anyway (the composite cost
    // vector changes whenever a basic variable crosses a violated bound).
    if (phase1) duals_fresh_ = false;
  }

  /// Block b's share of the pivot row alpha_j = a_j' pivot_row_, left in
  /// alpha_ with the columns it hit in the block's `touched` list.  Each
  /// column sums over the pivot row's rows in ascending order, as a serial
  /// walk does, so every block count yields the same bits.  Whoever reads
  /// the row resets alpha_ on the touched columns.
  void accumulate_pivot_row(int b) {
    const int m = matrix_.num_rows;
    const int n = matrix_.num_structural;
    const std::size_t ub = static_cast<std::size_t>(b);
    const std::size_t stride = static_cast<std::size_t>(num_blocks_) + 1;
    const int first = block_begin_[ub];
    const int last = block_begin_[ub + 1];
    BlockScratch& block = blocks_[ub];
    block.touched.clear();
    block.entered.clear();
    for (int i = 0; i < m; ++i) {
      const double vi = pivot_row_[static_cast<std::size_t>(i)];
      if (std::abs(vi) <= kAlphaDrop) continue;
      // The block's structural columns of row i.
      const int* cut = &row_cut_[static_cast<std::size_t>(i) * stride + ub];
      for (int p = cut[0]; p < cut[1]; ++p) {
        const int j = row_col_[static_cast<std::size_t>(p)];
        if (alpha_[static_cast<std::size_t>(j)] == 0.0) block.touched.push_back(j);
        alpha_[static_cast<std::size_t>(j)] += vi * row_val_[static_cast<std::size_t>(p)];
      }
      // The logical of row i is e_i: alpha is the BTRAN image itself.
      const int logical = n + i;
      if (logical < first || logical >= last) continue;
      if (alpha_[static_cast<std::size_t>(logical)] == 0.0) block.touched.push_back(logical);
      alpha_[static_cast<std::size_t>(logical)] += vi;
    }
  }

  /// Block b's share of pivot_row_update.
  void walk_pivot_row(int b, const PivotStep& step) {
    accumulate_pivot_row(b);
    BlockScratch& block = blocks_[static_cast<std::size_t>(b)];
    for (const int j : block.touched) {
      const std::size_t uj = static_cast<std::size_t>(j);
      const double aj = alpha_[uj];
      alpha_[uj] = 0.0;  // Reset the workspace as we go.
      const VStat s = stat_[uj];
      if (j == step.entering || s == VStat::kBasic) continue;
      const double ratio = aj * step.inv_aq;
      const double candidate = ratio * ratio * step.gamma_q;
      if (candidate > ref_weight_[uj]) ref_weight_[uj] = candidate;
      if (step.phase1) continue;
      // note_candidate, inlined on the values already at hand: this loop
      // runs over ~14k columns per pivot on NTT.
      const double dj = d_[uj] - step.rho * aj;
      d_[uj] = dj;
      if (in_candidates_[uj] == 0 && violation_of(s, dj) > 0.0) {
        in_candidates_[uj] = 1;
        block.entered.push_back(j);
      }
    }
  }

  // ---- Dual simplex for warm starts -------------------------------------
  //
  // A re-solve installs the previous optimal basis in an edited model.  In
  // the nwlb LPs a demand drift scales a class's columns by one positive
  // factor, and rhs and bound edits touch no reduced cost, so that basis
  // stays dual feasible (up to the last solve's residual) while some basic
  // values leave their bounds.  The dual simplex keeps dual feasibility and
  // walks those values back; primal phase 2 then certifies the point with
  // its full scan.  A movable column whose reduced cost has the wrong sign
  // has its cost shifted to make d_j = 0 for the dual run; the shifts are
  // undone before phase 2 (Koberstein's 2005 thesis, §6.2.2.3).

  /// Warm-start entry, on a freshly factored basis.  Re-sides the fixed
  /// columns and, when the installed basis is primal infeasible, runs the
  /// dual on shifted costs.  kOptimal means "go on with the primal phases";
  /// any other status ends the solve.
  Status warm_dual(Solution& sol) {
    refresh_duals(/*phase1=*/false);
    reside_fixed_columns();
    if (infeasibility() <= kFeasibilityTol) return Status::kOptimal;
    shift_dual_infeasible();
    const Status status = dual_loop(sol);
    unshift_costs();
    if (status != Status::kOptimal) return status;
    refresh_duals(false);
    reside_fixed_columns();
    return Status::kOptimal;
  }

  /// Moves every nonbasic fixed column (lb == ub) that its reduced cost
  /// prices as dual infeasible to its other side; its value does not
  /// change.  The dual never moves such a column, and phase 2 would
  /// otherwise spend a zero-length bound flip on each one.
  void reside_fixed_columns() {
    KernelTimer timer(kernels_.dual_refresh);
    for (std::size_t j = 0; j < stat_.size(); ++j) {
      if (stat_[j] == VStat::kBasic || lb_[j] != ub_[j]) continue;
      if (stat_[j] == VStat::kAtLower && d_[j] < -kOptimalityTol) {
        stat_[j] = VStat::kAtUpper;
      } else if (stat_[j] == VStat::kAtUpper && d_[j] > kOptimalityTol) {
        stat_[j] = VStat::kAtLower;
      }
    }
  }

  /// Shifts the cost of every movable nonbasic column that is not dual
  /// feasible so that its reduced cost reads 0.
  void shift_dual_infeasible() {
    KernelTimer timer(kernels_.dual_refresh);
    for (int j = 0; j < num_cols_; ++j) {
      const std::size_t uj = static_cast<std::size_t>(j);
      if (lb_[uj] != ub_[uj] && dual_violation(uj) > 0.0) shift_cost(j);
    }
  }

  void shift_cost(int j) {
    const std::size_t uj = static_cast<std::size_t>(j);
    cost_[uj] -= d_[uj];
    d_[uj] = 0.0;
    shifted_.push_back(j);
  }

  /// Restores the model's cost of every shifted column.
  void unshift_costs() {
    for (const int j : shifted_)
      cost_[static_cast<std::size_t>(j)] = j < matrix_.num_structural ? model_.cost(VarId{j}) : 0.0;
    shifted_.clear();
  }

  /// Dual Devex CHUZR: the basis position whose value lies furthest outside
  /// its bounds relative to its weight, ties to the smallest position, with
  /// `delta` = x - bound; -1 when every basic value is within
  /// kFeasibilityTol of its bounds.
  int choose_leaving_row(double& delta) {
    KernelTimer timer(kernels_.pricing);
    int best = -1;
    double best_score = 0.0;
    for (int i = 0; i < matrix_.num_rows; ++i) {
      const std::size_t j = static_cast<std::size_t>(basic_[static_cast<std::size_t>(i)]);
      double violation = 0.0;
      if (x_[j] < lb_[j] - kFeasibilityTol) {
        violation = x_[j] - lb_[j];
      } else if (x_[j] > ub_[j] + kFeasibilityTol) {
        violation = x_[j] - ub_[j];
      } else {
        continue;
      }
      const double score = violation * violation / dual_weight_[static_cast<std::size_t>(i)];
      if (score > best_score) {
        best_score = score;
        best = i;
        delta = violation;
      }
    }
    return best;
  }

  /// Dual simplex iterations on the shifted costs until no basic value
  /// violates a bound.  Also kOptimal when the dual stops short, after
  /// Options::stall_limit zero-length steps in a row or with no eligible
  /// column: primal phase 1 then takes over from the current basis.
  Status dual_loop(Solution& sol) {
    std::vector<double>& w = entering_col_;
    dual_weight_.assign(static_cast<std::size_t>(matrix_.num_rows), 1.0);
    int stall = 0;
    for (;;) {
      if (hit_iteration_limit(sol)) return Status::kIterationLimit;
      if (hit_deadline(sol)) return Status::kTimeLimit;
      if (!duals_fresh_) {
        refresh_duals(false);
        shift_dual_infeasible();
      }
      double delta = 0.0;
      const int r = choose_leaving_row(delta);
      if (r < 0) return Status::kOptimal;
      btran_pivot_row(r);
      // The leaving value moves toward its violated bound; a column whose
      // alpha_j has the sign of delta (times its side) would lose dual
      // feasibility first.
      const double sign = delta > 0.0 ? 1.0 : -1.0;
      const int q = dual_ratio_test(sign);
      if (q < 0) {
        update_dual_row(0.0);
        return Status::kOptimal;
      }
      ftran_column(q, w);
      const std::size_t uq = static_cast<std::size_t>(q);
      const double alpha_q = w[static_cast<std::size_t>(r)];
      if (std::abs(alpha_q - alpha_[uq]) > kPivotMismatch * std::abs(alpha_q) &&
          factor_.num_updates() > 0) {
        // The row and column disagree on the pivot: the eta file drifted.
        update_dual_row(0.0);
        if (!refactorize()) return Status::kNumericalFailure;
        continue;
      }
      double theta = d_[uq] / alpha_q;
      if (theta * sign < 0.0) {
        // d_q is on the wrong side within tolerance: shift it to 0 rather
        // than step backwards.
        shift_cost(q);
        theta = 0.0;
      }
      update_dual_row(theta);
      d_[static_cast<std::size_t>(basic_[static_cast<std::size_t>(r)])] = -theta;
      d_[uq] = 0.0;
      apply_dual_step(r, q, delta, w);
      ++sol.iterations;
      if (!update_factor(r, w)) return Status::kNumericalFailure;
      sol.refactorizations = refactor_count_;
      if (std::abs(theta) >= kTiny) {
        stall = 0;
      } else if (++stall > opt_.stall_limit) {
        return Status::kOptimal;
      }
    }
  }

  /// Walks the pivot row in blocks and runs the Harris two-pass ratio test
  /// on it.  Pass 1 bounds the dual step so that no eligible column's
  /// reduced cost passes kOptimalityTol on the wrong side; pass 2 takes,
  /// among the columns whose ratio is within that bound, the one with the
  /// largest |alpha_j|, ties to the smallest index.  Per-block minima and
  /// choices merge in a way that does not depend on the block count.
  /// Returns the entering column or -1; alpha_ stays filled either way.
  int dual_ratio_test(double sign) {
    {
      KernelTimer timer(kernels_.pivot_row);
      for_each_block([this, sign](int b) {
        accumulate_pivot_row(b);
        dual_bound_pass(b, sign);
      });
    }
    KernelTimer timer(kernels_.ratio_test);
    double bound = kInf;
    for (const BlockScratch& block : blocks_) bound = std::min(bound, block.dual_bound);
    if (!std::isfinite(bound)) return -1;
    for_each_block([this, sign, bound](int b) { dual_choose_pass(b, sign, bound); });
    int entering = -1;
    double best = 0.0;
    for (const BlockScratch& block : blocks_) {
      if (block.dual_choice < 0) continue;
      if (block.dual_choice_alpha > best ||
          (block.dual_choice_alpha == best && block.dual_choice < entering)) {
        best = block.dual_choice_alpha;
        entering = block.dual_choice;
      }
    }
    return entering;
  }

  /// Whether nonbasic column j may enter with sign-adjusted pivot-row entry
  /// `a`: it must be movable and able to absorb the step from its side.
  bool dual_eligible(std::size_t uj, double a) const {
    const VStat s = stat_[uj];
    if (s == VStat::kBasic || lb_[uj] == ub_[uj]) return false;
    return (a > kPivotTol && s != VStat::kAtUpper) || (a < -kPivotTol && s != VStat::kAtLower);
  }

  void dual_bound_pass(int b, double sign) {
    BlockScratch& block = blocks_[static_cast<std::size_t>(b)];
    double bound = kInf;
    for (const int j : block.touched) {
      const std::size_t uj = static_cast<std::size_t>(j);
      const double a = sign * alpha_[uj];
      if (!dual_eligible(uj, a)) continue;
      bound = std::min(bound, (d_[uj] + (a > 0.0 ? kOptimalityTol : -kOptimalityTol)) / a);
    }
    block.dual_bound = bound;
  }

  void dual_choose_pass(int b, double sign, double bound) {
    BlockScratch& block = blocks_[static_cast<std::size_t>(b)];
    int choice = -1;
    double best = 0.0;
    for (const int j : block.touched) {
      const std::size_t uj = static_cast<std::size_t>(j);
      const double a = sign * alpha_[uj];
      if (!dual_eligible(uj, a) || d_[uj] / a > bound) continue;
      const double size = std::abs(a);
      if (size > best || (size == best && j < choice)) {
        best = size;
        choice = j;
      }
    }
    block.dual_choice = choice;
    block.dual_choice_alpha = best;
  }

  /// d_j -= theta * alpha_j on the nonbasic columns the pivot row touched,
  /// resetting alpha_ on the way (theta = 0 only resets).
  void update_dual_row(double theta) {
    KernelTimer timer(kernels_.pivot_row);
    for_each_block([this, theta](int b) {
      for (const int j : blocks_[static_cast<std::size_t>(b)].touched) {
        const std::size_t uj = static_cast<std::size_t>(j);
        const double aj = alpha_[uj];
        alpha_[uj] = 0.0;
        if (theta != 0.0 && stat_[uj] != VStat::kBasic) d_[uj] -= theta * aj;
      }
    });
  }

  /// The primal side of a dual pivot: x_q enters by delta / alpha_q, the
  /// leaving variable lands on the bound it violated, and the dual Devex
  /// weights take the exchange.  `w` is the FTRAN image of column q.
  void apply_dual_step(int r, int q, double delta, const std::vector<double>& w) {
    KernelTimer timer(kernels_.update);
    const std::size_t ur = static_cast<std::size_t>(r);
    const std::size_t uq = static_cast<std::size_t>(q);
    const std::size_t p = static_cast<std::size_t>(basic_[ur]);
    const double alpha_q = w[ur];
    const double step = delta / alpha_q;
    for (int i = 0; i < matrix_.num_rows; ++i) {
      const double wi = w[static_cast<std::size_t>(i)];
      if (wi != 0.0) x_[static_cast<std::size_t>(basic_[static_cast<std::size_t>(i)])] -= step * wi;
    }
    x_[uq] += step;
    const bool to_upper = delta > 0.0;
    x_[p] = to_upper ? ub_[p] : lb_[p];
    stat_[p] = to_upper ? VStat::kAtUpper : VStat::kAtLower;
    basic_[ur] = q;
    stat_[uq] = VStat::kBasic;

    const double weight_r = dual_weight_[ur];
    for (int i = 0; i < matrix_.num_rows; ++i) {
      const double wi = w[static_cast<std::size_t>(i)];
      if (wi == 0.0 || i == r) continue;
      const double ratio = wi / alpha_q;
      double& weight = dual_weight_[static_cast<std::size_t>(i)];
      weight = std::max(weight, ratio * ratio * weight_r);
    }
    dual_weight_[ur] = std::max(weight_r / (alpha_q * alpha_q), 1.0);
    if (weight_r > kWeightResetLimit) std::fill(dual_weight_.begin(), dual_weight_.end(), 1.0);
  }

  // ---- Main iteration loop ---------------------------------------------
  bool hit_iteration_limit(const Solution& sol) const {
    return sol.iterations + sol.phase1_iterations >= opt_.max_iterations;
  }

  bool hit_deadline(const Solution& sol) const {
    const int total = sol.iterations + sol.phase1_iterations;
    return deadline_ != Clock::time_point{} && (total & 15) == 0 &&
           Clock::now() >= deadline_;
  }

  /// One phase of the simplex: Devex pricing over the candidate set,
  /// FTRAN, ratio test, pivot-row walk, basis update; Bland's rule after
  /// Options::stall_limit degenerate steps in a row.
  Status loop(bool phase1, Solution& sol) {
    std::vector<double>& w = entering_col_;
    int& iter_counter = phase1 ? sol.phase1_iterations : sol.iterations;
    int stall = 0;
    bool bland = false;
    duals_fresh_ = false;
    {
      KernelTimer timer(kernels_.pivot_row);
      reset_reference_framework();
    }

    for (;;) {
      if (hit_iteration_limit(sol)) return Status::kIterationLimit;
      if (hit_deadline(sol)) return Status::kTimeLimit;
      if (phase1 && infeasibility() <= kFeasibilityTol) return Status::kOptimal;

      if (!duals_fresh_ || bland) refresh_duals(phase1);
      PriceResult pr = price_candidates(bland);
      NWLB_DCHECK_EQ(pr.entering, price_full(bland).entering,
                     "candidate-set pricing chose differently from the full scan");
      if (pr.entering < 0) {
        // Certify on a full scan.  The set holds every eligible column by
        // construction; should it ever miss one, rebuild and price again.
        if (price_full(bland).entering < 0) return Status::kOptimal;
        rebuild_candidates();
        continue;
      }

      // Bounded-accuracy early termination: every eligible column has a
      // finite range, so any feasible point's objective is at least
      // z - sum(|d_j| * range_j) — stop once that provable gap is within
      // the caller's tolerance.  Certified on exact (refreshed) duals and
      // on the full scan's index-order sum, so summation order cannot move
      // the stopping point.
      if (!phase1 && opt_.objective_tolerance > 0.0 && !pr.gap_unbounded) {
        const double z = current_objective();
        const double budget = opt_.objective_tolerance * std::max(1.0, std::abs(z));
        if (pr.gap <= budget * (1.0 + kGapSumSlack)) {
          pr = price_full(bland);
          if (pr.gap <= budget) {
            if (!duals_fresh_) {
              refresh_duals(false);
              pr = price_full(bland);
              if (pr.entering < 0) return Status::kOptimal;
            }
            if (!pr.gap_unbounded && pr.gap <= budget) {
              certified_bound_ = z - pr.gap;
              return Status::kGoodEnough;
            }
          }
        }
      }

      const int entering = pr.entering;
      const std::size_t ue = static_cast<std::size_t>(entering);

      ftran_column(entering, w);

      // Dot-product hygiene: the maintained reduced cost must agree with
      // the exact one implied by the FTRAN image (d_q = c_q - c_B' w).
      // A disagreement means the incremental updates drifted — refresh and
      // re-price rather than pivot on a stale sign.
      const double d_exact = exact_reduced_cost(entering, phase1, w);
      if (std::abs(d_exact - pr.d_enter) > 1e-7 * (1.0 + std::abs(d_exact))) {
        if (!duals_fresh_) {
          refresh_duals(phase1);
          continue;
        }
        d_[ue] = d_exact;  // Freshly computed duals: trust the long-double dot.
      }
      const double d_enter = duals_fresh_ ? d_[ue] : d_exact;
      if (violation_of(stat_[ue], d_enter) == 0.0) {
        d_[ue] = d_enter;
        continue;  // Stale candidate; re-price on corrected data.
      }

      const int sigma = direction_of(entering, d_enter);
      const RatioResult rr = ratio_test(entering, sigma, w, phase1, bland);
      if (!rr.bounded) {
        return phase1 ? Status::kNumericalFailure : Status::kUnbounded;
      }

      const int leaving_var =
          rr.leaving_pos >= 0 ? basic_[static_cast<std::size_t>(rr.leaving_pos)] : -1;
      if (rr.leaving_pos >= 0)
        pivot_row_update(entering, rr.leaving_pos, d_enter, phase1, w);
      apply_step(entering, sigma, rr, w);
      // Status changes: a bound flip moves the entering column to its other
      // bound, a pivot seats the leaving one at a bound with d = -rho.
      note_candidate(entering);
      if (leaving_var >= 0) note_candidate(leaving_var);
      ++iter_counter;

      if (rr.step < kTiny) {
        if (++stall > opt_.stall_limit) bland = true;
      } else {
        stall = 0;
      }

      if (rr.leaving_pos >= 0 && !update_factor(rr.leaving_pos, w))
        return Status::kNumericalFailure;
      sol.refactorizations = refactor_count_;
    }
  }

  /// FTRAN of one column of the augmented matrix into `w`.
  void ftran_column(int col, std::vector<double>& w) {
    KernelTimer timer(kernels_.ftran);
    std::fill(w.begin(), w.end(), 0.0);
    matrix_.scatter(col, 1.0, w);
    factor_.ftran(w);
  }

  /// d_q = c_q - c_B' w from the FTRAN image, accumulated in long double.
  double exact_reduced_cost(int col, bool phase1, const std::vector<double>& w) {
    KernelTimer timer(kernels_.update);
    long double exact_acc = column_cost(col, phase1);
    for (int i = 0; i < matrix_.num_rows; ++i) {
      const double wi = w[static_cast<std::size_t>(i)];
      if (wi != 0.0) exact_acc -= static_cast<long double>(basic_cost(i, phase1)) * wi;
    }
    return static_cast<double>(exact_acc);
  }

  /// Appends the exchange at basis position `pos` to the eta file, or
  /// refactorizes when the pivot is too small or the file is full.  Returns
  /// false only when refactorization fails.
  bool update_factor(int pos, const std::vector<double>& w) {
    bool appended = false;
    {
      KernelTimer timer(kernels_.update);
      appended = factor_.update(pos, w, kPivotTol);
    }
    if (appended && factor_.num_updates() < kRefactorInterval) return true;
    return refactorize();
  }

  static int direction_of(int, double d) { return d < 0.0 ? +1 : -1; }

  struct RatioResult {
    bool bounded = false;
    double step = 0.0;
    int leaving_pos = -1;  // -1 => entering variable bound flip.
    bool leaving_at_upper = false;
  };

  RatioResult ratio_test(int entering, int sigma, const std::vector<double>& w,
                         bool phase1, bool bland) {
    KernelTimer timer(kernels_.ratio_test);
    NWLB_DCHECK(sigma == 1 || sigma == -1, "ratio_test: direction must be +-1");
    NWLB_DCHECK(stat_[static_cast<std::size_t>(entering)] != VStat::kBasic,
                "ratio_test: entering column ", entering, " is already basic");
    RatioResult rr;
    const std::size_t je = static_cast<std::size_t>(entering);
    double best = kInf;
    // Entering variable's own range bounds the step (bound flip).
    if (std::isfinite(lb_[je]) && std::isfinite(ub_[je])) best = ub_[je] - lb_[je];
    int leaving = -1;
    bool at_upper = false;
    double best_pivot = 0.0;

    const int m = matrix_.num_rows;
    for (int i = 0; i < m; ++i) {
      const double wi = w[static_cast<std::size_t>(i)];
      if (std::abs(wi) <= kPivotTol) continue;
      const double delta = -static_cast<double>(sigma) * wi;  // d x_B[i] / d step
      const std::size_t j = static_cast<std::size_t>(basic_[static_cast<std::size_t>(i)]);
      const double xb = x_[j];
      const double lo = lb_[j];
      const double hi = ub_[j];

      double ratio = kInf;
      bool hits_upper = false;
      const bool below = phase1 && xb < lo - kFeasibilityTol;
      const bool above = phase1 && xb > hi + kFeasibilityTol;
      if (below) {
        if (delta > 0.0) {
          ratio = (lo - xb) / delta;  // Rises to its violated lower bound.
          hits_upper = false;
        }
      } else if (above) {
        if (delta < 0.0) {
          ratio = (xb - hi) / (-delta);  // Falls to its violated upper bound.
          hits_upper = true;
        }
      } else if (delta < 0.0) {
        if (std::isfinite(lo)) {
          ratio = (xb - lo) / (-delta);
          hits_upper = false;
        }
      } else {
        if (std::isfinite(hi)) {
          ratio = (hi - xb) / delta;
          hits_upper = true;
        }
      }
      if (!std::isfinite(ratio)) continue;
      if (ratio < 0.0) ratio = 0.0;  // Degeneracy within tolerance.

      // Strictly better step wins; near-ties are broken for stability (the
      // largest pivot magnitude) or, in Bland mode, by variable index.
      bool take = false;
      if (ratio < best - 1e-10) {
        take = true;
      } else if (ratio < best + 1e-10) {
        if (leaving < 0) {
          take = true;  // Prefer a pivot over a pure bound flip at equal step.
        } else if (bland) {
          take = basic_[static_cast<std::size_t>(i)] <
                 basic_[static_cast<std::size_t>(leaving)];
        } else {
          take = std::abs(wi) > best_pivot;
        }
      }
      if (take) {
        best = std::min(best, ratio);
        leaving = i;
        at_upper = hits_upper;
        best_pivot = std::abs(wi);
      }
    }

    if (!std::isfinite(best)) return rr;  // Unbounded direction.
    rr.bounded = true;
    rr.step = best;
    rr.leaving_pos = leaving;  // May be -1: pure bound flip of the entering var.
    rr.leaving_at_upper = at_upper;
    return rr;
  }

  void apply_step(int entering, int sigma, const RatioResult& rr,
                  const std::vector<double>& w) {
    KernelTimer timer(kernels_.update);
    const std::size_t je = static_cast<std::size_t>(entering);
    const int m = matrix_.num_rows;
    NWLB_DCHECK(entering >= 0 && entering < num_cols_,
                "apply_step: entering column ", entering, " outside [0, ", num_cols_, ")");
    NWLB_DCHECK_LT(rr.leaving_pos, m, "apply_step: leaving position past the basis");
    NWLB_DCHECK_GE(rr.step, 0.0, "apply_step: negative step length");
    if (rr.step != 0.0) {
      for (int i = 0; i < m; ++i) {
        const double wi = w[static_cast<std::size_t>(i)];
        if (wi == 0.0) continue;
        const std::size_t j = static_cast<std::size_t>(basic_[static_cast<std::size_t>(i)]);
        x_[j] -= static_cast<double>(sigma) * rr.step * wi;
      }
    }
    const double new_value = x_[je] + static_cast<double>(sigma) * rr.step;

    if (rr.leaving_pos < 0) {
      // Bound flip: the entering variable traverses its whole range.
      x_[je] = new_value;
      stat_[je] = (sigma > 0) ? VStat::kAtUpper : VStat::kAtLower;
      // Snap exactly onto the bound to avoid drift.
      x_[je] = (stat_[je] == VStat::kAtUpper) ? ub_[je] : lb_[je];
      return;
    }

    const std::size_t lv =
        static_cast<std::size_t>(basic_[static_cast<std::size_t>(rr.leaving_pos)]);
    x_[lv] = rr.leaving_at_upper ? ub_[lv] : lb_[lv];
    stat_[lv] = rr.leaving_at_upper ? VStat::kAtUpper : VStat::kAtLower;
    basic_[static_cast<std::size_t>(rr.leaving_pos)] = entering;
    stat_[je] = VStat::kBasic;
    x_[je] = new_value;
  }

  // ---- Extraction -------------------------------------------------------
  void extract(Solution& sol) {
    const int n = matrix_.num_structural;
    const int m = matrix_.num_rows;
    std::vector<double> y;
    {
      KernelTimer timer(kernels_.update);
      sol.x.assign(static_cast<std::size_t>(n), 0.0);
      for (int j = 0; j < n; ++j)
        sol.x[static_cast<std::size_t>(j)] = x_[static_cast<std::size_t>(j)];
      sol.objective = model_.objective_value(sol.x);
      y.resize(static_cast<std::size_t>(m));
      for (int i = 0; i < m; ++i) y[static_cast<std::size_t>(i)] = basic_cost(i, false);
    }
    btran(y);
    sol.duals = std::move(y);
    KernelTimer timer(kernels_.update);
    sol.basis.basic = basic_;
    // A fixed column (lb == ub) is recorded at lower whichever side it
    // priced on, so that the basis describes the point: when a later model
    // releases the pin, the warm start keeps the column's value.
    sol.basis.nonbasic_state.assign(static_cast<std::size_t>(num_cols_),
                                    NonbasicState::kAtLower);
    for (int j = 0; j < num_cols_; ++j) {
      const std::size_t uj = static_cast<std::size_t>(j);
      switch (stat_[uj]) {
        case VStat::kAtUpper:
          if (lb_[uj] != ub_[uj]) sol.basis.nonbasic_state[uj] = NonbasicState::kAtUpper;
          break;
        case VStat::kFree:
          sol.basis.nonbasic_state[uj] = NonbasicState::kFree;
          break;
        default:
          break;
      }
    }
  }

  Solution finish(Solution& sol, Clock::time_point t0) const {
    sol.kernels = kernels_;
    sol.solve_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
    return std::move(sol);
  }

  /// One column block's lists, cache-line aligned so that blocks appending
  /// on different threads never share a line.
  struct alignas(64) BlockScratch {
    std::vector<int> touched;  // Columns the pivot row hit, first touch first.
    std::vector<int> entered;  // Columns that just turned eligible.
    double dual_bound = kInf;  // Harris pass 1 over the block.
    int dual_choice = -1;      // Harris pass 2 over the block, and its |alpha|.
    double dual_choice_alpha = 0.0;
  };

  const Model& model_;
  Options opt_;
  int forced_blocks_ = 0;  // > 0: test-forced block count.
  AugmentedMatrix matrix_;
  std::vector<int> row_col_;  // Row-wise structural matrix, rows sorted by column.
  std::vector<double> row_val_;
  std::vector<int> row_cut_;  // Per row, num_blocks_ + 1 offsets into row_col_.
  std::vector<double> lb_, ub_, cost_, rhs_, x_;
  std::vector<VStat> stat_;
  std::vector<int> basic_;
  std::vector<double> work_;
  std::vector<double> entering_col_;  // FTRAN image of the entering column (m).
  BasisFactor factor_;
  Clock::time_point deadline_{};  // Zero = no budget.
  KernelSeconds kernels_;
  int num_cols_ = 0;
  int refactor_count_ = 0;

  // Steepest-edge state.
  bool duals_fresh_ = false;
  std::vector<double> d_;           // Maintained reduced costs.
  std::vector<double> ref_weight_;  // Devex reference weights (>= 1).
  std::vector<double> alpha_;       // Pivot-row workspace (num_cols_).
  std::vector<double> pivot_row_;   // BTRAN(e_r) workspace (m).
  std::vector<double> y_;           // Dual workspace (m).
  std::vector<int> candidates_;     // Superset of the dual-infeasible columns.
  std::vector<char> in_candidates_; // Membership flags for candidates_.
  double certified_bound_ = 0.0;    // kGoodEnough objective lower bound.

  // Dual simplex state (warm starts only).
  std::vector<double> dual_weight_;  // Dual Devex weights, by basis position.
  std::vector<int> shifted_;         // Columns whose cost_ is shifted.

  // Column blocks of the pivot-row walk and the dual refresh.
  int num_blocks_ = 1;
  std::vector<int> block_begin_;      // Block b is [block_begin_[b], block_begin_[b+1]).
  std::vector<BlockScratch> blocks_;
  std::unique_ptr<util::ForkJoinTeam> team_;  // Only when num_blocks_ > 1.
};

Solution solve_with_blocks(const Model& model, const Options& options, const Basis* warm,
                           int blocks) {
  NWLB_CHECK_GE(options.max_iterations, 0, "solve_revised: negative iteration limit");
  NWLB_CHECK_GE(options.max_seconds, 0.0, "solve_revised: negative time budget");
  NWLB_CHECK_GE(options.objective_tolerance, 0.0,
                "solve_revised: negative objective tolerance");
  // The temporary Simplex, and with it the team, is gone before the check.
  Solution sol = Simplex(model, options, blocks).solve(warm);
  if (sol.solved()) {
    // Post-solve sanity: any deployed point must satisfy the model, a
    // tolerance-certified one included.
    const double viol = model.max_violation(sol.x);
    if (viol > 1e-5) sol.status = Status::kNumericalFailure;
  }
  return sol;
}

}  // namespace

Solution solve_revised(const Model& model, const Options& options, const Basis* warm) {
  return solve_with_blocks(model, options, warm, /*blocks=*/0);
}

namespace detail {

Solution solve_revised_in_blocks(const Model& model, const Options& options, const Basis* warm,
                                 int blocks) {
  NWLB_CHECK_GE(blocks, 1, "solve_revised_in_blocks: need at least one block");
  return solve_with_blocks(model, options, warm, blocks);
}

}  // namespace detail

}  // namespace nwlb::lp
