// Sparse basis factorization for the revised simplex.
//
// The basis matrix B (m columns drawn from the augmented matrix [A | I]) is
// factorized as P^T L U with a left-looking Gilbert–Peierls sparse LU and
// partial pivoting; subsequent basis exchanges are absorbed by
// product-form-of-the-inverse (PFI) eta vectors until the next
// refactorization.  This is the standard production arrangement (cf. CPLEX,
// HiGHS) scaled down to what the nwlb formulations need: bases here are
// dominated by coverage (GUB) rows and logical columns, so L and U stay
// extremely sparse and FTRAN/BTRAN cost is near-linear in nnz.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace nwlb::lp {

/// Column-compressed storage of the structural part of the constraint
/// matrix, augmented implicitly with one logical (slack) column e_i per row.
/// Column j < num_structural is a stored sparse column; column
/// num_structural + i is the unit vector e_i.
struct AugmentedMatrix {
  int num_rows = 0;
  int num_structural = 0;
  std::vector<int> col_ptr;   // Size num_structural + 1.
  std::vector<int> row_idx;   // Concatenated row indices.
  std::vector<double> value;  // Matching coefficients.

  int num_columns() const { return num_structural + num_rows; }
  bool is_logical(int col) const { return col >= num_structural; }
  int logical_row(int col) const { return col - num_structural; }

  /// Scatters column `col` into dense `out` (adding `scale` times entries).
  void scatter(int col, double scale, std::span<double> out) const;

  /// Dot product of column `col` with a dense vector.
  double dot(int col, std::span<const double> dense) const;
};

/// LU factors + eta updates of the current basis.
class BasisFactor {
 public:
  /// Outcome of factorize(): which basis positions could not be pivoted
  /// (empty on success) — the simplex repairs those with logicals.
  struct FactorizeResult {
    bool ok = false;
    std::vector<int> defective_positions;  // Basis slots needing repair.
    std::vector<int> unpivoted_rows;       // Rows without a pivot.
  };

  /// Factorizes B = [columns basic[0..m-1] of the augmented matrix].
  FactorizeResult factorize(const AugmentedMatrix& matrix, std::span<const int> basic,
                            double pivot_tol);

  /// Solves B x = b in place; `x` enters holding b (dense, size m) and
  /// leaves holding the solution, indexed by *basis position*.  Not safe to
  /// call concurrently on one factor (ftran and btran share a scratch).
  void ftran(std::span<double> x) const;

  /// Solves B^T y = c in place; `x` enters holding c indexed by basis
  /// position and leaves holding y indexed by row.
  void btran(std::span<double> x) const;

  /// Records the exchange "basis position `pos` replaced; new column has
  /// FTRAN image `w` (dense, size m)". Returns false when |w[pos]| is below
  /// `pivot_tol` (caller must refactorize instead).
  bool update(int pos, std::span<const double> w, double pivot_tol);

  int num_updates() const { return static_cast<int>(etas_.size()); }
  int dimension() const { return m_; }

  /// Total nonzeros in L + U (diagnostics).
  std::size_t factor_nonzeros() const;

 private:
  struct EtaVector {
    int pivot_pos = -1;
    double pivot_value = 0.0;
    std::vector<int> index;    // Basis positions (excluding pivot_pos).
    std::vector<double> value;
  };

  // L: unit lower triangular, column-wise, diagonal implicit (== 1).
  // U: upper triangular, column-wise, diagonal stored separately.
  int m_ = 0;
  std::vector<int> l_colptr_, l_rows_;
  std::vector<double> l_vals_;
  std::vector<int> u_colptr_, u_rows_;
  std::vector<double> u_vals_;
  std::vector<double> u_diag_;
  std::vector<int> pinv_;   // pinv_[original_row] = pivot order position.
  std::vector<int> porder_; // porder_[k] = original row pivoted at step k.
  std::vector<int> qorder_; // qorder_[k] = basis position factored at step k.
  std::vector<int> qinv_;   // qinv_[basis position] = factorization step.
  std::vector<EtaVector> etas_;
  // FTRAN/BTRAN scratch (size m), kept across calls instead of allocated per
  // solve; it makes concurrent solves on one BasisFactor unsafe.
  mutable std::vector<double> work_;
};

}  // namespace nwlb::lp
