#include "lp/basis.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace nwlb::lp {

void AugmentedMatrix::scatter(int col, double scale, std::span<double> out) const {
  if (is_logical(col)) {
    out[static_cast<std::size_t>(logical_row(col))] += scale;
    return;
  }
  for (int p = col_ptr[static_cast<std::size_t>(col)];
       p < col_ptr[static_cast<std::size_t>(col) + 1]; ++p) {
    out[static_cast<std::size_t>(row_idx[static_cast<std::size_t>(p)])] +=
        scale * value[static_cast<std::size_t>(p)];
  }
}

double AugmentedMatrix::dot(int col, std::span<const double> dense) const {
  if (is_logical(col)) return dense[static_cast<std::size_t>(logical_row(col))];
  // Long-double accumulation: these dot products feed reduced costs, whose
  // sign decides pivots — cancellation here shows up as cycling or bogus
  // "optimal" verdicts on the large, near-degenerate nwlb instances.
  long double total = 0.0L;
  for (int p = col_ptr[static_cast<std::size_t>(col)];
       p < col_ptr[static_cast<std::size_t>(col) + 1]; ++p) {
    total += static_cast<long double>(value[static_cast<std::size_t>(p)]) *
             dense[static_cast<std::size_t>(row_idx[static_cast<std::size_t>(p)])];
  }
  return static_cast<double>(total);
}

namespace {

/// Workspace for the left-looking factorization.
struct LuWorkspace {
  std::vector<double> x;        // Dense accumulator, original-row indexed.
  std::vector<int> pattern;     // Post-order pattern, xi[top..m).
  std::vector<int> node_stack;  // DFS node stack.
  std::vector<int> edge_stack;  // DFS resume positions.
  std::vector<int> mark;        // Visit stamps.
  int stamp = 0;

  explicit LuWorkspace(int m)
      : x(static_cast<std::size_t>(m), 0.0),
        pattern(static_cast<std::size_t>(m), 0),
        node_stack(static_cast<std::size_t>(m), 0),
        edge_stack(static_cast<std::size_t>(m), 0),
        mark(static_cast<std::size_t>(m), 0) {}
};

}  // namespace

BasisFactor::FactorizeResult BasisFactor::factorize(const AugmentedMatrix& matrix,
                                                    std::span<const int> basic,
                                                    double pivot_tol) {
  m_ = matrix.num_rows;
  NWLB_CHECK_EQ(static_cast<int>(basic.size()), m_,
                "BasisFactor::factorize: basis size != row count");

  etas_.clear();
  l_colptr_.assign(1, 0);
  l_rows_.clear();
  l_vals_.clear();
  u_colptr_.assign(1, 0);
  u_rows_.clear();
  u_vals_.clear();
  u_diag_.assign(static_cast<std::size_t>(m_), 0.0);
  pinv_.assign(static_cast<std::size_t>(m_), -1);
  porder_.assign(static_cast<std::size_t>(m_), -1);
  qorder_.assign(static_cast<std::size_t>(m_), -1);
  qinv_.assign(static_cast<std::size_t>(m_), -1);
  work_.assign(static_cast<std::size_t>(m_), 0.0);

  // Process sparsest columns first; this keeps the GUB/slack-dominated bases
  // of the nwlb formulations nearly triangular and fill-in negligible.
  std::vector<int> order(static_cast<std::size_t>(m_));
  for (int i = 0; i < m_; ++i) order[static_cast<std::size_t>(i)] = i;
  auto col_nnz = [&](int pos) {
    const int col = basic[static_cast<std::size_t>(pos)];
    if (matrix.is_logical(col)) return 1;
    return matrix.col_ptr[static_cast<std::size_t>(col) + 1] -
           matrix.col_ptr[static_cast<std::size_t>(col)];
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return col_nnz(a) < col_nnz(b); });

  LuWorkspace ws(m_);
  FactorizeResult result;
  int step = 0;

  // DFS over the partially built L to find the solve pattern; returns the
  // new `top` of ws.pattern (pattern occupies [top, m)).
  auto reach = [&](int start_row, int top) {
    if (ws.mark[static_cast<std::size_t>(start_row)] == ws.stamp) return top;
    int head = 0;
    ws.node_stack[0] = start_row;
    ws.edge_stack[0] = -1;  // -1 => edges not yet opened.
    ws.mark[static_cast<std::size_t>(start_row)] = ws.stamp;
    while (head >= 0) {
      const int node = ws.node_stack[static_cast<std::size_t>(head)];
      const int lcol = pinv_[static_cast<std::size_t>(node)];
      int p = ws.edge_stack[static_cast<std::size_t>(head)];
      if (p < 0) p = (lcol >= 0) ? l_colptr_[static_cast<std::size_t>(lcol)] : 0;
      bool descended = false;
      if (lcol >= 0) {
        const int pend = l_colptr_[static_cast<std::size_t>(lcol) + 1];
        for (; p < pend; ++p) {
          const int next = l_rows_[static_cast<std::size_t>(p)];
          if (ws.mark[static_cast<std::size_t>(next)] == ws.stamp) continue;
          ws.mark[static_cast<std::size_t>(next)] = ws.stamp;
          ws.edge_stack[static_cast<std::size_t>(head)] = p + 1;
          ++head;
          ws.node_stack[static_cast<std::size_t>(head)] = next;
          ws.edge_stack[static_cast<std::size_t>(head)] = -1;
          descended = true;
          break;
        }
      }
      if (!descended) {
        ws.pattern[static_cast<std::size_t>(--top)] = node;
        --head;
      }
    }
    return top;
  };

  // Factors one basis column; returns false if no acceptable pivot exists.
  auto process_column = [&](int pos, int forced_logical_row) {
    const int col = forced_logical_row >= 0 ? matrix.num_structural + forced_logical_row
                                            : basic[static_cast<std::size_t>(pos)];
    ++ws.stamp;
    int top = m_;
    if (matrix.is_logical(col)) {
      top = reach(matrix.logical_row(col), top);
    } else {
      for (int p = matrix.col_ptr[static_cast<std::size_t>(col)];
           p < matrix.col_ptr[static_cast<std::size_t>(col) + 1]; ++p) {
        top = reach(matrix.row_idx[static_cast<std::size_t>(p)], top);
      }
    }
    // Numeric: scatter b, then eliminate along the post-order pattern.
    matrix.scatter(col, 1.0, ws.x);
    for (int p = top; p < m_; ++p) {
      const int i = ws.pattern[static_cast<std::size_t>(p)];
      const int lcol = pinv_[static_cast<std::size_t>(i)];
      if (lcol < 0) continue;
      const double xi = ws.x[static_cast<std::size_t>(i)];
      if (xi == 0.0) continue;
      for (int q = l_colptr_[static_cast<std::size_t>(lcol)];
           q < l_colptr_[static_cast<std::size_t>(lcol) + 1]; ++q) {
        ws.x[static_cast<std::size_t>(l_rows_[static_cast<std::size_t>(q)])] -=
            l_vals_[static_cast<std::size_t>(q)] * xi;
      }
    }
    // Pivot selection: largest magnitude among not-yet-pivotal rows.
    int pivot_row = -1;
    double pivot_abs = 0.0;
    for (int p = top; p < m_; ++p) {
      const int i = ws.pattern[static_cast<std::size_t>(p)];
      if (pinv_[static_cast<std::size_t>(i)] >= 0) continue;
      const double a = std::abs(ws.x[static_cast<std::size_t>(i)]);
      if (a > pivot_abs) {
        pivot_abs = a;
        pivot_row = i;
      }
    }
    if (pivot_row < 0 || pivot_abs < pivot_tol) {
      for (int p = top; p < m_; ++p)
        ws.x[static_cast<std::size_t>(ws.pattern[static_cast<std::size_t>(p)])] = 0.0;
      return false;
    }
    const double pivot = ws.x[static_cast<std::size_t>(pivot_row)];
    // Emit U column `step` (rows already in pivot coordinates) and L column.
    for (int p = top; p < m_; ++p) {
      const int i = ws.pattern[static_cast<std::size_t>(p)];
      const double v = ws.x[static_cast<std::size_t>(i)];
      ws.x[static_cast<std::size_t>(i)] = 0.0;
      if (v == 0.0 || i == pivot_row) continue;
      const int piv = pinv_[static_cast<std::size_t>(i)];
      if (piv >= 0) {
        u_rows_.push_back(piv);
        u_vals_.push_back(v);
      } else {
        l_rows_.push_back(i);  // Original rows; renumbered after the loop.
        l_vals_.push_back(v / pivot);
      }
    }
    u_diag_[static_cast<std::size_t>(step)] = pivot;
    u_colptr_.push_back(static_cast<int>(u_rows_.size()));
    l_colptr_.push_back(static_cast<int>(l_rows_.size()));
    ws.x[static_cast<std::size_t>(pivot_row)] = 0.0;
    pinv_[static_cast<std::size_t>(pivot_row)] = step;
    porder_[static_cast<std::size_t>(step)] = pivot_row;
    qorder_[static_cast<std::size_t>(step)] = pos;
    qinv_[static_cast<std::size_t>(pos)] = step;
    ++step;
    return true;
  };

  std::vector<int> deferred;
  for (int pos : order) {
    if (!process_column(pos, -1)) deferred.push_back(pos);
  }
  if (!deferred.empty()) {
    // Repair: pair each defective basis slot with a logical of an unpivoted
    // row; factoring that logical column always succeeds (its solve pattern
    // reaches only not-yet-pivotal rows, where its value is exactly 1).
    int cursor = 0;
    for (int pos : deferred) {
      while (cursor < m_ && pinv_[static_cast<std::size_t>(cursor)] >= 0) ++cursor;
      NWLB_CHECK_LT(cursor, m_, "BasisFactor: repair ran out of unpivoted rows");
      result.defective_positions.push_back(pos);
      result.unpivoted_rows.push_back(cursor);
      NWLB_CHECK(process_column(pos, cursor),
                 "BasisFactor: logical repair column failed to pivot at row ", cursor);
    }
  }
  // Renumber L's row indices into pivot coordinates.
  for (auto& r : l_rows_) r = pinv_[static_cast<std::size_t>(r)];
  result.ok = true;
  return result;
}

void BasisFactor::ftran(std::span<double> x) const {
  NWLB_CHECK_EQ(static_cast<int>(x.size()), m_, "BasisFactor::ftran: bad dimension");
  // Every slot of the scratch is written by the permutation below.
  std::vector<double>& work = work_;
  for (int i = 0; i < m_; ++i)
    work[static_cast<std::size_t>(pinv_[static_cast<std::size_t>(i)])] =
        x[static_cast<std::size_t>(i)];
  // L solve (unit diagonal).
  for (int k = 0; k < m_; ++k) {
    const double v = work[static_cast<std::size_t>(k)];
    if (v == 0.0) continue;
    for (int p = l_colptr_[static_cast<std::size_t>(k)];
         p < l_colptr_[static_cast<std::size_t>(k) + 1]; ++p) {
      work[static_cast<std::size_t>(l_rows_[static_cast<std::size_t>(p)])] -=
          l_vals_[static_cast<std::size_t>(p)] * v;
    }
  }
  // U solve.
  for (int k = m_ - 1; k >= 0; --k) {
    double v = work[static_cast<std::size_t>(k)];
    if (v == 0.0) continue;
    v /= u_diag_[static_cast<std::size_t>(k)];
    work[static_cast<std::size_t>(k)] = v;
    for (int p = u_colptr_[static_cast<std::size_t>(k)];
         p < u_colptr_[static_cast<std::size_t>(k) + 1]; ++p) {
      work[static_cast<std::size_t>(u_rows_[static_cast<std::size_t>(p)])] -=
          u_vals_[static_cast<std::size_t>(p)] * v;
    }
  }
  // Map factorization steps back to basis positions.
  for (int k = 0; k < m_; ++k)
    x[static_cast<std::size_t>(qorder_[static_cast<std::size_t>(k)])] =
        work[static_cast<std::size_t>(k)];
  // Apply eta inverses in creation order.
  for (const EtaVector& eta : etas_) {
    const double xr = x[static_cast<std::size_t>(eta.pivot_pos)] / eta.pivot_value;
    x[static_cast<std::size_t>(eta.pivot_pos)] = xr;
    if (xr == 0.0) continue;
    for (std::size_t p = 0; p < eta.index.size(); ++p)
      x[static_cast<std::size_t>(eta.index[p])] -= eta.value[p] * xr;
  }
}

void BasisFactor::btran(std::span<double> x) const {
  NWLB_CHECK_EQ(static_cast<int>(x.size()), m_, "BasisFactor::btran: bad dimension");
  // Apply eta transpose inverses in reverse creation order.
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    double v = x[static_cast<std::size_t>(it->pivot_pos)];
    for (std::size_t p = 0; p < it->index.size(); ++p)
      v -= it->value[p] * x[static_cast<std::size_t>(it->index[p])];
    x[static_cast<std::size_t>(it->pivot_pos)] = v / it->pivot_value;
  }
  // Permute basis positions into factorization steps (writes every slot).
  std::vector<double>& work = work_;
  for (int k = 0; k < m_; ++k)
    work[static_cast<std::size_t>(k)] =
        x[static_cast<std::size_t>(qorder_[static_cast<std::size_t>(k)])];
  // U^T solve (lower triangular in step coordinates).
  for (int k = 0; k < m_; ++k) {
    double v = work[static_cast<std::size_t>(k)];
    for (int p = u_colptr_[static_cast<std::size_t>(k)];
         p < u_colptr_[static_cast<std::size_t>(k) + 1]; ++p) {
      v -= u_vals_[static_cast<std::size_t>(p)] *
           work[static_cast<std::size_t>(u_rows_[static_cast<std::size_t>(p)])];
    }
    work[static_cast<std::size_t>(k)] = v / u_diag_[static_cast<std::size_t>(k)];
  }
  // L^T solve (upper triangular in step coordinates, unit diagonal).
  for (int k = m_ - 1; k >= 0; --k) {
    double v = work[static_cast<std::size_t>(k)];
    for (int p = l_colptr_[static_cast<std::size_t>(k)];
         p < l_colptr_[static_cast<std::size_t>(k) + 1]; ++p) {
      v -= l_vals_[static_cast<std::size_t>(p)] *
           work[static_cast<std::size_t>(l_rows_[static_cast<std::size_t>(p)])];
    }
    work[static_cast<std::size_t>(k)] = v;
  }
  // Undo the row permutation: y[original_row] = work[pivot step].
  for (int i = 0; i < m_; ++i)
    x[static_cast<std::size_t>(i)] =
        work[static_cast<std::size_t>(pinv_[static_cast<std::size_t>(i)])];
}

bool BasisFactor::update(int pos, std::span<const double> w, double pivot_tol) {
  NWLB_DCHECK_EQ(static_cast<int>(w.size()), m_, "BasisFactor::update: bad dimension");
  NWLB_DCHECK(pos >= 0 && pos < m_, "BasisFactor::update: basis position ", pos,
              " outside [0, ", m_, ")");
  const double pivot = w[static_cast<std::size_t>(pos)];
  if (std::abs(pivot) < pivot_tol) return false;
  EtaVector eta;
  eta.pivot_pos = pos;
  eta.pivot_value = pivot;
  for (int i = 0; i < m_; ++i) {
    if (i == pos) continue;
    const double v = w[static_cast<std::size_t>(i)];
    if (v != 0.0) {
      eta.index.push_back(i);
      eta.value.push_back(v);
    }
  }
  etas_.push_back(std::move(eta));
  return true;
}

std::size_t BasisFactor::factor_nonzeros() const {
  return l_vals_.size() + u_vals_.size() + static_cast<std::size_t>(m_);
}

}  // namespace nwlb::lp
