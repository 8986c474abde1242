// Linear-program model builder.
//
// This is the interface the optimization formulations (src/core) use to
// state the paper's LPs (Fig. 7 replication, §5 split-traffic, Fig. 9
// aggregation).  A Model is a plain data container: variables with bounds
// and objective coefficients, and rows (constraints) with a sense and a
// right-hand side.  Solvers (dense tableau oracle and the production sparse
// revised simplex) consume it read-only.
#pragma once

#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace nwlb::lp {

/// +infinity used for unbounded variable bounds.
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Strongly-typed variable handle.
struct VarId {
  int value = -1;
  friend bool operator==(VarId, VarId) = default;
};

/// Strongly-typed row (constraint) handle.
struct RowId {
  int value = -1;
  friend bool operator==(RowId, RowId) = default;
};

enum class Sense { kLessEqual, kGreaterEqual, kEqual };

/// One nonzero coefficient of a row.
struct Entry {
  int var = -1;
  double coef = 0.0;
};

/// A linear program: minimize c'x subject to row senses and variable bounds.
/// Maximization is expressed by negating the objective at the call site.
class Model {
 public:
  /// Adds a variable with bounds [lower, upper] and objective coefficient
  /// `cost`. `name` is kept for diagnostics only.  Throws
  /// std::invalid_argument on a non-finite cost, a NaN bound, lower > upper,
  /// lower == +inf or upper == -inf; the other infinite bounds are allowed.
  VarId add_variable(double lower, double upper, double cost, std::string name = {});

  /// Adds an empty row `a'x (sense) rhs`; coefficients are attached with
  /// add_coefficient. Duplicate (row, var) pairs are summed on finalize.
  /// Throws std::invalid_argument on a non-finite rhs.
  RowId add_row(Sense sense, double rhs, std::string name = {});

  /// Appends a coefficient to an existing row.
  void add_coefficient(RowId row, VarId var, double coef);

  /// In-place edits (used by the MPS reader and by re-optimization flows
  /// that keep the model shape while moving data).  They reject what
  /// add_variable and add_row reject.
  void set_cost(VarId var, double cost);
  void set_bounds(VarId var, double lower, double upper);
  void set_rhs(RowId row, double rhs);

  int num_variables() const { return static_cast<int>(var_lower_.size()); }
  int num_rows() const { return static_cast<int>(row_sense_.size()); }
  std::size_t num_nonzeros() const;

  double lower(VarId v) const { return var_lower_[check_var(v)]; }
  double upper(VarId v) const { return var_upper_[check_var(v)]; }
  double cost(VarId v) const { return var_cost_[check_var(v)]; }
  const std::string& var_name(VarId v) const { return var_name_[check_var(v)]; }

  Sense sense(RowId r) const { return row_sense_[check_row(r)]; }
  double rhs(RowId r) const { return row_rhs_[check_row(r)]; }
  const std::string& row_name(RowId r) const { return row_name_[check_row(r)]; }
  const std::vector<Entry>& row_entries(RowId r) const { return row_entries_[check_row(r)]; }

  /// Merges duplicate coefficients within each row (summing them) and drops
  /// exact zeros.  Solvers call this once before converting to internal
  /// form; it is idempotent.
  void normalize();

  /// normalize()'s rule for one row: sorts by variable, sums duplicates and
  /// drops exact zeros (a row of fewer than two entries is left as is).
  /// Solvers apply it to a scratch copy of each row instead of copying the
  /// whole model.
  static void normalize_entries(std::vector<Entry>& entries);

  /// Evaluates a candidate solution: returns the maximum constraint / bound
  /// violation.  Used by tests and by solution sanity checks.
  double max_violation(const std::vector<double>& x) const;

  /// Objective value c'x for a candidate point.
  double objective_value(const std::vector<double>& x) const;

 private:
  int check_var(VarId v) const;
  int check_row(RowId r) const;

  std::vector<double> var_lower_;
  std::vector<double> var_upper_;
  std::vector<double> var_cost_;
  std::vector<std::string> var_name_;

  std::vector<Sense> row_sense_;
  std::vector<double> row_rhs_;
  std::vector<std::string> row_name_;
  std::vector<std::vector<Entry>> row_entries_;
};

}  // namespace nwlb::lp
