#include "lp/model.h"

#include <algorithm>
#include <stdexcept>

namespace nwlb::lp {
namespace {

/// Bounds may be infinite, but only outward: a lower bound of +inf or an
/// upper bound of -inf leaves no finite value to rest at.
bool bounds_ok(double lower, double upper) {
  return !std::isnan(lower) && !std::isnan(upper) && lower != kInf && upper != -kInf &&
         lower <= upper;
}

}  // namespace

VarId Model::add_variable(double lower, double upper, double cost, std::string name) {
  if (!std::isfinite(cost))
    throw std::invalid_argument("Model::add_variable: non-finite cost for '" + name + "'");
  if (!bounds_ok(lower, upper))
    throw std::invalid_argument("Model::add_variable: malformed bounds for '" + name + "'");
  var_lower_.push_back(lower);
  var_upper_.push_back(upper);
  var_cost_.push_back(cost);
  var_name_.push_back(std::move(name));
  return VarId{static_cast<int>(var_lower_.size()) - 1};
}

RowId Model::add_row(Sense sense, double rhs, std::string name) {
  if (!std::isfinite(rhs))
    throw std::invalid_argument("Model::add_row: non-finite rhs for '" + name + "'");
  row_sense_.push_back(sense);
  row_rhs_.push_back(rhs);
  row_name_.push_back(std::move(name));
  row_entries_.emplace_back();
  return RowId{static_cast<int>(row_sense_.size()) - 1};
}

void Model::add_coefficient(RowId row, VarId var, double coef) {
  const int r = check_row(row);
  const int v = check_var(var);
  if (std::isnan(coef) || std::isinf(coef))
    throw std::invalid_argument("Model::add_coefficient: non-finite coefficient");
  if (coef == 0.0) return;
  row_entries_[r].push_back(Entry{v, coef});
}

void Model::set_cost(VarId var, double cost) {
  if (!std::isfinite(cost)) throw std::invalid_argument("Model::set_cost: non-finite cost");
  var_cost_[static_cast<std::size_t>(check_var(var))] = cost;
}

void Model::set_bounds(VarId var, double lower, double upper) {
  if (!bounds_ok(lower, upper)) throw std::invalid_argument("Model::set_bounds: malformed bounds");
  const auto j = static_cast<std::size_t>(check_var(var));
  var_lower_[j] = lower;
  var_upper_[j] = upper;
}

void Model::set_rhs(RowId row, double rhs) {
  if (!std::isfinite(rhs)) throw std::invalid_argument("Model::set_rhs: non-finite rhs");
  row_rhs_[static_cast<std::size_t>(check_row(row))] = rhs;
}

std::size_t Model::num_nonzeros() const {
  std::size_t count = 0;
  for (const auto& entries : row_entries_) count += entries.size();
  return count;
}

void Model::normalize() {
  for (auto& entries : row_entries_) normalize_entries(entries);
}

void Model::normalize_entries(std::vector<Entry>& entries) {
  if (entries.size() < 2) return;
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.var < b.var; });
  std::vector<Entry> merged;
  merged.reserve(entries.size());
  for (const Entry& e : entries) {
    if (!merged.empty() && merged.back().var == e.var) {
      merged.back().coef += e.coef;
    } else {
      merged.push_back(e);
    }
  }
  merged.erase(std::remove_if(merged.begin(), merged.end(),
                              [](const Entry& e) { return e.coef == 0.0; }),
               merged.end());
  entries = std::move(merged);
}

double Model::max_violation(const std::vector<double>& x) const {
  if (static_cast<int>(x.size()) != num_variables())
    throw std::invalid_argument("Model::max_violation: dimension mismatch");
  double worst = 0.0;
  for (int v = 0; v < num_variables(); ++v) {
    worst = std::max(worst, var_lower_[v] - x[v]);
    worst = std::max(worst, x[v] - var_upper_[v]);
  }
  for (int r = 0; r < num_rows(); ++r) {
    double activity = 0.0;
    for (const Entry& e : row_entries_[r]) activity += e.coef * x[e.var];
    const double rhs = row_rhs_[r];
    switch (row_sense_[r]) {
      case Sense::kLessEqual:
        worst = std::max(worst, activity - rhs);
        break;
      case Sense::kGreaterEqual:
        worst = std::max(worst, rhs - activity);
        break;
      case Sense::kEqual:
        worst = std::max(worst, std::abs(activity - rhs));
        break;
    }
  }
  return worst;
}

double Model::objective_value(const std::vector<double>& x) const {
  if (static_cast<int>(x.size()) != num_variables())
    throw std::invalid_argument("Model::objective_value: dimension mismatch");
  double total = 0.0;
  for (int v = 0; v < num_variables(); ++v) total += var_cost_[v] * x[v];
  return total;
}

int Model::check_var(VarId v) const {
  if (v.value < 0 || v.value >= num_variables())
    throw std::out_of_range("Model: bad VarId");
  return v.value;
}

int Model::check_row(RowId r) const {
  if (r.value < 0 || r.value >= num_rows())
    throw std::out_of_range("Model: bad RowId");
  return r.value;
}

}  // namespace nwlb::lp
