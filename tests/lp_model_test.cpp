#include "lp/model.h"

#include <gtest/gtest.h>

namespace nwlb::lp {
namespace {

TEST(Model, AddVariableValidatesBounds) {
  Model m;
  EXPECT_THROW(m.add_variable(1.0, 0.0, 0.0), std::invalid_argument);
  const VarId v = m.add_variable(0.0, 1.0, 2.5, "x");
  EXPECT_EQ(m.num_variables(), 1);
  EXPECT_DOUBLE_EQ(m.lower(v), 0.0);
  EXPECT_DOUBLE_EQ(m.upper(v), 1.0);
  EXPECT_DOUBLE_EQ(m.cost(v), 2.5);
  EXPECT_EQ(m.var_name(v), "x");
}

TEST(Model, RowsAndCoefficients) {
  Model m;
  const VarId x = m.add_variable(0, kInf, 1);
  const VarId y = m.add_variable(0, kInf, 1);
  const RowId r = m.add_row(Sense::kLessEqual, 10.0, "cap");
  m.add_coefficient(r, x, 2.0);
  m.add_coefficient(r, y, 3.0);
  EXPECT_EQ(m.num_rows(), 1);
  EXPECT_EQ(m.num_nonzeros(), 2u);
  EXPECT_EQ(m.row_name(r), "cap");
  EXPECT_DOUBLE_EQ(m.rhs(r), 10.0);
}

TEST(Model, NormalizeMergesDuplicates) {
  Model m;
  const VarId x = m.add_variable(0, 1, 0);
  const RowId r = m.add_row(Sense::kEqual, 1.0);
  m.add_coefficient(r, x, 0.5);
  m.add_coefficient(r, x, 0.5);
  m.add_coefficient(r, x, -1.0);  // Sums to zero: dropped.
  m.normalize();
  EXPECT_TRUE(m.row_entries(r).empty());
}

TEST(Model, ZeroCoefficientIgnored) {
  Model m;
  const VarId x = m.add_variable(0, 1, 0);
  const RowId r = m.add_row(Sense::kEqual, 0.0);
  m.add_coefficient(r, x, 0.0);
  EXPECT_EQ(m.num_nonzeros(), 0u);
}

TEST(Model, MaxViolationMeasuresAllSenses) {
  Model m;
  const VarId x = m.add_variable(0.0, 2.0, 0.0);
  const RowId le = m.add_row(Sense::kLessEqual, 1.0);
  const RowId ge = m.add_row(Sense::kGreaterEqual, 0.5);
  const RowId eq = m.add_row(Sense::kEqual, 1.5);
  m.add_coefficient(le, x, 1.0);
  m.add_coefficient(ge, x, 1.0);
  m.add_coefficient(eq, x, 1.0);
  EXPECT_NEAR(m.max_violation({1.5}), 0.5, 1e-12);  // le violated by 0.5.
  EXPECT_NEAR(m.max_violation({0.0}), 1.5, 1e-12);  // eq violated by 1.5.
  EXPECT_NEAR(m.max_violation({3.0}), 2.0, 1e-12);  // le by 2, bound by 1.
}

TEST(Model, ObjectiveValue) {
  Model m;
  m.add_variable(0, 1, 2.0);
  m.add_variable(0, 1, -1.0);
  EXPECT_DOUBLE_EQ(m.objective_value({0.5, 1.0}), 0.0);
  EXPECT_THROW(m.objective_value({0.5}), std::invalid_argument);
}

TEST(Model, BadHandlesThrow) {
  Model m;
  m.add_variable(0, 1, 0);
  EXPECT_THROW(m.lower(VarId{5}), std::out_of_range);
  EXPECT_THROW(m.rhs(RowId{0}), std::out_of_range);
  const RowId r = m.add_row(Sense::kEqual, 0);
  EXPECT_THROW(m.add_coefficient(r, VarId{9}, 1.0), std::out_of_range);
}

TEST(Model, RejectsNonFiniteCoefficient) {
  Model m;
  const VarId x = m.add_variable(0, 1, 0);
  const RowId r = m.add_row(Sense::kEqual, 0);
  EXPECT_THROW(m.add_coefficient(r, x, kInf), std::invalid_argument);
}

// A +-inf cost or rhs used to be accepted: the revised simplex then
// reported "optimal" with a NaN objective while the dense oracle reported
// a numerical failure.  Every edit path rejects it now, and leaves the
// model as it was.
TEST(Model, RejectsInfiniteCostsAndRhs) {
  Model m;
  EXPECT_THROW(m.add_variable(0, 1, kInf), std::invalid_argument);
  EXPECT_THROW(m.add_variable(0, 1, -kInf), std::invalid_argument);
  const VarId x = m.add_variable(0, 1, 1.0);
  EXPECT_THROW(m.set_cost(x, kInf), std::invalid_argument);
  EXPECT_THROW(m.set_cost(x, -kInf), std::invalid_argument);
  EXPECT_DOUBLE_EQ(m.cost(x), 1.0);

  EXPECT_THROW(m.add_row(Sense::kLessEqual, kInf), std::invalid_argument);
  EXPECT_THROW(m.add_row(Sense::kGreaterEqual, -kInf), std::invalid_argument);
  const RowId r = m.add_row(Sense::kLessEqual, 2.0);
  EXPECT_THROW(m.set_rhs(r, kInf), std::invalid_argument);
  EXPECT_THROW(m.set_rhs(r, -kInf), std::invalid_argument);
  EXPECT_DOUBLE_EQ(m.rhs(r), 2.0);
  EXPECT_EQ(m.num_variables(), 1);
  EXPECT_EQ(m.num_rows(), 1);
}

// Infinite bounds stay legal outward (-inf below, +inf above); a lower
// bound of +inf or an upper bound of -inf leaves nothing to rest at.
TEST(Model, RejectsInwardInfiniteBounds) {
  Model m;
  EXPECT_THROW(m.add_variable(kInf, kInf, 0), std::invalid_argument);
  EXPECT_THROW(m.add_variable(-kInf, -kInf, 0), std::invalid_argument);
  const VarId v = m.add_variable(-kInf, kInf, 0);
  EXPECT_THROW(m.set_bounds(v, kInf, kInf), std::invalid_argument);
  EXPECT_THROW(m.set_bounds(v, -kInf, -kInf), std::invalid_argument);
  EXPECT_EQ(m.lower(v), -kInf);
  EXPECT_EQ(m.upper(v), kInf);
  m.set_bounds(v, -kInf, 3.0);
  EXPECT_DOUBLE_EQ(m.upper(v), 3.0);
  m.set_bounds(v, 1.0, kInf);
  EXPECT_DOUBLE_EQ(m.lower(v), 1.0);
}

}  // namespace
}  // namespace nwlb::lp
