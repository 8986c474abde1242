// MPS reader/writer: hand-written fixtures plus randomized round-trips.
#include "lp/mps.h"

#include <gtest/gtest.h>

#include "lp/revised_simplex.h"
#include "util/rng.h"

namespace nwlb::lp {
namespace {

TEST(Mps, ParsesHandWrittenFile) {
  const std::string text = R"(* A classic toy LP
NAME TOY
ROWS
 N OBJ
 L cap
 G floor
COLUMNS
    x OBJ -1
    x cap 1
    x floor 1
    y OBJ -2
    y cap 1
RHS
    RHS1 cap 4
    RHS1 floor 1
BOUNDS
 UP BND1 x 2
 UP BND1 y 3
ENDATA
)";
  const Model m = read_mps_string(text);
  EXPECT_EQ(m.num_variables(), 2);
  EXPECT_EQ(m.num_rows(), 2);
  const Solution s = solve_revised(m);
  ASSERT_EQ(s.status, Status::kOptimal);
  // min -x - 2y s.t. x+y<=4, x>=1, x<=2, y<=3 -> x=1,y=3 -> -7.
  EXPECT_NEAR(s.objective, -7.0, 1e-7);
}

TEST(Mps, BoundTypes) {
  const std::string text = R"(NAME B
ROWS
 N OBJ
 L r
COLUMNS
    a OBJ 1
    a r 1
    b OBJ 1
    b r 1
    c OBJ 1
    c r 1
    d OBJ 1
    d r 1
RHS
    RHS1 r 100
BOUNDS
 FX BND1 a 5
 FR BND1 b
 MI BND1 c
 BV BND1 d
ENDATA
)";
  const Model m = read_mps_string(text);
  EXPECT_DOUBLE_EQ(m.lower(VarId{0}), 5.0);
  EXPECT_DOUBLE_EQ(m.upper(VarId{0}), 5.0);
  EXPECT_EQ(m.lower(VarId{1}), -kInf);
  EXPECT_EQ(m.upper(VarId{1}), kInf);
  EXPECT_EQ(m.lower(VarId{2}), -kInf);
  EXPECT_DOUBLE_EQ(m.lower(VarId{3}), 0.0);
  EXPECT_DOUBLE_EQ(m.upper(VarId{3}), 1.0);
}

/// Reading `text` must fail with a message that names `where`.
void expect_rejected_at(const std::string& text, const std::string& where) {
  try {
    read_mps_string(text);
    ADD_FAILURE() << "accepted:\n" << text;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(where), std::string::npos) << e.what();
  }
}

TEST(Mps, RejectsMalformedInput) {
  EXPECT_THROW(read_mps_string("NAME X\nROWS\n Z bad\nENDATA\n"), std::invalid_argument);
  EXPECT_THROW(read_mps_string("NAME X\nROWS\n N OBJ\nCOLUMNS\n  x nosuchrow 1\nENDATA\n"),
               std::invalid_argument);
  EXPECT_THROW(read_mps_string("NAME X\n"), std::invalid_argument);  // No ENDATA.
  EXPECT_THROW(read_mps_string("junk before sections\nENDATA\n"), std::invalid_argument);
  EXPECT_THROW(read_mps_string("NAME X\nROWS\n N OBJ\nCOLUMNS\n  x OBJ abc\nENDATA\n"),
               std::invalid_argument);
  // A repeated row name would be a second row no COLUMNS or RHS line can
  // reach: `G c1` would lose its constraint, and `G obj` would read as
  // 0 >= 3.  The objective row's name counts as taken, and so does the name
  // of a dropped second N row, whose entries `L free` would otherwise take.
  expect_rejected_at("NAME X\nROWS\n N obj\n L c1\n G c1\nCOLUMNS\n    x obj 1 c1 1\n"
                     "RHS\n    RHS1 c1 2\nENDATA\n",
                     "MPS line 5: duplicate row name 'c1'");
  expect_rejected_at("NAME X\nROWS\n N obj\n G obj\nCOLUMNS\n    x obj 1\n"
                     "RHS\n    RHS1 obj 3\nENDATA\n",
                     "MPS line 4: duplicate row name 'obj'");
  expect_rejected_at("NAME X\nROWS\n N obj\n N free\n L free\nCOLUMNS\n    x obj 1 free 1\n"
                     "RHS\n    RHS1 free 2\nENDATA\n",
                     "MPS line 5: duplicate row name 'free'");
}

// `inf` parses as a number, so these used to reach the model: the revised
// simplex solved the first file to "optimal" with a NaN objective.  Each
// is now rejected at the MPS line that carries it.
TEST(Mps, RejectsInfiniteValuesNamingTheLine) {
  const std::string head = "NAME X\nROWS\n N obj\n L c1\nCOLUMNS\n";
  expect_rejected_at(head + "    x obj inf c1 1\nRHS\n    RHS1 c1 1\nENDATA\n", "MPS line 6");
  expect_rejected_at(head + "    x obj 1 c1 1\nRHS\n    RHS1 c1 inf\nENDATA\n", "MPS line 8");
  expect_rejected_at(head + "    x obj 1 c1 -inf\nENDATA\n", "MPS line 6");
  expect_rejected_at(head + "    x obj 1 c1 1\nRANGES\n    RNG c1 inf\nENDATA\n", "MPS line 8");
  expect_rejected_at(head + "    x obj 1 c1 1\nBOUNDS\n LO BND1 x inf\nENDATA\n", "MPS line 8");
  expect_rejected_at(head + "    x obj 1 c1 1\nBOUNDS\n UP BND1 x -inf\nENDATA\n",
                     "MPS line 8");
  // Outward infinite bounds are still fine.
  const Model m = read_mps_string(head +
                                  "    x obj 1 c1 1\nBOUNDS\n LO BND1 x -inf\n"
                                  " UP BND1 x inf\nENDATA\n");
  EXPECT_EQ(m.lower(VarId{0}), -kInf);
  EXPECT_EQ(m.upper(VarId{0}), kInf);
}

TEST(Mps, WriteContainsAllSections) {
  Model m;
  const VarId x = m.add_variable(0, 5, 2, "alpha");
  const RowId r = m.add_row(Sense::kLessEqual, 7, "capacity");
  m.add_coefficient(r, x, 3);
  const std::string text = to_mps(m, "TEST");
  for (const char* needle :
       {"NAME TEST", "ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA", "alpha", "capacity"})
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
}

class MpsRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MpsRoundTrip, PreservesOptima) {
  // Random bounded LP -> MPS -> parse -> same optimum.
  nwlb::util::Rng rng(GetParam() * 131);
  Model m;
  const int n = 3 + static_cast<int>(rng.below(10));
  const int k = 1 + static_cast<int>(rng.below(6));
  std::vector<VarId> vars;
  for (int j = 0; j < n; ++j) {
    const double lo = rng.uniform(-2, 0);
    vars.push_back(m.add_variable(lo, lo + rng.uniform(0.5, 3), rng.uniform(-2, 2)));
  }
  for (int i = 0; i < k; ++i) {
    const RowId r = m.add_row(rng.bernoulli(0.5) ? Sense::kLessEqual : Sense::kGreaterEqual,
                              rng.uniform(-2, 4));
    for (int j = 0; j < n; ++j)
      if (rng.bernoulli(0.5)) m.add_coefficient(r, vars[static_cast<std::size_t>(j)], rng.uniform(-2, 2));
  }
  const Model parsed = read_mps_string(to_mps(m));
  const Solution a = solve_revised(m);
  const Solution b = solve_revised(parsed);
  ASSERT_EQ(a.status, b.status);
  if (a.status == Status::kOptimal) {
    EXPECT_NEAR(a.objective, b.objective, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, MpsRoundTrip, ::testing::Range<std::uint64_t>(1, 31));

}  // namespace
}  // namespace nwlb::lp
