// MPS (Mathematical Programming System) reader/writer.
//
// The industry-standard fixed/free-form LP exchange format: writing lets a
// user dump any nwlb formulation and cross-check it against an external
// solver (CPLEX, HiGHS, glpsol); reading lets the nwlb solver run on
// instances produced elsewhere.  Free-form MPS is supported: sections
// NAME, ROWS, COLUMNS, RHS, RANGES, BOUNDS, ENDATA; bound types
// LO/UP/FX/FR/MI/PL/BV are accepted (BV as [0,1] — this is an LP solver).
#pragma once

#include <iosfwd>
#include <string>

#include "lp/model.h"

namespace nwlb::lp {

/// Serializes the model as free-form MPS.  Unnamed variables/rows get
/// synthetic names (x<i> / r<i>).  The objective row is named OBJ.
void write_mps(const Model& model, std::ostream& out, const std::string& name = "NWLB");

std::string to_mps(const Model& model, const std::string& name = "NWLB");

/// Parses free-form MPS into a Model (minimization).  Throws
/// std::invalid_argument with a line-numbered message on malformed input,
/// including any value lp::Model rejects (a non-finite cost, rhs or
/// coefficient, a lower bound of +inf or an upper bound of -inf).
Model read_mps(std::istream& in);

Model read_mps_string(const std::string& text);

}  // namespace nwlb::lp
