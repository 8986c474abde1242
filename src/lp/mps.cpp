#include "lp/mps.h"

#include <cmath>
#include <iomanip>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace nwlb::lp {
namespace {

std::string var_label(const Model& model, int j) {
  const std::string& given = model.var_name(VarId{j});
  return given.empty() ? std::string("x").append(std::to_string(j)) : given;
}

std::string row_label(const Model& model, int r) {
  const std::string& given = model.row_name(RowId{r});
  return given.empty() ? std::string("r").append(std::to_string(r)) : given;
}

char sense_char(Sense s) {
  switch (s) {
    case Sense::kLessEqual: return 'L';
    case Sense::kGreaterEqual: return 'G';
    case Sense::kEqual: return 'E';
  }
  return '?';
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string token;
  while (is >> token) out.push_back(token);
  return out;
}

double parse_number(const std::string& token, int line_number) {
  std::size_t used = 0;
  double value = 0.0;
  try {
    value = std::stod(token, &used);
  } catch (const std::exception&) {
    throw std::invalid_argument("MPS line " + std::to_string(line_number) +
                                ": bad number '" + token + "'");
  }
  if (used != token.size())
    throw std::invalid_argument("MPS line " + std::to_string(line_number) +
                                ": trailing junk in number '" + token + "'");
  return value;
}

/// Runs one edit of the model being read, rethrowing the
/// std::invalid_argument the model may raise (a non-finite cost, rhs or
/// coefficient, malformed bounds) with the MPS line that asked for it.
template <typename Edit>
void at_line(int line_number, const Edit& edit) {
  try {
    edit();
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("MPS line " + std::to_string(line_number) + ": " + e.what());
  }
}

}  // namespace

void write_mps(const Model& model, std::ostream& out, const std::string& name) {
  Model normalized = model;
  normalized.normalize();

  out << "NAME " << name << "\n";
  out << "ROWS\n";
  out << " N OBJ\n";
  for (int r = 0; r < normalized.num_rows(); ++r)
    out << " " << sense_char(normalized.sense(RowId{r})) << " "
        << row_label(normalized, r) << "\n";

  // Column-wise view of the row-stored model.
  std::vector<std::vector<std::pair<int, double>>> columns(
      static_cast<std::size_t>(normalized.num_variables()));
  for (int r = 0; r < normalized.num_rows(); ++r)
    for (const Entry& e : normalized.row_entries(RowId{r}))
      columns[static_cast<std::size_t>(e.var)].emplace_back(r, e.coef);

  out << "COLUMNS\n";
  out << std::setprecision(17);
  for (int j = 0; j < normalized.num_variables(); ++j) {
    const std::string label = var_label(normalized, j);
    if (normalized.cost(VarId{j}) != 0.0)
      out << "    " << label << " OBJ " << normalized.cost(VarId{j}) << "\n";
    for (const auto& [r, coef] : columns[static_cast<std::size_t>(j)])
      out << "    " << label << " " << row_label(normalized, r) << " " << coef << "\n";
  }

  out << "RHS\n";
  for (int r = 0; r < normalized.num_rows(); ++r)
    if (normalized.rhs(RowId{r}) != 0.0)
      out << "    RHS1 " << row_label(normalized, r) << " " << normalized.rhs(RowId{r})
          << "\n";

  out << "BOUNDS\n";
  for (int j = 0; j < normalized.num_variables(); ++j) {
    const double lo = normalized.lower(VarId{j});
    const double hi = normalized.upper(VarId{j});
    const std::string label = var_label(normalized, j);
    if (lo == 0.0 && !std::isfinite(hi)) continue;  // MPS default.
    if (lo == hi) {
      out << " FX BND1 " << label << " " << lo << "\n";
      continue;
    }
    if (!std::isfinite(lo) && !std::isfinite(hi)) {
      out << " FR BND1 " << label << "\n";
      continue;
    }
    if (std::isfinite(lo) && lo != 0.0)
      out << " LO BND1 " << label << " " << lo << "\n";
    else if (!std::isfinite(lo))
      out << " MI BND1 " << label << "\n";
    if (std::isfinite(hi)) out << " UP BND1 " << label << " " << hi << "\n";
  }
  out << "ENDATA\n";
}

std::string to_mps(const Model& model, const std::string& name) {
  std::ostringstream os;
  write_mps(model, os, name);
  return os.str();
}

Model read_mps(std::istream& in) {
  enum class Section { kNone, kRows, kColumns, kRhs, kRanges, kBounds, kDone };
  Section section = Section::kNone;

  Model model;
  std::string objective_row;
  std::set<std::string> free_rows;  // N rows after the first; not read into the model.
  std::map<std::string, RowId> rows;
  std::map<std::string, VarId> vars;
  // Bound edits are applied at the end because MPS allows several BOUNDS
  // lines per variable; stage them with the line of the last edit.
  struct StagedBounds {
    double lo = 0.0;
    double hi = kInf;
    int line = 0;
  };
  std::map<int, StagedBounds> bounds;

  auto variable = [&](const std::string& name) {
    const auto it = vars.find(name);
    if (it != vars.end()) return it->second;
    const VarId v = model.add_variable(0.0, kInf, 0.0, name);
    vars.emplace(name, v);
    bounds[v.value] = StagedBounds{};
    return v;
  };

  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '*') continue;
    const auto tokens = tokenize(line);
    if (tokens.empty()) continue;

    // Section headers start in column 1 in fixed MPS; in free form we just
    // match the keyword.
    const std::string& head = tokens[0];
    if (head == "NAME") continue;
    if (head == "ROWS") { section = Section::kRows; continue; }
    if (head == "COLUMNS") { section = Section::kColumns; continue; }
    if (head == "RHS") { section = Section::kRhs; continue; }
    if (head == "RANGES") { section = Section::kRanges; continue; }
    if (head == "BOUNDS") { section = Section::kBounds; continue; }
    if (head == "ENDATA") { section = Section::kDone; break; }

    switch (section) {
      case Section::kRows: {
        if (tokens.size() != 2)
          throw std::invalid_argument("MPS line " + std::to_string(line_number) +
                                      ": ROWS entries are '<type> <name>'");
        const std::string& type = tokens[0];
        const std::string& name = tokens[1];
        // A second row of the same name could never be reached: COLUMNS,
        // RHS and RANGES lines address rows by name.
        if (name == objective_row || free_rows.contains(name) || rows.contains(name))
          throw std::invalid_argument("MPS line " + std::to_string(line_number) +
                                      ": duplicate row name '" + name + "'");
        if (type == "N") {
          if (objective_row.empty())
            objective_row = name;  // First N row wins.
          else
            free_rows.insert(name);
        } else if (type == "L") {
          rows.emplace(name, model.add_row(Sense::kLessEqual, 0.0, name));
        } else if (type == "G") {
          rows.emplace(name, model.add_row(Sense::kGreaterEqual, 0.0, name));
        } else if (type == "E") {
          rows.emplace(name, model.add_row(Sense::kEqual, 0.0, name));
        } else {
          throw std::invalid_argument("MPS line " + std::to_string(line_number) +
                                      ": unknown row type '" + type + "'");
        }
        break;
      }
      case Section::kColumns: {
        // col row value [row value]
        if (tokens.size() != 3 && tokens.size() != 5)
          throw std::invalid_argument("MPS line " + std::to_string(line_number) +
                                      ": COLUMNS entries need 3 or 5 fields");
        // Skip integrality markers.
        if (tokens.size() == 3 && tokens[1] == "'MARKER'") break;
        const VarId v = variable(tokens[0]);
        for (std::size_t k = 1; k + 1 < tokens.size(); k += 2) {
          const std::string& row_name = tokens[k];
          const double value = parse_number(tokens[k + 1], line_number);
          if (row_name == objective_row) {
            // Accumulate (duplicate objective entries are legal).
            at_line(line_number, [&] { model.set_cost(v, model.cost(v) + value); });
          } else {
            const auto it = rows.find(row_name);
            if (it == rows.end())
              throw std::invalid_argument("MPS line " + std::to_string(line_number) +
                                          ": unknown row '" + row_name + "'");
            at_line(line_number, [&] { model.add_coefficient(it->second, v, value); });
          }
        }
        break;
      }
      case Section::kRhs: {
        if (tokens.size() != 3 && tokens.size() != 5)
          throw std::invalid_argument("MPS line " + std::to_string(line_number) +
                                      ": RHS entries need 3 or 5 fields");
        for (std::size_t k = 1; k + 1 < tokens.size(); k += 2) {
          const auto it = rows.find(tokens[k]);
          if (it == rows.end()) {
            if (tokens[k] == objective_row) continue;  // Objective offset: ignored.
            throw std::invalid_argument("MPS line " + std::to_string(line_number) +
                                        ": unknown RHS row '" + tokens[k] + "'");
          }
          const double rhs = parse_number(tokens[k + 1], line_number);
          at_line(line_number, [&] { model.set_rhs(it->second, rhs); });
        }
        break;
      }
      case Section::kRanges: {
        if (tokens.size() != 3 && tokens.size() != 5)
          throw std::invalid_argument("MPS line " + std::to_string(line_number) +
                                      ": RANGES entries need 3 or 5 fields");
        for (std::size_t k = 1; k + 1 < tokens.size(); k += 2) {
          const auto it = rows.find(tokens[k]);
          if (it == rows.end())
            throw std::invalid_argument("MPS line " + std::to_string(line_number) +
                                        ": unknown RANGES row '" + tokens[k] + "'");
          const double range = parse_number(tokens[k + 1], line_number);
          // A range turns the row into an interval; represent it by adding
          // the mirrored row, preserving solver semantics.
          const RowId row = it->second;
          const double rhs = model.rhs(row);
          RowId twin{};
          at_line(line_number, [&] {
            switch (model.sense(row)) {
              case Sense::kLessEqual:
                twin = model.add_row(Sense::kGreaterEqual, rhs - std::abs(range));
                break;
              case Sense::kGreaterEqual:
                twin = model.add_row(Sense::kLessEqual, rhs + std::abs(range));
                break;
              case Sense::kEqual:
                twin = model.add_row(range >= 0 ? Sense::kLessEqual : Sense::kGreaterEqual,
                                     rhs + range);
                break;
            }
          });
          for (const Entry& e : model.row_entries(row))
            model.add_coefficient(twin, VarId{e.var}, e.coef);
        }
        break;
      }
      case Section::kBounds: {
        if (tokens.size() < 3)
          throw std::invalid_argument("MPS line " + std::to_string(line_number) +
                                      ": BOUNDS entries need >= 3 fields");
        const std::string& type = tokens[0];
        const VarId v = variable(tokens[2]);
        auto& [lo, hi, bound_line] = bounds[v.value];
        bound_line = line_number;
        const bool needs_value = type == "LO" || type == "UP" || type == "FX";
        if (needs_value && tokens.size() != 4)
          throw std::invalid_argument("MPS line " + std::to_string(line_number) +
                                      ": bound type " + type + " needs a value");
        const double value = needs_value ? parse_number(tokens[3], line_number) : 0.0;
        if (type == "LO") lo = value;
        else if (type == "UP") hi = value;
        else if (type == "FX") lo = hi = value;
        else if (type == "FR") { lo = -kInf; hi = kInf; }
        else if (type == "MI") lo = -kInf;
        else if (type == "PL") hi = kInf;
        else if (type == "BV") { lo = 0.0; hi = 1.0; }
        else
          throw std::invalid_argument("MPS line " + std::to_string(line_number) +
                                      ": unknown bound type '" + type + "'");
        break;
      }
      case Section::kNone:
      case Section::kDone:
        throw std::invalid_argument("MPS line " + std::to_string(line_number) +
                                    ": data outside any section");
    }
  }
  if (section != Section::kDone)
    throw std::invalid_argument("MPS: missing ENDATA");

  for (const auto& [var, b] : bounds)
    at_line(b.line, [&] { model.set_bounds(VarId{var}, b.lo, b.hi); });
  model.normalize();
  return model;
}

Model read_mps_string(const std::string& text) {
  std::istringstream is(text);
  return read_mps(is);
}

}  // namespace nwlb::lp
