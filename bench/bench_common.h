// Shared plumbing for the experiment harnesses: topology selection, env
// knobs, and uniform output.  Every harness prints the rows/series of one
// table or figure of the paper; see DESIGN.md §4 for the index.
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "topo/topology.h"
#include "util/env.h"
#include "util/table.h"

namespace nwlb::bench {

/// Topologies for this run: all eight by default, the four smallest under
/// NWLB_FAST=1, or a single one named by NWLB_TOPO.
inline std::vector<topo::Topology> selected_topologies() {
  if (const char* name = std::getenv("NWLB_TOPO"); name != nullptr && *name != '\0') {
    std::vector<topo::Topology> out;
    out.push_back(topo::topology_by_name(name));
    return out;
  }
  if (util::env_flag("NWLB_FAST")) return topo::small_topologies();
  return topo::all_topologies();
}

inline void print_header(const std::string& title, const std::string& setup) {
  std::cout << "=== " << title << " ===\n";
  if (!setup.empty()) std::cout << setup << "\n";
  std::cout << "\n";
}

inline void print_table(const util::Table& table) {
  table.print(std::cout);
  if (util::env_flag("NWLB_CSV")) std::cout << "CSV:\n" << table.to_csv() << "\n";
}

/// Machine-readable benchmark output.  A harness registers scalars and
/// tables as it runs; write_if_requested() serializes everything to the
/// path in NWLB_BENCH_JSON (no-op when the knob is unset), so CI can
/// archive BENCH_<name>.json artifacts next to the human-readable stdout.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name) : bench_(std::move(bench_name)) {}

  JsonReport& scalar(const std::string& key, double value) {
    entries_.emplace_back(key, util::format_double(value, 6));
    return *this;
  }
  JsonReport& scalar(const std::string& key, long long value) {
    entries_.emplace_back(key, std::to_string(value));
    return *this;
  }
  JsonReport& scalar(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    quoted += util::json_escape(value);
    quoted += '"';
    entries_.emplace_back(key, std::move(quoted));
    return *this;
  }
  JsonReport& table(const std::string& key, const util::Table& t) {
    entries_.emplace_back(key, t.to_json());
    return *this;
  }
  /// Embeds a metrics registry's full exposition (metrics + trace) under
  /// the "metrics" key — the bench-side view of `nwlbctl --metrics-out`.
  JsonReport& metrics(const obs::Registry& registry) {
    entries_.emplace_back("metrics", obs::to_json(registry));
    return *this;
  }

  std::string to_string() const {
    std::string out = "{\"bench\":\"" + util::json_escape(bench_) + "\"";
    for (const auto& [key, json] : entries_)
      out += ",\"" + util::json_escape(key) + "\":" + json;
    out += "}\n";
    return out;
  }

  /// Writes the report to $NWLB_BENCH_JSON when set.  Returns true when a
  /// file was written.
  bool write_if_requested() const {
    const char* path = std::getenv("NWLB_BENCH_JSON");
    if (path == nullptr || *path == '\0') return false;
    std::ofstream out(path);
    if (!out) {
      std::cerr << "NWLB_BENCH_JSON: cannot open " << path << " for writing\n";
      return false;
    }
    out << to_string();
    std::cout << "JSON report written to " << path << "\n";
    return true;
  }

 private:
  std::string bench_;
  std::vector<std::pair<std::string, std::string>> entries_;  // key -> raw JSON.
};

}  // namespace nwlb::bench
