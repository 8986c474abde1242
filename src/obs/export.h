// Metric exposition: Prometheus text format and JSON, plus the grammar
// validators CI uses to reject a malformed artifact before it ships.
//
// Both renderers consume the plain Snapshot / TraceEvent structs (never
// live metrics), so exposition is a pure function of the snapshot and two
// snapshots with equal values render byte-identically — the property the
// serial-vs-sharded replay metrics test pins down.
#pragma once

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace nwlb::obs {

/// Prometheus text exposition (version 0.0.4): one `# HELP` / `# TYPE`
/// header per metric name, `name{label="value"} value` sample lines,
/// histograms expanded to `_bucket{le=...}` / `_sum` / `_count`.
std::string prometheus_text(const Snapshot& snapshot);

/// JSON exposition: {"metrics":[...],"trace":[...]}.  Counter values emit
/// as integers, gauges/sums as doubles (non-finite values as null — JSON
/// has no Inf/NaN literals), strings through util::json_escape.
std::string to_json(const Snapshot& snapshot,
                    const std::vector<TraceEvent>& trace = {});

/// Convenience: snapshot + trace of `registry`, rendered to JSON.
std::string to_json(const Registry& registry);

/// Grammar check over a Prometheus text exposition.  Returns one
/// "line N: message" per violation; empty means well-formed.  Accepts
/// comments, blank lines, HELP/TYPE headers, and sample lines with
/// optional labels and an optional integer timestamp.
std::vector<std::string> validate_prometheus_text(const std::string& text);

/// Strict JSON syntax check (objects, arrays, strings with escapes,
/// numbers, true/false/null; trailing garbage and a key repeated within one
/// object rejected).  Returns error messages; empty means the document
/// parses.
std::vector<std::string> validate_json(const std::string& text);

/// Writes `<base>.prom` (Prometheus text) and `<base>.json` (JSON with the
/// trace) from `registry`.  Returns the error message on failure, empty on
/// success — tools decide whether that is fatal.
std::string write_exposition_files(const Registry& registry, const std::string& base);

}  // namespace nwlb::obs
