#include "span_trace.h"

#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/stats.h"
#include "util/table.h"

namespace nwlb::bench::e2e {

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanRecorder::begin(const char* name, int step) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.step = step;
  const int id = static_cast<int>(spans_.size());
  open_.push_back(id);
  span.start_ns = now_ns();  // Last, so bookkeeping is outside the span.
  spans_.push_back(span);
  return id;
}

double SpanRecorder::end(int id) {
  const std::int64_t now = now_ns();
  Span& span = spans_.at(static_cast<std::size_t>(id));
  span.end_ns = now;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  return span.ms();
}

std::vector<double> SpanRecorder::durations_ms(const char* name) const {
  std::vector<double> out;
  for (const Span& span : spans_)
    if (std::strcmp(span.name, name) == 0) out.push_back(span.ms());
  return out;
}

std::vector<SpanSummary> SpanRecorder::summarize() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].ms();
  for (const Span& span : spans_)
    if (span.parent >= 0) self[static_cast<std::size_t>(span.parent)] -= span.ms();
  std::vector<SpanSummary> rows;
  std::vector<std::vector<double>> durations;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    std::size_t row = 0;
    while (row < rows.size() && rows[row].name != spans_[i].name) ++row;
    if (row == rows.size()) {
      rows.push_back({spans_[i].name});
      durations.emplace_back();
    }
    ++rows[row].count;
    rows[row].total_ms += spans_[i].ms();
    rows[row].self_ms += self[i];
    durations[row].push_back(spans_[i].ms());
  }
  for (std::size_t row = 0; row < rows.size(); ++row)
    rows[row].p50_ms = util::quantile_or(durations[row], 0.5, 0.0);
  return rows;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[128];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    // Trace-event timestamps are microseconds; keep ns resolution.
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(span.start_ns) * 1e-3,
                  static_cast<double>(span.end_ns - span.start_ns) * 1e-3);
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\""
        << util::json_escape(span.name) << "\",\"cat\":\"e2e\",\"ph\":\"X\","
        << buf << ",\"pid\":1,\"tid\":1,\"args\":{\"id\":" << i
        << ",\"parent\":" << span.parent << ",\"step\":" << span.step << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace nwlb::bench::e2e
