// In-memory span recorder for the traced nwlb_e2e run.
//
// Spans are recorded from the benchmark's own code around calls into each
// layer (replay, estimate, epoch, rollout, isolated kernels); nothing inside
// the library is instrumented.  A span has a name, start, end, the span that
// was open when it began (its parent), and the step it belongs to.  The
// recorder keeps everything in memory and writes Chrome trace-event JSON at
// the end of the run, so recording costs two clock reads and one vector push.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace nwlb::bench::e2e {

struct Span {
  const char* name = "";  // Static string: span names are literals.
  std::int64_t start_ns = 0;  // Since the recorder was created.
  std::int64_t end_ns = 0;
  int parent = -1;  // Index into spans(); -1 = root.
  int step = -1;    // Timed step the span belongs to; -1 = outside the loop.

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// Per-name aggregate: count, total and self time, and the median duration.
struct SpanSummary {
  std::string name;
  int count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
  double p50_ms = 0.0;
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span as a child of the innermost open span; returns its index.
  int begin(const char* name, int step);
  /// Closes the innermost open span (which must be `id`); returns its ms.
  double end(int id);

  /// Durations of every span with this name, in recording order.
  std::vector<double> durations_ms(const char* name) const;

  /// One row per span name, in first-seen order.  A span's self time is its
  /// duration minus the part its direct children cover.
  std::vector<SpanSummary> summarize() const;

  /// Writes {"traceEvents": [...]} with one complete ("X") event per span;
  /// open it in chrome://tracing or ui.perfetto.dev.  False on I/O error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;  // Stack of open span indices.
};

}  // namespace nwlb::bench::e2e
