// obs::Registry / Counter / Gauge / Histogram / TraceRing behavior, plus
// the concurrency test CI runs under ThreadSanitizer: writer threads hammer
// shared metrics while the main thread takes snapshots.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace nwlb::obs {
namespace {

TEST(ObsCounter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsGauge, SetAndAdd) {
  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.add(-0.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.0);
}

TEST(ObsHistogram, BucketsAreInclusiveUpperBoundsPlusInf) {
  Histogram h({1.0, 10.0});
  h.observe(0.5);   // <= 1.0
  h.observe(1.0);   // <= 1.0 (inclusive)
  h.observe(5.0);   // <= 10.0
  h.observe(100.0); // +Inf
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 106.5);
  const std::vector<std::uint64_t> want = {2, 1, 1};
  EXPECT_EQ(h.bucket_counts(), want);
}

TEST(ObsRegistry, SameNameAndLabelsReturnsSameObject) {
  Registry reg;
  Counter& a = reg.counter("nwlb_test_total", {{"k", "v"}});
  Counter& b = reg.counter("nwlb_test_total", {{"k", "v"}});
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1u);
  // Different label value -> distinct series.
  Counter& c = reg.counter("nwlb_test_total", {{"k", "w"}});
  EXPECT_NE(&a, &c);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(ObsRegistry, SnapshotIsDeterministicallyOrdered) {
  Registry reg;
  reg.counter("nwlb_b_total").inc(2);
  reg.gauge("nwlb_a_level").set(1.0);
  reg.counter("nwlb_b_total", {{"x", "2"}}).inc();
  reg.counter("nwlb_b_total", {{"x", "1"}}).inc();
  const Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.samples.size(), 4u);
  EXPECT_EQ(snap.samples[0].name, "nwlb_a_level");
  EXPECT_EQ(snap.samples[1].name, "nwlb_b_total");
  EXPECT_TRUE(snap.samples[1].labels.empty());
  ASSERT_EQ(snap.samples[2].labels.size(), 1u);
  EXPECT_EQ(snap.samples[2].labels[0].second, "1");
  EXPECT_EQ(snap.samples[3].labels[0].second, "2");
}

TEST(ObsRegistry, RejectsBadNamesLabelsAndBounds) {
  Registry reg;
  EXPECT_THROW(reg.counter("1bad"), util::CheckError);
  EXPECT_THROW(reg.counter("nwlb_ok_total", {{"0bad", "v"}}), util::CheckError);
  EXPECT_THROW(reg.histogram("nwlb_h", {}), util::CheckError);
  EXPECT_THROW(reg.histogram("nwlb_h", {2.0, 1.0}), util::CheckError);
  // Re-registering under a different kind is a contract violation.
  reg.counter("nwlb_kind_total");
  EXPECT_THROW(reg.gauge("nwlb_kind_total"), util::CheckError);
}

TEST(ObsTraceRing, WrapsKeepingTheNewestEvents) {
  TraceRing ring(3);
  for (int i = 0; i < 5; ++i)
    ring.push("scope", "event", static_cast<double>(i));
  EXPECT_EQ(ring.total_pushed(), 5u);
  const std::vector<TraceEvent> events = ring.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_DOUBLE_EQ(events.front().value, 2.0);
  EXPECT_DOUBLE_EQ(events.back().value, 4.0);
  EXPECT_EQ(events.back().sequence, 4u);  // Monotonic, oldest-first order.
  EXPECT_LT(events.front().sequence, events.back().sequence);
}

// Run in CI's TSan job (name matches the Obs regex): writers share live
// Counters/Gauges/Histograms while the main thread snapshots — any lock or
// ordering bug in the wait-free write paths shows up as a race.
TEST(ObsRegistry, ConcurrentWritersAndSnapshotReader) {
  Registry reg;
  constexpr int kWorkers = 4;
  constexpr int kIncrements = 5000;
  Counter& shared = reg.counter("nwlb_stress_total");
  Histogram& hist = reg.histogram("nwlb_stress_seconds", {0.25, 0.5, 0.75});
  std::atomic<int> done{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWorkers; ++w) {
    writers.emplace_back([&reg, &shared, &hist, &done, w] {
      Counter& mine =
          reg.counter("nwlb_stress_worker_total", {{"worker", std::to_string(w)}});
      for (int i = 0; i < kIncrements; ++i) {
        shared.inc();
        mine.inc();
        hist.observe(static_cast<double>(i % 4) * 0.25);
        reg.gauge("nwlb_stress_level").set(static_cast<double>(i));
      }
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  // Snapshot concurrently with the writers: values are per-sample atomic.
  while (done.load(std::memory_order_relaxed) < kWorkers) {
    const Snapshot snap = reg.snapshot();
    EXPECT_LE(snap.samples.size(), 2u + 1u + kWorkers);
  }
  for (std::thread& writer : writers) writer.join();
  EXPECT_EQ(shared.value(), static_cast<std::uint64_t>(kWorkers) * kIncrements);
  EXPECT_EQ(hist.count(), static_cast<std::uint64_t>(kWorkers) * kIncrements);
  for (int w = 0; w < kWorkers; ++w)
    EXPECT_EQ(
        reg.counter("nwlb_stress_worker_total", {{"worker", std::to_string(w)}})
            .value(),
        static_cast<std::uint64_t>(kIncrements));
}

}  // namespace
}  // namespace nwlb::obs
