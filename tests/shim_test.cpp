// Hash, range-table, shim-decision, and aggregation-transport tests.
#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "shim/aggregation.h"
#include "shim/config.h"
#include "shim/hash.h"
#include "shim/shim.h"
#include "util/check.h"
#include "util/rng.h"

namespace nwlb::shim {
namespace {

TEST(Lookup3, PublishedReferenceVectors) {
  // The vectors from Bob Jenkins' lookup3.c self-test driver.
  const char* q = "Four score and seven years ago";
  EXPECT_EQ(lookup3(q, 30, 0), 0x17770551u);
  EXPECT_EQ(lookup3(q, 30, 1), 0xcd628161u);
  EXPECT_EQ(lookup3(nullptr, 0, 0), 0xdeadbeefu);
}

TEST(Lookup3, KnownProperties) {
  // Deterministic, seed-sensitive, length-sensitive.
  const std::string data = "four score and seven years ago";
  EXPECT_EQ(lookup3(data.data(), data.size(), 0), lookup3(data.data(), data.size(), 0));
  EXPECT_NE(lookup3(data.data(), data.size(), 0), lookup3(data.data(), data.size(), 1));
  EXPECT_NE(lookup3(data.data(), 10, 0), lookup3(data.data(), 11, 0));
  EXPECT_EQ(lookup3(nullptr, 0, 7), lookup3(nullptr, 0, 7));
}

TEST(Lookup3, AllTailLengthsDiffer) {
  // Exercise every tail-length branch (1..13+ bytes).
  const std::string data = "abcdefghijklmnopqrstuvwxyz";
  std::set<std::uint32_t> hashes;
  for (std::size_t len = 1; len <= 16; ++len)
    hashes.insert(lookup3(data.data(), len, 0));
  EXPECT_EQ(hashes.size(), 16u);
}

TEST(Lookup3, UniformityOverRanges) {
  // Map hashes of sequential tuples into 8 buckets; expect rough balance.
  std::vector<int> buckets(8, 0);
  for (std::uint32_t i = 0; i < 8000; ++i) {
    nids::FiveTuple t{0x0a000000 + i, 0x0b000000 + (i * 7), static_cast<std::uint16_t>(i),
                      80, 6};
    ++buckets[hash_tuple(t) / (1u << 29)];
  }
  for (int b : buckets) EXPECT_NEAR(b, 1000, 200);
}

TEST(HashTuple, BidirectionallyConsistent) {
  nwlb::util::Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    nids::FiveTuple t{static_cast<std::uint32_t>(rng()), static_cast<std::uint32_t>(rng()),
                      static_cast<std::uint16_t>(rng()), static_cast<std::uint16_t>(rng()),
                      6};
    EXPECT_EQ(hash_tuple(t), hash_tuple(t.reversed()));
  }
}

TEST(RangeTable, LookupAndFractions) {
  RangeTable t;
  t.add(HashRange{0, kHashSpace / 2, Action::process()});
  t.add(HashRange{kHashSpace / 2, (3 * kHashSpace) / 4, Action::replicate(5)});
  EXPECT_EQ(t.lookup(0).kind, Action::Kind::kProcess);
  EXPECT_EQ(t.lookup(static_cast<std::uint32_t>(kHashSpace / 2)).kind,
            Action::Kind::kReplicate);
  EXPECT_EQ(t.lookup(static_cast<std::uint32_t>(kHashSpace / 2)).mirror, 5);
  EXPECT_EQ(t.lookup(0xffffffffu).kind, Action::Kind::kIgnore);  // Gap.
  EXPECT_DOUBLE_EQ(t.fraction_of(Action::Kind::kProcess), 0.5);
  EXPECT_DOUBLE_EQ(t.fraction_of(Action::Kind::kReplicate), 0.25);
  EXPECT_DOUBLE_EQ(t.fraction_replicated_to(5), 0.25);
  EXPECT_DOUBLE_EQ(t.fraction_replicated_to(6), 0.0);
}

TEST(RangeTable, RejectsOverlapsAndMalformed) {
  RangeTable t;
  t.add(HashRange{10, 20, Action::process()});
  EXPECT_THROW(t.add(HashRange{15, 30, Action::process()}), std::invalid_argument);
  EXPECT_THROW(t.add(HashRange{40, 40, Action::process()}), std::invalid_argument);
  EXPECT_THROW(t.add(HashRange{50, kHashSpace + 1, Action::process()}),
               std::invalid_argument);
}

TEST(ShimConfig, PerDirectionTables) {
  ShimConfig config;
  RangeTable fwd;
  fwd.add(HashRange{0, kHashSpace, Action::process()});
  config.set_table(3, nids::Direction::kForward, fwd);
  EXPECT_EQ(config.lookup(3, nids::Direction::kForward, 123).kind,
            Action::Kind::kProcess);
  EXPECT_EQ(config.lookup(3, nids::Direction::kReverse, 123).kind,
            Action::Kind::kIgnore);
  EXPECT_EQ(config.lookup(4, nids::Direction::kForward, 123).kind,
            Action::Kind::kIgnore);
}

TEST(Shim, DecisionsAreBidirectionallyPinned) {
  ShimConfig config;
  RangeTable table;
  table.add(HashRange{0, kHashSpace / 2, Action::process()});
  table.add(HashRange{kHashSpace / 2, kHashSpace, Action::replicate(9)});
  config.set_table(0, table);  // Both directions.
  const Shim shim(1, config);
  ShimStats stats;
  nwlb::util::Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    nids::FiveTuple t{static_cast<std::uint32_t>(rng()), static_cast<std::uint32_t>(rng()),
                      static_cast<std::uint16_t>(rng()), static_cast<std::uint16_t>(rng()),
                      6};
    const Decision fwd = shim.decide(0, t, nids::Direction::kForward, stats);
    const Decision rev = shim.decide(0, t.reversed(), nids::Direction::kReverse, stats);
    EXPECT_EQ(fwd.action, rev.action);
    EXPECT_EQ(fwd.hash, rev.hash);
  }
  EXPECT_EQ(stats.packets_seen, 1000u);
}

TEST(ShimStats, ReplicationAccounting) {
  ShimStats stats;
  stats.count_replicated(3, 100);
  stats.count_replicated(3, 50);
  stats.count_replicated(7, 10);
  EXPECT_EQ(stats.total_replicated_bytes(), 160u);
  EXPECT_EQ(stats.replicated_bytes_to(3), 150u);
  EXPECT_EQ(stats.replicated_bytes_to(7), 10u);
  EXPECT_EQ(stats.replicated_bytes_to(99), 0u);  // Never-used mirror.
}

TEST(ShimStatsContract, NegativeMirrorIdIsRejectedNotResized) {
  // Regression: a negative mirror id cast to size_t becomes a ~2^64 index;
  // before the contract guard, count_replicated would try to resize the
  // byte vector to that length (unbounded allocation) instead of failing.
  ShimStats stats;
  EXPECT_THROW(stats.count_replicated(-1, 100), nwlb::util::CheckError);
  EXPECT_THROW(stats.count_replicated(std::numeric_limits<int>::min(), 1),
               nwlb::util::CheckError);
  EXPECT_TRUE(stats.replicated_bytes.empty());  // Nothing grew.
  EXPECT_EQ(stats.replicated_bytes_to(-1), 0u);  // Reads stay total.
  stats.count_replicated(0, 5);  // Boundary id is valid.
  EXPECT_EQ(stats.replicated_bytes_to(0), 5u);
}

TEST(ShimStats, DecisionCountersMergeAcrossWorkers) {
  ShimStats a, b;
  a.packets_seen = 10;
  a.decided_process = 4;
  a.decided_replicate = 5;
  a.decided_ignore = 1;
  a.count_replicated(2, 100);
  b.packets_seen = 3;
  b.decided_ignore = 3;
  b.count_replicated(5, 7);
  a.merge(b);
  EXPECT_EQ(a.packets_seen, 13u);
  EXPECT_EQ(a.decided_process, 4u);
  EXPECT_EQ(a.decided_replicate, 5u);
  EXPECT_EQ(a.decided_ignore, 4u);
  EXPECT_EQ(a.replicated_bytes_to(2), 100u);
  EXPECT_EQ(a.replicated_bytes_to(5), 7u);
}

TEST(Shim, DecisionVerdictCountersTrackLookups) {
  ShimConfig config;
  RangeTable table;
  table.add(HashRange{0, kHashSpace / 2, Action::process()});
  table.add(HashRange{kHashSpace / 2, kHashSpace, Action::replicate(9)});
  config.set_table(0, table);
  const Shim shim(1, config);
  nwlb::util::Rng rng(7);
  ShimStats stats;
  for (int i = 0; i < 200; ++i) {
    nids::FiveTuple t{static_cast<std::uint32_t>(rng()),
                      static_cast<std::uint32_t>(rng()),
                      static_cast<std::uint16_t>(rng()),
                      static_cast<std::uint16_t>(rng()), 6};
    shim.decide(0, t, nids::Direction::kForward, stats);
    shim.decide(1, t, nids::Direction::kForward, stats);  // No table: ignore.
  }
  EXPECT_EQ(stats.decided_process + stats.decided_replicate + stats.decided_ignore,
            stats.packets_seen);
  EXPECT_EQ(stats.decided_ignore, 200u);  // The un-tabled class.
  EXPECT_GT(stats.decided_process, 0u);
  EXPECT_GT(stats.decided_replicate, 0u);
}

TEST(SourceReport, EncodeDecodeRoundTrip) {
  SourceReport report;
  report.origin_node = 4;
  report.rows = {{10, 3}, {20, 7}};
  const auto wire = report.encode();
  EXPECT_EQ(wire.size(), report.wire_bytes());
  const SourceReport decoded = SourceReport::decode(wire);
  EXPECT_EQ(decoded.origin_node, 4);
  ASSERT_EQ(decoded.rows.size(), 2u);
  EXPECT_EQ(decoded.rows[1].source, 20u);
  EXPECT_EQ(decoded.rows[1].distinct_destinations, 7u);
}

TEST(FlowReport, EncodeDecodeRoundTrip) {
  FlowReport report;
  report.origin_node = 2;
  report.pairs = {{1, 2}, {1, 3}, {5, 6}};
  const FlowReport decoded = FlowReport::decode(report.encode());
  EXPECT_EQ(decoded.pairs, report.pairs);
  // Cross-decoding must fail on the magic.
  EXPECT_THROW(SourceReport::decode(report.encode()), std::invalid_argument);
}

TEST(Aggregator, SourceReportsAddUp) {
  Aggregator agg;
  SourceReport a;
  a.rows = {{1, 4}, {2, 1}};
  SourceReport b;
  b.rows = {{1, 3}};
  agg.add(a);
  agg.add(b);
  const auto totals = agg.totals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[0].distinct_destinations, 7u);  // 4 + 3 across paths.
  EXPECT_EQ(agg.alerts(6).size(), 1u);
  EXPECT_EQ(agg.reports_received(), 2u);
  EXPECT_GT(agg.bytes_received(), 0u);
}

TEST(Aggregator, FlowReportsUnion) {
  // The Fig. 8 double-counting discussion: flow-level reports of the same
  // (src, dst) pair from different nodes must NOT double count.
  Aggregator agg;
  FlowReport a;
  a.pairs = {{1, 100}, {1, 101}};
  FlowReport b;
  b.pairs = {{1, 101}, {1, 102}};  // 101 repeated.
  agg.add(a);
  agg.add(b);
  const auto totals = agg.totals();
  ASSERT_EQ(totals.size(), 1u);
  EXPECT_EQ(totals[0].distinct_destinations, 3u);
}

TEST(Aggregator, ThresholdOnlyAtAggregator) {
  // Each node individually is under threshold; the aggregate exceeds it.
  Aggregator agg;
  for (int node = 0; node < 4; ++node) {
    SourceReport r;
    r.origin_node = node;
    r.rows = {{42, 3}};  // 3 destinations seen at each of 4 nodes.
    agg.add(r);
  }
  EXPECT_TRUE(agg.alerts(10).size() == 1 && agg.alerts(10)[0].source == 42u);
  agg.clear();
  EXPECT_TRUE(agg.totals().empty());
}

}  // namespace
}  // namespace nwlb::shim
