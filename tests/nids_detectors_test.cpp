// Scan detector, session tracker, resource model, and NidsNode tests.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "nids/node.h"
#include "nids/resources.h"
#include "nids/scan.h"
#include "nids/session.h"
#include "util/rng.h"

namespace nwlb::nids {
namespace {

TEST(ScanDetector, CountsDistinctDestinations) {
  ScanDetector d;
  d.observe(1, 100);
  d.observe(1, 101);
  d.observe(1, 100);  // Duplicate: no double count.
  d.observe(2, 100);
  const auto report = d.report();
  ASSERT_EQ(report.size(), 2u);
  EXPECT_EQ(report[0].source, 1u);
  EXPECT_EQ(report[0].distinct_destinations, 2u);
  EXPECT_EQ(report[1].source, 2u);
  EXPECT_EQ(report[1].distinct_destinations, 1u);
  EXPECT_EQ(d.work_units(), 4u);
}

TEST(ScanDetector, ThresholdAlerts) {
  ScanDetector d;
  for (std::uint32_t k = 0; k < 20; ++k) d.observe(7, 1000 + k);
  d.observe(8, 1);
  EXPECT_EQ(d.alerts(10).size(), 1u);
  EXPECT_EQ(d.alerts(10)[0].source, 7u);
  EXPECT_EQ(d.alerts(0).size(), 2u);   // Everyone contacts > 0 destinations.
  EXPECT_EQ(d.alerts(25).size(), 0u);
}

TEST(ScanDetector, ClearResets) {
  ScanDetector d;
  d.observe(1, 2);
  d.clear();
  EXPECT_EQ(d.num_sources(), 0u);
  EXPECT_TRUE(d.report().empty());
}

TEST(SessionTracker, CoverageNeedsBothDirections) {
  SessionTracker t;
  t.observe(1, Direction::kForward);
  t.observe(2, Direction::kForward);
  t.observe(2, Direction::kReverse);
  EXPECT_EQ(t.covered_sessions(), 1u);
  EXPECT_EQ(t.half_open_sessions(), 1u);
  EXPECT_TRUE(t.is_covered(2));
  EXPECT_FALSE(t.is_covered(1));
  EXPECT_FALSE(t.is_covered(99));
  EXPECT_EQ(t.covered_ids(), (std::vector<std::uint64_t>{2}));
}

TEST(SessionTracker, RepeatObservationsIdempotent) {
  SessionTracker t;
  for (int i = 0; i < 5; ++i) t.observe(1, Direction::kForward);
  EXPECT_EQ(t.covered_sessions(), 0u);
  t.observe(1, Direction::kReverse);
  EXPECT_EQ(t.covered_sessions(), 1u);
  EXPECT_EQ(t.work_units(), 6u);
}

TEST(Resources, FootprintAndCapacities) {
  Footprint f;
  f.set(Resource::kCpu, 2.5);
  EXPECT_DOUBLE_EQ(f.on(Resource::kCpu), 2.5);
  EXPECT_THROW(f.set(Resource::kCpu, -1.0), std::invalid_argument);

  NodeCapacities caps(3, 100.0);
  EXPECT_EQ(caps.num_nodes(), 3);
  EXPECT_DOUBLE_EQ(caps.of(1, Resource::kCpu), 100.0);
  caps.scale_node(2, 10.0);
  EXPECT_DOUBLE_EQ(caps.of(2, Resource::kCpu), 1000.0);
  caps.set(0, Resource::kMemory, 7.0);
  EXPECT_DOUBLE_EQ(caps.of(0, Resource::kMemory), 7.0);
  EXPECT_THROW(caps.set(0, Resource::kCpu, 0.0), std::invalid_argument);
  EXPECT_THROW(NodeCapacities(0, 1.0), std::invalid_argument);
}

TEST(FiveTuple, CanonicalIsBidirectional) {
  FiveTuple t{0x0a000001, 0x0a000002, 4444, 80, 6};
  EXPECT_EQ(t.canonical(), t.reversed().canonical());
  EXPECT_TRUE(t.canonical().is_canonical());
  // Canonical of an already-canonical tuple is itself.
  EXPECT_EQ(t.canonical().canonical(), t.canonical());
}

TEST(FiveTuple, CanonicalTieBreaksOnPort) {
  FiveTuple t{5, 5, 9000, 80, 6};
  const FiveTuple c = t.canonical();
  EXPECT_LE(c.src_port, c.dst_port);
  EXPECT_EQ(c, t.reversed().canonical());
}

TEST(NidsNode, ProcessAccumulatesWorkAndState) {
  NidsNode node("test", {"evil"});
  Packet p;
  p.tuple = FiveTuple{1, 2, 1234, 80, 6};
  p.session_id = 42;
  p.direction = Direction::kForward;
  p.payload = "very evil payload";
  EXPECT_EQ(node.process(p), 1u);
  EXPECT_GT(node.work_units(), 0.0);
  EXPECT_EQ(node.packets_processed(), 1u);
  EXPECT_EQ(node.scan_detector().num_sources(), 1u);
  EXPECT_FALSE(node.session_tracker().is_covered(42));

  Packet r = p;
  r.tuple = p.tuple.reversed();
  r.direction = Direction::kReverse;
  r.payload = "ack";
  node.process(r);
  EXPECT_TRUE(node.session_tracker().is_covered(42));
  // Reverse packet attributed to the initiator: still a single source.
  EXPECT_EQ(node.scan_detector().num_sources(), 1u);
}

TEST(NidsNode, WorkScalesWithPayload) {
  NidsNode node("t");
  Packet small, big;
  small.tuple = big.tuple = FiveTuple{1, 2, 3, 4, 6};
  small.payload.assign(10, 'a');
  big.payload.assign(1000, 'a');
  node.process(small);
  const double w1 = node.work_units();
  node.process(big);
  const double w2 = node.work_units() - w1;
  EXPECT_GT(w2, w1);
}

// Replay scans a packet once and hands each node its count: a node fed
// that way must end exactly where a node that scans for itself does.
TEST(NidsNode, PrecountedProcessMatchesScanningProcess) {
  const auto engine =
      std::make_shared<const SignatureEngine>(SignatureEngine::default_rules());
  NidsNode scanning("scanning", engine);
  NidsNode precounted("precounted", engine);
  const std::vector<std::string>& rules = SignatureEngine::default_rules();
  util::Rng rng(17);
  for (std::uint64_t id = 1; id <= 60; ++id) {
    const FiveTuple tuple{static_cast<std::uint32_t>(rng.below(40)),
                          static_cast<std::uint32_t>(100 + rng.below(40)),
                          static_cast<std::uint16_t>(1024 + rng.below(100)), 80, 6};
    for (const Direction dir : {Direction::kForward, Direction::kReverse}) {
      if (dir == Direction::kReverse && rng.bernoulli(0.3)) continue;  // Half-open.
      for (int k = 0; k < 3; ++k) {
        Packet p;
        p.session_id = id;
        p.direction = dir;
        p.tuple = dir == Direction::kForward ? tuple : tuple.reversed();
        p.payload.assign(static_cast<std::size_t>(rng.below(300)), 'a');
        for (char& c : p.payload) c = static_cast<char>('a' + rng.below(17));
        if (rng.bernoulli(0.2)) p.payload += rules[rng.below(rules.size())];
        const PacketView view(p);
        EXPECT_EQ(precounted.process(view, engine->count_matches(view.payload)),
                  scanning.process(view));
      }
    }
  }
  EXPECT_EQ(precounted.work_units(), scanning.work_units());
  EXPECT_EQ(precounted.packets_processed(), scanning.packets_processed());
  EXPECT_EQ(precounted.session_tracker().covered_ids(), scanning.session_tracker().covered_ids());
  EXPECT_EQ(precounted.session_tracker().total_sessions(),
            scanning.session_tracker().total_sessions());
  EXPECT_EQ(precounted.session_tracker().work_units(), scanning.session_tracker().work_units());
  EXPECT_EQ(precounted.scan_detector().report(), scanning.scan_detector().report());
  EXPECT_EQ(precounted.scan_detector().work_units(), scanning.scan_detector().work_units());
}

}  // namespace
}  // namespace nwlb::nids
