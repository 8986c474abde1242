// Trace generation, replay emulation, and LP-vs-simulation agreement.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/aggregation_lp.h"
#include "core/mapper.h"
#include "core/replication_lp.h"
#include "core/scenario.h"
#include "core/split_lp.h"
#include "sim/replay.h"
#include "sim/scan_split.h"
#include "sim/trace.h"
#include "topo/overlap.h"
#include "topo/topology.h"
#include "traffic/matrix.h"
#include "util/rng.h"

namespace nwlb::sim {
namespace {

struct SimFixture {
  topo::Topology topology = topo::make_internet2();
  traffic::TrafficMatrix tm;
  core::Scenario scenario;

  SimFixture()
      : tm(traffic::gravity_matrix(topology.graph, traffic::paper_total_sessions(11))),
        scenario(topology, tm) {}
};

TEST(TraceGenerator, DeterministicAndClassWeighted) {
  SimFixture f;
  TraceGenerator g1(f.scenario.classes(), {}, 99);
  TraceGenerator g2(f.scenario.classes(), {}, 99);
  const auto a = g1.generate(500);
  const auto b = g2.generate(500);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tuple, b[i].tuple);
    EXPECT_EQ(a[i].class_index, b[i].class_index);
  }
}

TEST(TraceGenerator, TuplesMatchClassPrefixes) {
  SimFixture f;
  TraceGenerator gen(f.scenario.classes(), {}, 7);
  for (const auto& s : gen.generate(300)) {
    const auto& cls = f.scenario.classes()[static_cast<std::size_t>(s.class_index)];
    EXPECT_EQ(TraceGenerator::pop_of_address(s.tuple.src_ip), cls.ingress);
    EXPECT_EQ(TraceGenerator::pop_of_address(s.tuple.dst_ip), cls.egress);
  }
}

TEST(TraceGenerator, MaliciousPayloadsCarrySignatures) {
  SimFixture f;
  TraceConfig config;
  config.malicious_fraction = 1.0;  // Every session malicious.
  TraceGenerator gen(f.scenario.classes(), config, 3);
  const nids::SignatureEngine engine(nids::SignatureEngine::default_rules());
  int hits = 0;
  for (const auto& s : gen.generate(50)) {
    if (s.scanner) continue;
    const auto pkt = gen.make_packet(s, 0, nids::Direction::kForward);
    if (engine.count_matches(pkt.payload) > 0) ++hits;
  }
  EXPECT_GE(hits, 45);  // A handful of rules exceed tiny payloads.
}

TEST(TraceGenerator, BenignPayloadsAreClean) {
  SimFixture f;
  TraceConfig config;
  config.malicious_fraction = 0.0;
  config.scanners = 0;
  TraceGenerator gen(f.scenario.classes(), config, 4);
  const nids::SignatureEngine engine(nids::SignatureEngine::default_rules());
  for (const auto& s : gen.generate(100)) {
    const auto pkt = gen.make_packet(s, 0, nids::Direction::kForward);
    EXPECT_EQ(engine.count_matches(pkt.payload), 0u);
  }
}

// The filler is copied from one compile-time pool, so every payload size —
// the tiny probes, the pool size + 1 (one wrap) and the IPv4 limit (many) —
// must give the same bytes through make_packet and packet_into and from any
// generator seed, stay inside 'a'..'q' outside the embedded signature, and
// match a rule only where a signature was embedded.
TEST(TraceGenerator, PooledFillerIsSeedFreeAndClean) {
  SimFixture f;
  const TraceGenerator a(f.scenario.classes(), {}, 1);
  const TraceGenerator b(f.scenario.classes(), {}, 987654321);
  const nids::SignatureEngine engine(nids::SignatureEngine::default_rules());
  const std::size_t pool = TraceGenerator::kFillerPoolBytes;
  for (const std::size_t bytes : {std::size_t{16}, std::size_t{64}, std::size_t{1400},
                                  pool + 1, nids::kMaxPayloadBytes}) {
    for (const bool malicious : {false, true}) {
      SessionSpec s;
      s.id = 7 + bytes;
      s.class_index = 0;
      s.tuple = nids::FiveTuple{0x0a000001, 0x0a010002, 40000, 80, 6};
      s.payload_bytes = static_cast<int>(bytes);
      s.malicious = malicious;
      const std::string& sig = a.signature_corpus()[s.id % a.signature_corpus().size()];
      std::vector<char> buf(bytes);
      for (const nids::Direction dir : {nids::Direction::kForward, nids::Direction::kReverse}) {
        for (int k = 0; k < 12; ++k) {
          SCOPED_TRACE(std::to_string(bytes) + " B, malicious " + std::to_string(malicious) +
                       ", reverse " + std::to_string(dir == nids::Direction::kReverse) +
                       ", index " + std::to_string(k));
          const nids::Packet packet = a.make_packet(s, k, dir);
          ASSERT_EQ(packet.payload.size(), bytes);
          EXPECT_EQ(std::string(a.packet_into(s, k, dir, buf).payload), packet.payload);
          EXPECT_EQ(b.make_packet(s, k, dir).payload, packet.payload);
          // Only a malicious session's first forward packet carries its
          // signature, in the middle, and only if the signature fits.
          const bool carries = malicious && k == 0 && dir == nids::Direction::kForward &&
                               sig.size() <= bytes;
          const std::size_t sig_at = carries ? (bytes - sig.size()) / 2 : bytes;
          if (carries) {
            EXPECT_EQ(packet.payload.substr(sig_at, sig.size()), sig);
          } else {
            // Past the pool, the filler repeats with the pool's period.
            for (std::size_t i = pool; i < bytes; i += 997)
              ASSERT_EQ(packet.payload[i], packet.payload[i - pool]) << i;
          }
          std::size_t in_alphabet = 0;
          for (std::size_t i = 0; i < bytes; ++i) {
            if (carries && i >= sig_at && i < sig_at + sig.size()) continue;
            in_alphabet += packet.payload[i] >= 'a' && packet.payload[i] <= 'q' ? 1 : 0;
          }
          EXPECT_EQ(in_alphabet, bytes - (carries ? sig.size() : 0));
          EXPECT_EQ(engine.count_matches(packet.payload) > 0, carries);
        }
      }
    }
  }
}

TEST(TraceGenerator, RejectsMaxPayloadAboveIpv4Limit) {
  SimFixture f;
  TraceConfig config;
  config.max_payload = static_cast<int>(nids::kMaxPayloadBytes) + 1;  // 65,496.
  EXPECT_THROW(TraceGenerator(f.scenario.classes(), config, 1), std::invalid_argument);
  config.max_payload = static_cast<int>(nids::kMaxPayloadBytes);
  EXPECT_NO_THROW(TraceGenerator(f.scenario.classes(), config, 1));
}

TEST(TraceGenerator, ScannersFanOut) {
  SimFixture f;
  TraceConfig config;
  config.scanners = 2;
  config.scan_fanout = 30;
  TraceGenerator gen(f.scenario.classes(), config, 5);
  const auto sessions = gen.generate(10);
  int probes = 0;
  for (const auto& s : sessions)
    if (s.scanner) ++probes;
  EXPECT_EQ(probes, 60);
}

TEST(ReplaySimulator, SingleOwnerPerPacket) {
  // Under a full-coverage config, every packet is processed exactly once.
  SimFixture f;
  const core::ProblemInput input = f.scenario.problem(core::Architecture::kPathReplicate);
  const core::Assignment a = core::ReplicationLp(input).solve();
  ReplaySimulator sim(input, core::build_bundle(input, a));
  TraceConfig tc;
  tc.scanners = 0;
  TraceGenerator gen(input.classes, tc, 11);
  const auto sessions = gen.generate(800);
  sim.replay(sessions, gen);
  const ReplayStats stats = sim.stats();
  std::uint64_t processed = 0;
  for (auto p : stats.node_packets) processed += p;
  EXPECT_EQ(processed, stats.packets_replayed);
}

TEST(ReplaySimulator, WorkTracksLpLoads) {
  SimFixture f;
  const core::ProblemInput input = f.scenario.problem(core::Architecture::kPathReplicate);
  const core::Assignment a = core::ReplicationLp(input).solve();
  ReplaySimulator sim(input, core::build_bundle(input, a));
  TraceConfig tc;
  tc.scanners = 0;
  tc.max_packets_per_direction = 4;
  TraceGenerator gen(input.classes, tc, 13);
  const auto sessions = gen.generate(4000);
  sim.replay(sessions, gen);
  const ReplayStats stats = sim.stats();

  // Compare normalized work against normalized LP loads (same capacity on
  // all PoPs, so comparing raw work is fair after DC scaling).
  std::vector<double> lp_load;
  for (int j = 0; j < input.num_processing_nodes(); ++j) {
    double cap_scale = j == input.datacenter_id() ? input.datacenter.capacity_factor : 1.0;
    lp_load.push_back(a.node_load[static_cast<std::size_t>(j)][0] * cap_scale);
  }
  const double lp_max = *std::max_element(lp_load.begin(), lp_load.end());
  const double work_max =
      *std::max_element(stats.node_work.begin(), stats.node_work.end());
  ASSERT_GT(work_max, 0.0);
  for (std::size_t j = 0; j < lp_load.size(); ++j) {
    const double lp_norm = lp_load[j] / lp_max;
    const double sim_norm = stats.node_work[j] / work_max;
    EXPECT_NEAR(sim_norm, lp_norm, 0.15) << "node " << j;
  }
}

TEST(ReplaySimulator, StatefulCoverageFullUnderSymmetricRouting) {
  SimFixture f;
  const core::ProblemInput input = f.scenario.problem(core::Architecture::kPathReplicate);
  const core::Assignment a = core::ReplicationLp(input).solve();
  ReplaySimulator sim(input, core::build_bundle(input, a));
  TraceConfig tc;
  tc.scanners = 0;
  TraceGenerator gen(input.classes, tc, 17);
  sim.replay(gen.generate(600), gen);
  EXPECT_NEAR(sim.stats().miss_rate(), 0.0, 1e-9);
}

TEST(ReplaySimulator, AsymmetryCausesMissesOnPathButNotWithDc) {
  SimFixture f;
  core::ProblemInput input = f.scenario.problem(core::Architecture::kPathReplicate);
  const topo::AsymmetricRouteGenerator generator(f.scenario.routing());
  nwlb::util::Rng rng(23);
  // Low overlap: some classes end up with fully disjoint fwd/rev routes,
  // which no on-path node can cover statefully.
  traffic::apply_asymmetry(input.classes, generator, 0.05, rng);

  TraceConfig tc;
  tc.scanners = 0;

  // On-path only (ingress-style restriction): heavy misses.
  core::SplitOptions path_opts;
  path_opts.mode = core::SplitMode::kOnPathOnly;
  const core::Assignment path_assign = core::SplitTrafficLp(input, path_opts).solve();
  ReplaySimulator path_sim(input, core::build_bundle(input, path_assign));
  TraceGenerator gen1(input.classes, tc, 29);
  path_sim.replay(gen1.generate(800), gen1);
  const double path_miss = path_sim.stats().miss_rate();

  // With DC replication: near-zero misses.
  const core::Assignment dc_assign = core::SplitTrafficLp(input).solve();
  ReplaySimulator dc_sim(input, core::build_bundle(input, dc_assign));
  TraceGenerator gen2(input.classes, tc, 29);
  dc_sim.replay(gen2.generate(800), gen2);
  const double dc_miss = dc_sim.stats().miss_rate();

  EXPECT_GT(path_miss, dc_miss);
  // At extreme asymmetry the MaxLinkLoad budget caps how much can reach the
  // DC, so the right check is agreement with the LP's own predictions.
  EXPECT_NEAR(path_miss, path_assign.miss_rate, 0.1);
  EXPECT_NEAR(dc_miss, dc_assign.miss_rate, 0.1);
  EXPECT_LT(dc_assign.miss_rate, path_assign.miss_rate);
}

TEST(ReplaySimulator, SignatureDetectionSurvivesDistribution) {
  // Malicious payloads are detected no matter which node processes them.
  SimFixture f;
  const core::ProblemInput input = f.scenario.problem(core::Architecture::kPathReplicate);
  const core::Assignment a = core::ReplicationLp(input).solve();
  ReplaySimulator sim(input, core::build_bundle(input, a));
  TraceConfig tc;
  tc.scanners = 0;
  tc.malicious_fraction = 0.5;
  TraceGenerator gen(input.classes, tc, 31);
  const auto sessions = gen.generate(400);
  int malicious = 0;
  for (const auto& s : sessions)
    if (s.malicious) ++malicious;
  sim.replay(sessions, gen);
  // Some signatures are longer than the smallest payloads, so demand a
  // large fraction rather than equality.
  EXPECT_GE(sim.stats().signature_matches,
            static_cast<std::uint64_t>(malicious * 8 / 10));
}

TEST(ScanSplit, AggregationIsSemanticallyEquivalent) {
  SimFixture f;
  const core::ProblemInput input = f.scenario.problem(core::Architecture::kPathNoReplicate);
  core::AggregationOptions opts;
  opts.beta = 0.01;
  const core::Assignment a = core::AggregationLp(input, opts).solve();
  TraceConfig tc;
  tc.scanners = 3;
  tc.scan_fanout = 25;
  TraceGenerator gen(input.classes, tc, 37);
  const auto sessions = gen.generate(2000);
  const ScanSplitResult result = run_scan_split(input, a, sessions, /*threshold=*/15);
  EXPECT_TRUE(result.equivalent());
  ASSERT_EQ(result.distributed_alerts.size(), 3u);  // Exactly the scanners.
  EXPECT_GT(result.reports_sent, 0u);
  EXPECT_GT(result.report_bytes, 0u);
}

TEST(ScanSplit, CentralizedAndDistributedCountsMatchExactly) {
  SimFixture f;
  const core::ProblemInput input = f.scenario.problem(core::Architecture::kPathNoReplicate);
  const core::Assignment a = core::AggregationLp(input).solve();
  TraceConfig tc;
  tc.scanners = 1;
  tc.scan_fanout = 40;
  TraceGenerator gen(input.classes, tc, 41);
  const auto sessions = gen.generate(1000);
  const ScanSplitResult result = run_scan_split(input, a, sessions, 0);
  // Threshold 0 => every observed source alerts; full count equality.
  EXPECT_EQ(result.distributed_alerts, result.centralized_alerts);
}

TEST(ScanSplit, IngressPlacementHasZeroCommCost) {
  SimFixture f;
  const core::ProblemInput input = f.scenario.problem(core::Architecture::kPathNoReplicate);
  core::AggregationOptions opts;
  opts.beta = 1e9;  // Everything lands on the ingress.
  const core::Assignment a = core::AggregationLp(input, opts).solve();
  TraceGenerator gen(input.classes, {}, 43);
  const auto sessions = gen.generate(500);
  const ScanSplitResult result = run_scan_split(input, a, sessions, 5);
  EXPECT_NEAR(result.comm_byte_hops, 0.0, 1e-9);
  EXPECT_TRUE(result.equivalent());
}

}  // namespace
}  // namespace nwlb::sim
