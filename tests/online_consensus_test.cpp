// The consensus substrate: bus delivery semantics and set-union estimate
// gossip.  The ISSUE's convergence property lives here — the gossiped
// digest must equal the centralized counters *exactly* (not approximately)
// within a bounded number of rounds, with or without message loss, and a
// replica's estimator fed that digest must match a single-controller
// estimator fed the full counters bit for bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/scenario.h"
#include "online/bus.h"
#include "online/estimator.h"
#include "online/replica.h"
#include "topo/topology.h"
#include "traffic/matrix.h"

namespace nwlb::online {
namespace {

TEST(ConsensusBus, DeliversNextRoundInSendOrder) {
  MessageBus bus(2);
  Message a;
  a.type = MsgType::kHeartbeat;
  a.from = 0;
  a.to = 1;
  a.term = 7;
  Message b = a;
  b.type = MsgType::kHeartbeatAck;
  bus.send(a);
  bus.send(b);
  // Synchronous rounds: nothing is deliverable in the round it was sent.
  EXPECT_TRUE(bus.drain(1).empty());
  bus.advance_round();
  const std::vector<Message> got = bus.drain(1);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].type, MsgType::kHeartbeat);
  EXPECT_EQ(got[1].type, MsgType::kHeartbeatAck);
  EXPECT_EQ(got[0].term, 7u);
  EXPECT_EQ(bus.stats().delivered, 2u);
}

TEST(ConsensusBus, PartitionCutsCrossGroupMessages) {
  MessageBus bus(3);
  bus.set_partition(0b001);  // Replica 0 alone in group A.
  Message cross;
  cross.from = 0;
  cross.to = 1;
  Message within;
  within.from = 1;
  within.to = 2;
  bus.send(cross);
  bus.send(within);
  bus.advance_round();
  EXPECT_TRUE(bus.drain(1).empty());
  EXPECT_EQ(bus.drain(2).size(), 1u);
  EXPECT_EQ(bus.stats().partitioned, 1u);
  EXPECT_EQ(bus.stats().delivered, 1u);
  EXPECT_FALSE(bus.reachable(0, 1));
  EXPECT_TRUE(bus.reachable(1, 2));
  bus.set_partition(0);  // Healed.
  EXPECT_TRUE(bus.reachable(0, 1));
}

TEST(ConsensusBus, DropsAreSeededAndReproducible) {
  BusOptions opts;
  opts.drop_probability = 0.5;
  auto run = [&] {
    MessageBus bus(2, opts);
    for (int i = 0; i < 200; ++i) {
      Message msg;
      msg.from = 0;
      msg.to = 1;
      bus.send(msg);
    }
    bus.advance_round();
    (void)bus.drain(1);
    return bus.stats();
  };
  const BusStats first = run();
  const BusStats again = run();
  EXPECT_EQ(first.sent, 200u);
  EXPECT_EQ(first.delivered + first.dropped, 200u);
  // Half-ish loss, and bit-identical across reruns (stateless hash draws).
  EXPECT_GT(first.dropped, 50u);
  EXPECT_LT(first.dropped, 150u);
  EXPECT_EQ(first.dropped, again.dropped);
  EXPECT_EQ(first.delivered, again.delivered);
}

TEST(ConsensusBus, FlushDropsEverythingInFlight) {
  MessageBus bus(2);
  Message msg;
  msg.from = 0;
  msg.to = 1;
  bus.send(msg);
  bus.flush();
  bus.advance_round();
  EXPECT_TRUE(bus.drain(1).empty());
  EXPECT_EQ(bus.stats().flushed, 1u);
  EXPECT_EQ(bus.stats().delivered, 0u);
}

// ---------------------------------------------------------------------------

/// N replicas over one bus, each seeded with a disjoint slice of a
/// fabricated window; the oracle is the elementwise slice sum.
struct GossipFixture {
  topo::Topology topology = topo::make_internet2();
  traffic::TrafficMatrix tm = traffic::gravity_matrix(
      topology.graph, traffic::paper_total_sessions(11));
  core::Scenario scenario{topology, tm, {}};
  std::vector<std::unique_ptr<Replica>> replicas;
  std::size_t num_classes = 0;
  std::vector<std::uint64_t> oracle_sessions;
  std::vector<std::uint64_t> oracle_bytes;

  /// Every replica's estimator is built from `spec` on top of `defaults`.
  explicit GossipFixture(int n, std::string_view spec = "ewma",
                         const EstimatorOptions& defaults = {}) {
    for (int r = 0; r < n; ++r)
      replicas.push_back(std::make_unique<Replica>(
          r, n,
          make_estimator(spec, scenario.classes(), topology.graph.num_nodes(),
                         defaults),
          ReplicaOptions{}));
    num_classes = scenario.classes().size();
    oracle_sessions.assign(num_classes, 0);
    oracle_bytes.assign(num_classes, 0);
    for (std::size_t c = 0; c < num_classes; ++c) {
      oracle_sessions[c] = 100 + static_cast<std::uint64_t>(c);
      oracle_bytes[c] = 1000 + 7 * static_cast<std::uint64_t>(c);
    }
  }

  /// Replica r's slice: the classes with index % N == r (any disjoint
  /// cover works — ownership semantics live in the loop, not the gossip).
  EstimatePartial slice(int r) const {
    EstimatePartial own;
    own.origin = r;
    own.sessions.assign(num_classes, 0);
    own.bytes.assign(num_classes, 0);
    for (std::size_t c = 0; c < num_classes; ++c) {
      if (static_cast<int>(c % replicas.size()) != r) continue;
      own.sessions[c] = oracle_sessions[c];
      own.bytes[c] = oracle_bytes[c];
    }
    return own;
  }

  /// One full interval of synchronous rounds; returns origins heard per
  /// replica (from end_interval).
  std::vector<int> run_interval(MessageBus& bus, std::uint64_t tick, int rounds) {
    for (auto& rep : replicas) rep->begin_interval(tick, slice(rep->id()));
    for (int round = 0; round < rounds; ++round) {
      for (auto& rep : replicas) rep->run_round(bus, tick, round, rounds);
      bus.advance_round();
    }
    std::vector<int> heard;
    for (auto& rep : replicas) heard.push_back(rep->end_interval(tick));
    return heard;
  }
};

TEST(Consensus, GossipConvergesExactlyOnLosslessBus) {
  const int n = 5;
  GossipFixture f(n);
  MessageBus bus(n);
  // The loop's internal floor: replicas + 4 rounds must suffice on a
  // healthy bus — that is the bounded-round convergence contract.
  const std::vector<int> heard = f.run_interval(bus, /*tick=*/0, n + 4);
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(heard[static_cast<std::size_t>(r)], n) << "replica " << r;
    EXPECT_EQ(f.replicas[static_cast<std::size_t>(r)]->digest_sessions(),
              f.oracle_sessions)
        << "replica " << r << " digest != centralized sums";
    EXPECT_EQ(f.replicas[static_cast<std::size_t>(r)]->digest_bytes(),
              f.oracle_bytes);
  }
}

TEST(Consensus, ConvergesUnderDropsAndDelaysWithinBoundedRounds) {
  const int n = 5;
  GossipFixture f(n);
  BusOptions bopts;
  bopts.drop_probability = 0.3;
  bopts.max_delay_rounds = 2;
  MessageBus bus(n, bopts);
  // A lossy, laggy bus gets three times the healthy budget — still a fixed
  // bound, and the digest must still be *exact*: set-union merge means
  // loss costs time, never mass.
  const std::vector<int> heard = f.run_interval(bus, /*tick=*/0, 3 * (n + 4));
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(heard[static_cast<std::size_t>(r)], n) << "replica " << r;
    EXPECT_EQ(f.replicas[static_cast<std::size_t>(r)]->digest_sessions(),
              f.oracle_sessions);
  }
  EXPECT_GT(bus.stats().dropped, 0u) << "the bus was supposed to be lossy";
}

TEST(Consensus, DigestFedEstimatorMatchesCentralizedOracle) {
  // The gossip merge is estimator-agnostic: for *every* registered kind,
  // a replica's estimator fed the converged digest must match a single
  // centralized estimator fed the full counters bit for bit.
  for (std::string_view kind : estimator_kinds()) {
    const int n = 3;
    EstimatorOptions defaults;
    defaults.scale_to_total = 50'000.0;
    GossipFixture f(n, kind, defaults);
    MessageBus bus(n);

    // Centralized oracle: one estimator fed the full window directly.
    const std::unique_ptr<Estimator> central = make_estimator(
        kind, f.scenario.classes(), f.topology.graph.num_nodes(), defaults);

    for (std::uint64_t tick = 0; tick < 3; ++tick) {
      f.run_interval(bus, tick, n + 4);
      central->observe(f.oracle_sessions, f.oracle_bytes);
      bus.flush();
    }
    const traffic::TrafficMatrix want = central->estimate();
    for (int r = 0; r < n; ++r) {
      const Replica& replica = *f.replicas[static_cast<std::size_t>(r)];
      EXPECT_EQ(replica.estimator().kind(), kind);
      const traffic::TrafficMatrix got = replica.estimator().estimate();
      EXPECT_NEAR(got.total(), want.total(), 1e-9 * want.total());
      EXPECT_LT(estimation_error(got, want), 1e-12)
          << kind << " replica " << r
          << " diverged from the centralized estimate";
    }
  }
}

TEST(Consensus, DuplicateAndStalePartialsAreIdempotent) {
  const int n = 3;
  GossipFixture f(n);
  MessageBus bus(n);
  Replica& target = *f.replicas[0];
  target.begin_interval(/*tick=*/5, f.slice(0));

  Message share;
  share.type = MsgType::kEstimateShare;
  share.from = 1;
  share.to = 0;
  share.tick = 5;
  share.partials.push_back(f.slice(1));
  bus.send(share);
  bus.send(share);  // Duplicate delivery of the same origin's slice.
  Message stale = share;
  stale.tick = 4;  // Cross-interval leftover: must be ignored outright.
  stale.partials.clear();
  stale.partials.push_back(f.slice(2));
  bus.send(stale);
  bus.advance_round();
  target.run_round(bus, /*tick=*/5, /*round=*/0, /*total_rounds=*/8);

  EXPECT_EQ(target.replicas_heard(), 2);  // Self + origin 1, counted once.
  const int heard = target.end_interval(5);
  EXPECT_EQ(heard, 2);
  // The digest holds exactly one copy of each heard origin's slice.
  std::vector<std::uint64_t> want(f.num_classes, 0);
  for (std::size_t c = 0; c < f.num_classes; ++c)
    if (c % 3 == 0 || c % 3 == 1) want[c] = f.oracle_sessions[c];
  EXPECT_EQ(target.digest_sessions(), want);
}

}  // namespace
}  // namespace nwlb::online
