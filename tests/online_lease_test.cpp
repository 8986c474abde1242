// The leader lease: term-numbered elections where every vote and
// heartbeat ack doubles as a promise not to help elect anyone else until
// the promised horizon.  The safety property under test is exclusivity —
// at every tick, at most one live replica holds a majority-committed
// lease — across the nasty paths: leader crash, crash + instant restart
// (durable promise), and a partition that strands the leader in the
// minority.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/scenario.h"
#include "online/bus.h"
#include "online/estimator.h"
#include "online/replica.h"
#include "topo/topology.h"
#include "traffic/matrix.h"

namespace nwlb::online {
namespace {

/// A bare cluster: replicas + bus stepped the way ControlLoop steps them,
/// minus the data plane (gossip slices are all-zero).
struct Cluster {
  topo::Topology topology = topo::make_internet2();
  traffic::TrafficMatrix tm = traffic::gravity_matrix(
      topology.graph, traffic::paper_total_sessions(11));
  core::Scenario scenario{topology, tm, {}};
  std::vector<std::unique_ptr<Replica>> replicas;
  MessageBus bus;
  std::vector<bool> alive;
  std::size_t num_classes = 0;
  int rounds;

  explicit Cluster(int n, ReplicaOptions ropts = {})
      : bus(n), alive(static_cast<std::size_t>(n), true), rounds(n + 4) {
    for (int r = 0; r < n; ++r)
      replicas.push_back(std::make_unique<Replica>(
          r, n, make_estimator("ewma", scenario.classes(), topology.graph.num_nodes()),
          ropts));
    num_classes = scenario.classes().size();
  }

  void crash(int r) { alive[static_cast<std::size_t>(r)] = false; }
  void revive(int r) {
    if (!alive[static_cast<std::size_t>(r)])
      replicas[static_cast<std::size_t>(r)]->on_restart();
    alive[static_cast<std::size_t>(r)] = true;
  }

  /// One control interval; returns the unique valid-lease leader or -1.
  /// Asserts the exclusivity invariant every call.
  int run_interval(std::uint64_t tick) {
    bus.flush();
    EstimatePartial zero;
    zero.sessions.assign(num_classes, 0);
    zero.bytes.assign(num_classes, 0);
    for (auto& rep : replicas)
      if (alive[static_cast<std::size_t>(rep->id())])
        rep->begin_interval(tick, zero);
    for (int round = 0; round < rounds; ++round) {
      for (auto& rep : replicas)
        if (alive[static_cast<std::size_t>(rep->id())])
          rep->run_round(bus, tick, round, rounds);
      bus.advance_round();
    }
    for (auto& rep : replicas)
      if (alive[static_cast<std::size_t>(rep->id())]) rep->end_interval(tick);

    int leader = -1;
    for (auto& rep : replicas) {
      if (!alive[static_cast<std::size_t>(rep->id())]) continue;
      if (!rep->lease_valid(tick)) continue;
      EXPECT_EQ(leader, -1) << "replicas " << leader << " and " << rep->id()
                            << " both hold a committed lease at tick " << tick;
      leader = rep->id();
    }
    return leader;
  }
};

TEST(Lease, FirstIntervalElectsExactlyOneLeader) {
  Cluster cluster(3);
  const int leader = cluster.run_interval(0);
  // Candidacy rounds are staggered by id, so replica 0 runs first and wins.
  EXPECT_EQ(leader, 0);
  EXPECT_EQ(cluster.replicas[0]->role(), Role::kLeader);
  EXPECT_EQ(cluster.replicas[0]->term(), 1u);
  EXPECT_EQ(cluster.replicas[1]->role(), Role::kFollower);
  EXPECT_EQ(cluster.replicas[2]->role(), Role::kFollower);
  EXPECT_EQ(cluster.replicas[1]->leader_hint(), 0);
  std::uint64_t elections = 0;
  for (auto& rep : cluster.replicas) elections += rep->elections_started();
  EXPECT_EQ(elections, 1u);
}

TEST(Lease, HeartbeatRenewsWithoutNewElections) {
  Cluster cluster(3);
  for (std::uint64_t tick = 0; tick < 6; ++tick)
    EXPECT_EQ(cluster.run_interval(tick), 0) << "tick " << tick;
  EXPECT_EQ(cluster.replicas[0]->term(), 1u);
  std::uint64_t elections = 0;
  for (auto& rep : cluster.replicas) elections += rep->elections_started();
  EXPECT_EQ(elections, 1u) << "a stable leader must never trigger re-election";
}

TEST(Lease, LeaderCrashReelectsAfterPromiseExpires) {
  ReplicaOptions ropts;
  ropts.lease_ticks = 3;
  Cluster cluster(3, ropts);
  EXPECT_EQ(cluster.run_interval(0), 0);
  EXPECT_EQ(cluster.run_interval(1), 0);
  cluster.crash(0);
  // The tick-1 heartbeat promised lease_until = 1 + 3 = 4: followers
  // cannot help elect anyone before tick 4.  Availability is sacrificed
  // for exactly the promised horizon, never longer.
  int leaderless = 0;
  int new_leader = -1;
  std::uint64_t tick = 2;
  for (; tick < 8 && new_leader < 0; ++tick) {
    const int leader = cluster.run_interval(tick);
    if (leader < 0)
      ++leaderless;
    else
      new_leader = leader;
  }
  EXPECT_EQ(leaderless, 2) << "ticks 2 and 3 sit inside the old promise";
  ASSERT_GT(new_leader, 0);
  EXPECT_EQ(cluster.replicas[static_cast<std::size_t>(new_leader)]->term(), 2u);
  // And the new reign is stable.
  EXPECT_EQ(cluster.run_interval(tick), new_leader);
}

TEST(Lease, RestartKeepsDurablePromiseAndTerm) {
  ReplicaOptions ropts;
  ropts.lease_ticks = 3;
  Cluster cluster(3, ropts);
  EXPECT_EQ(cluster.run_interval(0), 0);
  const std::uint64_t promised = cluster.replicas[0]->lease_until();
  EXPECT_GT(promised, 0u);
  cluster.crash(0);
  cluster.revive(0);  // Crash + instant restart within the same interval.
  // Volatile state reset: no longer leader, no committed lease.
  EXPECT_EQ(cluster.replicas[0]->role(), Role::kFollower);
  EXPECT_FALSE(cluster.replicas[0]->lease_valid(1));
  // Durable state survived: the term and the self-promise horizon.  The
  // restarted replica must not help elect (or become) a second leader
  // inside its own outstanding promise — forgetting it could produce two
  // overlapping committed leases.
  EXPECT_EQ(cluster.replicas[0]->term(), 1u);
  EXPECT_EQ(cluster.replicas[0]->lease_until(), promised);
  // The cluster as a whole stays safe through the promise window and
  // re-elects after it; exclusivity is asserted inside run_interval.
  int new_leader = -1;
  for (std::uint64_t tick = 1; tick < 8 && new_leader < 0; ++tick)
    new_leader = cluster.run_interval(tick);
  ASSERT_GE(new_leader, 0);
  EXPECT_GE(cluster.replicas[static_cast<std::size_t>(new_leader)]->term(), 2u);
}

TEST(Lease, MinorityPartitionedLeaderStepsDownMajorityElects) {
  ReplicaOptions ropts;
  ropts.lease_ticks = 3;
  Cluster cluster(3, ropts);
  EXPECT_EQ(cluster.run_interval(0), 0);
  EXPECT_EQ(cluster.run_interval(1), 0);
  // Strand the leader alone in group A: its heartbeats reach nobody, so
  // its committed lease can never renew past the horizon it already holds.
  cluster.bus.set_partition(0b001);
  int new_leader = -1;
  std::uint64_t tick = 2;
  for (; tick < 10 && new_leader <= 0; ++tick) {
    const int leader = cluster.run_interval(tick);
    if (leader > 0) new_leader = leader;
    // Exclusivity inside run_interval covers the dangerous overlap: the
    // old leader's committed lease and the majority's new one never both
    // cover the same tick.
  }
  ASSERT_GT(new_leader, 0);
  EXPECT_EQ(cluster.replicas[static_cast<std::size_t>(new_leader)]->term(), 2u);
  // The deposed leader stepped down on its own (lease lapsed, no quorum).
  // It may be running a doomed candidacy inside its partition, but it can
  // never be a committed-lease leader again.
  EXPECT_NE(cluster.replicas[0]->role(), Role::kLeader);

  // Heal the cut: the old leader adopts the new term as a follower.
  cluster.bus.set_partition(0);
  EXPECT_EQ(cluster.run_interval(tick), new_leader);
  EXPECT_EQ(cluster.replicas[0]->term(),
            cluster.replicas[static_cast<std::size_t>(new_leader)]->term());
  EXPECT_EQ(cluster.replicas[0]->leader_hint(), new_leader);
}

TEST(Lease, SingleReplicaClusterIsItsOwnMajority) {
  Cluster cluster(1);
  EXPECT_EQ(cluster.run_interval(0), 0);
  EXPECT_EQ(cluster.replicas[0]->term(), 1u);
  EXPECT_TRUE(cluster.replicas[0]->lease_valid(0));
}

}  // namespace
}  // namespace nwlb::online
