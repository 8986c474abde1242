// One simulated controller replica (DESIGN.md §13).
//
// A replica holds the consensus state that coordinates N of them into one
// logical controller, and an Estimator (any registered kind) fed by it.
// The epochs it runs as leader go to a core::Controller the control loop
// pairs it with; the replica itself owns none:
//
//   * Estimate gossip.  Every interval each replica observes the data
//     plane's counters for the traffic classes whose ingress PoP it owns
//     (`ingress % N == id`), then gossips the set of per-origin partials
//     it has heard.  Partials merge by union keyed on origin, which is
//     idempotent and order-free: once every origin's slice has spread, the
//     summed digest equals the centralized counters *exactly* — not
//     approximately — and extra rounds, duplicates, and reordering cannot
//     perturb it.
//
//   * Leader lease.  A term-numbered election in the Raft style, with the
//     vote doubling as a lease promise: granting a vote (or acking a
//     heartbeat) promises not to help elect anyone else until the promised
//     horizon, measured on the deterministic interval clock (the tick).
//     A candidate reaching a majority therefore holds a *committed* lease
//     until its proposed horizon: any competing majority would have to
//     intersect the promising one.  Heartbeat + majority-ack renews the
//     lease the same way.  Only a leader whose committed lease covers the
//     current tick may emit a ConfigBundle generation — the InstallGate
//     asserts it.
//
// Durable vs volatile state mirrors a real deployment: term, vote, and
// the lease promise survive a crash (they would sit in stable storage —
// forgetting a lease promise could elect two overlapping leaders);
// role, vote/ack tallies, the committed lease, and the generation hint
// are volatile and reset by on_restart().  The estimator's smoothing
// state is modeled as checkpointed alongside the vote.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "online/bus.h"
#include "online/estimator.h"

namespace nwlb::online {

enum class Role : unsigned char { kFollower, kCandidate, kLeader };

struct ReplicaOptions {
  /// Committed-lease duration, in ticks (control intervals).  A leader
  /// that cannot renew within this horizon loses install rights and the
  /// cluster re-elects — the failover time under a leader crash.
  std::uint64_t lease_ticks = 3;

  /// Seed for the gossip peer-selection hash draws.
  std::uint64_t seed = 0xd157;

  /// Throws std::invalid_argument on a lease of no tick.  Replica's
  /// constructor calls this.
  void validate() const;
};

class Replica {
 public:
  /// `estimator` sets the class count every partial must have.  Every
  /// replica of a cluster gets an estimator built from the same spec and
  /// classes: the digest merge is estimator-agnostic, but converged
  /// *estimates* require identical digests folded through identical state
  /// machines.
  Replica(int id, int num_replicas, std::unique_ptr<Estimator> estimator,
          ReplicaOptions options);

  int id() const { return id_; }
  Role role() const { return role_; }
  std::uint64_t term() const { return term_; }
  int leader_hint() const { return leader_; }
  std::uint64_t elections_started() const { return elections_; }

  /// True when this replica is a leader whose majority-committed lease
  /// covers `tick` — the precondition for emitting a generation.
  bool lease_valid(std::uint64_t tick) const {
    return role_ == Role::kLeader && committed_lease_until_ > tick;
  }
  std::uint64_t lease_until() const { return lease_until_; }

  // --- Interval lifecycle ------------------------------------------------
  /// Starts a control interval: seeds the gossip set with this replica's
  /// own data-plane slice and expires stale candidacies / leases.
  void begin_interval(std::uint64_t tick, EstimatePartial own);

  /// One synchronous message round: drain + handle inbound first, then
  /// emit (heartbeats, staggered candidacy, gossip).
  void run_round(MessageBus& bus, std::uint64_t tick, int round, int total_rounds);

  /// Ends the interval: folds the summed digest of heard partials into
  /// the estimator.  Returns how many origins the digest covered.
  int end_interval(std::uint64_t tick);

  /// Crash recovery: volatile consensus state resets, durable state
  /// (term, vote, lease promise) survives — see file comment.
  void on_restart();

  // --- Digest / estimate -------------------------------------------------
  int replicas_heard() const;
  /// The summed digest the estimator last folded (valid after
  /// end_interval()).
  const std::vector<std::uint64_t>& digest_sessions() const { return digest_sessions_; }
  const std::vector<std::uint64_t>& digest_bytes() const { return digest_bytes_; }
  const Estimator& estimator() const { return *estimator_; }

  /// Records a generation this replica emitted or learned of; advertised
  /// in heartbeats so followers track the install frontier.
  void note_generation(std::uint64_t generation);

 private:
  void handle(const Message& msg, MessageBus& bus, std::uint64_t tick);
  void start_election(MessageBus& bus, std::uint64_t tick);
  void maybe_win(MessageBus& bus, std::uint64_t tick);
  /// Commits the proposed lease once a majority has acked it.
  void maybe_commit_lease();
  void broadcast_heartbeat(MessageBus& bus, std::uint64_t tick);
  void gossip(MessageBus& bus, std::uint64_t tick, int round);
  /// Candidacy rounds are staggered by replica id so simultaneous
  /// deterministic candidacies don't split votes forever; round 0 is
  /// reserved so a live leader's heartbeat always lands first.
  int candidacy_round(int total_rounds) const;
  int majority() const { return num_replicas_ / 2 + 1; }

  int id_;
  int num_replicas_;
  ReplicaOptions options_;
  std::unique_ptr<Estimator> estimator_;
  std::size_t num_classes_;

  // Durable consensus state (survives on_restart).
  std::uint64_t term_ = 0;
  std::uint64_t voted_term_ = 0;  // Highest term this replica voted in.
  int voted_for_ = -1;
  std::uint64_t lease_until_ = 0;  // Promise horizon: no rival votes before it.

  // Volatile consensus state (cleared by on_restart).
  Role role_ = Role::kFollower;
  int leader_ = -1;
  std::uint64_t committed_lease_until_ = 0;  // Leader-only: majority-backed.
  std::uint64_t proposed_lease_until_ = 0;
  int votes_ = 0;
  int acks_ = 0;
  bool candidate_this_interval_ = false;
  std::uint64_t known_generation_ = 0;
  std::uint64_t elections_ = 0;

  // Per-interval gossip scratch, and the digest end_interval() sums it into.
  std::uint64_t interval_tick_ = 0;
  std::vector<std::optional<EstimatePartial>> heard_;  // Keyed by origin.
  std::vector<std::uint64_t> digest_sessions_;
  std::vector<std::uint64_t> digest_bytes_;
};

}  // namespace nwlb::online
