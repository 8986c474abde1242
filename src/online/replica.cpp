#include "online/replica.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/check.h"
#include "util/rng.h"

namespace nwlb::online {

namespace {

/// Gossip peers contacted per replica per round.
constexpr int kGossipFanout = 2;

/// `options`, checked before any member is built from them.
ReplicaOptions validated(ReplicaOptions options) {
  options.validate();
  return options;
}

}  // namespace

void ReplicaOptions::validate() const {
  if (lease_ticks < 1)
    throw std::invalid_argument("Replica: the lease must cover at least one tick, got " +
                                std::to_string(lease_ticks));
}

Replica::Replica(int id, int num_replicas, std::unique_ptr<Estimator> estimator,
                 ReplicaOptions options)
    : id_(id),
      num_replicas_(num_replicas),
      options_(validated(options)),
      estimator_(std::move(estimator)),
      num_classes_(estimator_->num_classes()),
      heard_(static_cast<std::size_t>(num_replicas)) {
  NWLB_CHECK(id >= 0 && id < num_replicas, "Replica: id ", id,
             " out of range for ", num_replicas, " replicas");
}

void Replica::begin_interval(std::uint64_t tick, EstimatePartial own) {
  interval_tick_ = tick;
  candidate_this_interval_ = false;
  // A candidacy that didn't complete last interval has expired.
  if (role_ == Role::kCandidate) role_ = Role::kFollower;
  if (role_ == Role::kLeader && committed_lease_until_ <= tick) {
    // The lease lapsed without a majority renewal (partitioned or unlucky
    // bus): step down rather than act on stale authority.
    role_ = Role::kFollower;
    leader_ = -1;
    committed_lease_until_ = 0;
  }
  own.origin = id_;
  NWLB_CHECK_EQ(own.sessions.size(), num_classes_,
                "Replica: partial shape mismatch");
  NWLB_CHECK_EQ(own.bytes.size(), num_classes_,
                "Replica: partial shape mismatch");
  heard_.assign(static_cast<std::size_t>(num_replicas_), std::nullopt);
  heard_[static_cast<std::size_t>(id_)] = std::move(own);
}

void Replica::run_round(MessageBus& bus, std::uint64_t tick, int round,
                        int total_rounds) {
  // Inbound first: a live leader's round-0 heartbeat lands here in round 1,
  // refreshing the lease promise before any candidacy check below.
  for (const Message& msg : bus.drain(id_)) handle(msg, bus, tick);

  if (role_ == Role::kLeader) {
    if (round == 0) broadcast_heartbeat(bus, tick);
  } else if (!candidate_this_interval_ && lease_until_ <= tick &&
             round == candidacy_round(total_rounds)) {
    start_election(bus, tick);
  }
  gossip(bus, tick, round);
}

int Replica::end_interval(std::uint64_t tick) {
  (void)tick;
  // The merge is plain addition on the estimator's inputs, so this code
  // path is identical for every registered estimator kind: sum the heard
  // per-origin slices, then fold the digest through whatever state
  // machine the spec selected.
  digest_sessions_.assign(num_classes_, 0);
  digest_bytes_.assign(num_classes_, 0);
  int heard = 0;
  for (const auto& partial : heard_) {
    if (!partial) continue;
    ++heard;
    for (std::size_t c = 0; c < num_classes_; ++c) {
      digest_sessions_[c] += partial->sessions[c];
      digest_bytes_[c] += partial->bytes[c];
    }
  }
  estimator_->observe(digest_sessions_, digest_bytes_);
  return heard;
}

void Replica::on_restart() {
  role_ = Role::kFollower;
  leader_ = -1;
  committed_lease_until_ = 0;
  proposed_lease_until_ = 0;
  votes_ = 0;
  acks_ = 0;
  candidate_this_interval_ = false;
  known_generation_ = 0;  // Relearned from heartbeats / the install gate.
  heard_.assign(static_cast<std::size_t>(num_replicas_), std::nullopt);
  // term_, voted_term_, voted_for_, lease_until_ are durable: forgetting a
  // vote or its lease promise could elect two overlapping leaders.
}

int Replica::replicas_heard() const {
  int heard = 0;
  for (const auto& partial : heard_)
    if (partial) ++heard;
  return heard;
}

void Replica::note_generation(std::uint64_t generation) {
  known_generation_ = std::max(known_generation_, generation);
}

void Replica::handle(const Message& msg, MessageBus& bus, std::uint64_t tick) {
  switch (msg.type) {
    case MsgType::kEstimateShare: {
      if (msg.tick != interval_tick_) return;  // Stale cross-interval gossip.
      for (const EstimatePartial& partial : msg.partials) {
        if (partial.origin < 0 || partial.origin >= num_replicas_) continue;
        NWLB_CHECK_EQ(partial.sessions.size(), num_classes_,
                      "Replica: gossip partial shape mismatch");
        NWLB_CHECK_EQ(partial.bytes.size(), num_classes_,
                      "Replica: gossip partial shape mismatch");
        auto& slot = heard_[static_cast<std::size_t>(partial.origin)];
        if (!slot) slot = partial;  // Union merge: first copy wins, dups no-op.
      }
      return;
    }

    case MsgType::kVoteRequest: {
      if (msg.term > term_) term_ = msg.term;
      // Grant iff this is a fresh term AND every promise this replica has
      // made (vote grants, heartbeat acks) has expired — the promise is
      // what makes two committed leases provably disjoint.
      if (msg.term > voted_term_ && lease_until_ <= tick) {
        voted_term_ = msg.term;
        voted_for_ = msg.from;
        lease_until_ = std::max(lease_until_, msg.lease_until);
        if (role_ == Role::kCandidate) role_ = Role::kFollower;
        Message vote;
        vote.type = MsgType::kVote;
        vote.from = id_;
        vote.to = msg.from;
        vote.term = msg.term;
        vote.tick = tick;
        vote.lease_until = msg.lease_until;
        bus.send(std::move(vote));
      }
      return;
    }

    case MsgType::kVote: {
      if (role_ == Role::kCandidate && msg.term == term_) {
        ++votes_;
        maybe_win(bus, tick);
      }
      return;
    }

    case MsgType::kHeartbeat: {
      if (msg.term < term_) return;  // Stale leader from an old term.
      if (role_ == Role::kLeader) {
        // Same-term second leader is the split-brain the vote uniqueness
        // per term makes impossible; a newer term means we were deposed
        // while partitioned.
        NWLB_CHECK(msg.term > term_, "Replica ", id_, ": two leaders in term ",
                   term_, " (heartbeat from ", msg.from, ")");
        committed_lease_until_ = 0;
      }
      term_ = msg.term;
      role_ = Role::kFollower;
      leader_ = msg.from;
      lease_until_ = std::max(lease_until_, msg.lease_until);
      known_generation_ = std::max(known_generation_, msg.generation);
      Message ack;
      ack.type = MsgType::kHeartbeatAck;
      ack.from = id_;
      ack.to = msg.from;
      ack.term = msg.term;
      ack.tick = tick;
      ack.lease_until = msg.lease_until;  // Echo: which proposal this backs.
      bus.send(std::move(ack));
      return;
    }

    case MsgType::kHeartbeatAck: {
      if (role_ == Role::kLeader && msg.term == term_ &&
          msg.lease_until == proposed_lease_until_) {
        ++acks_;
        maybe_commit_lease();
      }
      return;
    }
  }
}

void Replica::start_election(MessageBus& bus, std::uint64_t tick) {
  role_ = Role::kCandidate;
  candidate_this_interval_ = true;
  term_ = std::max(term_, voted_term_) + 1;
  voted_term_ = term_;
  voted_for_ = id_;
  votes_ = 1;
  leader_ = -1;
  ++elections_;
  proposed_lease_until_ = tick + options_.lease_ticks;
  lease_until_ = std::max(lease_until_, proposed_lease_until_);  // Self-promise.
  maybe_win(bus, tick);  // A single-replica cluster is its own majority.
  if (role_ == Role::kLeader) return;
  for (int peer = 0; peer < num_replicas_; ++peer) {
    if (peer == id_) continue;
    Message request;
    request.type = MsgType::kVoteRequest;
    request.from = id_;
    request.to = peer;
    request.term = term_;
    request.tick = tick;
    request.lease_until = proposed_lease_until_;
    bus.send(std::move(request));
  }
}

void Replica::maybe_win(MessageBus& bus, std::uint64_t tick) {
  if (role_ != Role::kCandidate || votes_ < majority()) return;
  // A majority granted the vote *and* its lease promise: any rival
  // majority before proposed_lease_until_ would have to intersect this
  // one, and the intersection already promised — the lease is committed.
  role_ = Role::kLeader;
  leader_ = id_;
  committed_lease_until_ = std::max(committed_lease_until_, proposed_lease_until_);
  lease_until_ = std::max(lease_until_, committed_lease_until_);
  broadcast_heartbeat(bus, tick);
}

void Replica::maybe_commit_lease() {
  // The leader backs its own proposal, so a majority less one ack commits.
  if (acks_ + 1 < majority()) return;
  committed_lease_until_ = std::max(committed_lease_until_, proposed_lease_until_);
  lease_until_ = std::max(lease_until_, committed_lease_until_);
}

void Replica::broadcast_heartbeat(MessageBus& bus, std::uint64_t tick) {
  proposed_lease_until_ =
      std::max(committed_lease_until_, tick + options_.lease_ticks);
  acks_ = 0;
  maybe_commit_lease();  // A single-replica cluster is its own majority.
  for (int peer = 0; peer < num_replicas_; ++peer) {
    if (peer == id_) continue;
    Message beat;
    beat.type = MsgType::kHeartbeat;
    beat.from = id_;
    beat.to = peer;
    beat.term = term_;
    beat.tick = tick;
    beat.lease_until = proposed_lease_until_;
    beat.generation = known_generation_;
    bus.send(std::move(beat));
  }
}

void Replica::gossip(MessageBus& bus, std::uint64_t tick, int round) {
  if (num_replicas_ == 1) return;
  std::vector<EstimatePartial> known;
  for (const auto& partial : heard_)
    if (partial) known.push_back(*partial);
  for (int k = 0; k < kGossipFanout; ++k) {
    // Stateless peer draw keyed on (seed, tick, id, round, k): identical
    // across reruns, different across rounds so coverage spreads.
    std::uint64_t s = util::derive_seed(options_.seed, 0x9055ULL);
    s = util::derive_seed(s, tick);
    s = util::derive_seed(s, (static_cast<std::uint64_t>(id_) << 32) ^
                                 (static_cast<std::uint64_t>(round) << 8) ^
                                 static_cast<std::uint64_t>(k));
    int peer = static_cast<int>(util::splitmix64(s) %
                                static_cast<std::uint64_t>(num_replicas_ - 1));
    if (peer >= id_) ++peer;  // Skip self while keeping the draw uniform.
    Message share;
    share.type = MsgType::kEstimateShare;
    share.from = id_;
    share.to = peer;
    share.term = term_;
    share.tick = tick;
    share.partials = known;
    bus.send(std::move(share));
  }
}

int Replica::candidacy_round(int total_rounds) const {
  return 1 + (id_ % std::max(1, total_rounds - 1));
}

}  // namespace nwlb::online
