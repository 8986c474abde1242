// Simulated control-plane message bus (DESIGN.md §13).
//
// Controller replicas exchange fixed-format messages in synchronous
// rounds: a message sent in round r becomes deliverable in round r+1 (plus
// an optional per-message delay).  Loss and delay are *stateless* seeded
// hash draws keyed on the bus's send sequence number — the same pattern as
// FailureSchedule::drops_frame — so a run is a pure function of
// (seed, send sequence), reproducible and independent of the order
// replicas are stepped within a round.
//
// A partition bitmask splits the replicas into two groups (bit r set =
// replica r in group A); messages crossing the cut vanish, counted
// separately from random drops.  flush() clears everything still in
// flight — called between control intervals, because consensus state is
// per-interval and stale messages must not leak across the boundary.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace nwlb::dist {

enum class MsgType : unsigned char {
  kEstimateShare,  // Gossip: per-origin estimate partials for this tick.
  kVoteRequest,    // Candidate asks for a term vote + lease promise.
  kVote,           // Vote granted for (term, candidate).
  kHeartbeat,      // Leader renews its lease, advertises the generation.
  kHeartbeatAck,   // Follower acks a heartbeat (lease-renewal quorum).
};

const char* to_string(MsgType type);

/// One origin replica's slice of the interval's data-plane counters: the
/// classes whose ingress PoPs that replica observes.  Slices are disjoint
/// by construction, and union-merging them is idempotent — gossip
/// converges to the exact centralized sums no matter how messages are
/// duplicated, reordered, or dropped along the way.
struct EstimatePartial {
  int origin = -1;
  std::vector<std::uint64_t> sessions;  // Indexed like ProblemInput::classes.
  std::vector<std::uint64_t> bytes;
};

struct Message {
  MsgType type = MsgType::kEstimateShare;
  int from = -1;
  int to = -1;
  std::uint64_t term = 0;
  std::uint64_t tick = 0;         // Control interval the message belongs to.
  std::uint64_t lease_until = 0;  // Lease horizon (heartbeat / vote traffic).
  std::uint64_t generation = 0;   // Newest installed generation (heartbeat).
  std::vector<EstimatePartial> partials;  // kEstimateShare payload.
};

struct BusOptions {
  double drop_probability = 0.0;  // Per-message loss (partitions excluded).
  int max_delay_rounds = 0;       // Extra delay in [0, max], drawn per message.
  std::uint64_t seed = 0xb05;

  /// Throws std::invalid_argument on a drop probability outside [0, 1] or a
  /// negative delay.  MessageBus's constructor calls this.
  void validate() const;
};

struct BusStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;      // Random loss.
  std::uint64_t partitioned = 0;  // Crossed the partition cut.
  std::uint64_t flushed = 0;      // Still pending at an interval boundary.
};

class MessageBus {
 public:
  explicit MessageBus(int num_replicas, BusOptions options = {});

  /// Partition bitmask: bit r set = replica r in group A.  0 = healthy.
  void set_partition(std::uint32_t mask) { partition_ = mask; }
  std::uint32_t partition() const { return partition_; }
  bool reachable(int from, int to) const;

  void send(Message msg);

  /// Messages for `replica` whose delay has elapsed, in send order.
  std::vector<Message> drain(int replica);

  /// Ends one synchronous round: everything in flight moves one round
  /// closer to delivery.
  void advance_round();

  /// Drops everything still in flight (see file comment).
  void flush();

  int num_replicas() const { return num_replicas_; }
  const BusStats& stats() const { return stats_; }

 private:
  struct Pending {
    int rounds_left;
    Message msg;
  };

  int num_replicas_;
  BusOptions options_;
  std::uint32_t partition_ = 0;
  std::uint64_t sends_ = 0;  // Hash-draw tag: the message sequence number.
  std::vector<std::vector<Pending>> pending_;  // Per destination replica.
  BusStats stats_;
};

}  // namespace nwlb::dist
